"""One benchmark process: a set-up probe, the measured runs, or the traced run.

run.py starts this in a fresh process with the FFT/BLAS thread variables
pinned to 1.  It prints one JSON object as its last line of standard output.

    child.py setup   --workload W --seed N --workdir D              cold import and set-up time
    child.py measure --workload W --seed N --workdir D --seconds S  untraced runs for S seconds
    child.py trace   --workload W --seed N --workdir D              microbenchmarks, then one
                                                                    untraced and one traced run
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from run import ROOT, THREAD_VARS

TRACE_PAIRS = 2


def import_fchsim():
    """Import fchsim from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import fchsim

    if Path(fchsim.__file__).resolve().parent != (ROOT / "src" / "fchsim").resolve():
        raise ImportError(f"fchsim imported from {fchsim.__file__}, not from {ROOT / 'src'}")
    return fchsim


def host_info() -> dict:
    import numpy

    import fchsim.solver

    cpu = platform.processor()
    if not cpu:
        try:
            with open("/proc/cpuinfo") as fh:
                cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
        except OSError:
            cpu = ""
    return {
        "cpu": cpu or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fchsim": fchsim.__version__,
        "have_numba": bool(getattr(fchsim.solver, "HAVE_NUMBA", False)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def one_run(wl, seed: int, workdir: Path, tracer):
    """Set up, run and check once under ``tracer``.

    The root span covers set-up and run; the returned wall time covers the
    run only, with the kernel calls of a calibrating tracer in it, whose
    ``segments()`` leave them out.  Returns (wall seconds, failures, state,
    outcome).
    """
    tracer.reset()
    tracer.active = True
    st = out = None
    try:
        with tracer.span():
            st = wl.setup(seed, workdir)
            tracer.mark("run")
            t0 = time.perf_counter()
            out = wl.run(st, tracer)
            wall = time.perf_counter() - t0
            tracer.mark("end")
    except Exception:
        traceback.print_exc()
        return math.nan, ["run raised"], st, None
    finally:
        tracer.active = False
    try:
        failures = wl.check(st, out)
    except Exception:
        traceback.print_exc()
        failures = ["check raised"]
    for msg in failures:
        print(f"{wl.name} seed {seed}: FAILED {msg}", file=sys.stderr)
    return wall, failures, st, out


def cmd_setup(args, t_start: float, speed_before: float) -> dict:
    from workloads import WORKLOADS

    WORKLOADS[args.workload].setup(args.seed, args.workdir)
    raw = time.perf_counter() - t_start
    speed = 0.5 * (speed_before + hostspeed.loop_speed())
    return {"setup_s": raw * speed, "raw_setup_s": raw}


def cmd_measure(args) -> dict:
    from spans import LIGHT_LAYERS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    walls, raw_walls, steps, raw_steps, mms, durations = [], [], [], [], [], []
    attempted = failed = psd_iters = accepted = attempts = 0
    t_start = time.perf_counter()
    with Tracer(LIGHT_LAYERS, calibrate=True) as tracer:
        while True:
            t_run = time.perf_counter()
            _, failures, st, out = one_run(wl, args.seed, args.workdir, tracer)
            attempted += 1
            failed += bool(failures)
            if out is not None:
                segments = tracer.segments()
                walls.append(sum(sec * scale for _, sec, scale in segments))
                raw_walls.append(sum(sec for _, sec, _ in segments))
                steps.extend(sec * scale for kind, sec, scale in segments if kind == "step")
                raw_steps.extend(sec for kind, sec, _ in segments if kind == "step")
                psd_iters += tracer.psd_iters
                attempts += tracer.solves
                accepted += len(out.records)
                if hasattr(wl, "mms_l2_err"):
                    mms.append(wl.mms_l2_err(st, out))
            durations.append(time.perf_counter() - t_run)
            if time.perf_counter() - t_start + statistics.median(durations) > args.seconds:
                break
    if not walls:
        raise RuntimeError(f"every run of {wl.name} failed")
    steps_ms = [1e3 * s for s in steps]
    raw_steps_ms = [1e3 * s for s in raw_steps]
    info = {
        "runs": attempted,
        "run_walls_s": walls,
        "raw_run_walls_s": raw_walls,
        "raw_wall_s": statistics.median(raw_walls),
        "raw_step_ms_p50": statistics.median(raw_steps_ms),
        "raw_step_ms_p90": percentile(raw_steps_ms, 90),
        "fail_frac": failed / attempted,
        "step_samples": len(steps_ms),
        "accepted_steps": accepted,
        "rejected_attempts": attempts - accepted,
    }
    if mms:
        info["mms_l2_err"] = statistics.median(mms)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "step_ms_p50": (statistics.median(steps_ms), "ms"),
            "step_ms_p90": (percentile(steps_ms, 90), "ms"),
            "psd_iters_per_step": (psd_iters / accepted, "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "info": info,
    }


def cmd_trace(args, host: dict) -> dict:
    from micro import run_micro
    from spans import LIGHT_LAYERS, Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    metrics = run_micro()
    # Untraced and traced runs alternate; the per-layer metrics come from the
    # last traced run.
    light, full = Tracer(LIGHT_LAYERS), Tracer()
    walls = {light: [], full: []}
    failed = 0
    for _ in range(TRACE_PAIRS):
        for tracer in (light, full):
            with tracer:
                wall, failures, _, _ = one_run(wl, args.seed, args.workdir, tracer)
            walls[tracer].append(wall)
            failed += bool(failures)
    metrics.update(full.layer_metrics())
    overhead = statistics.median(walls[full]) / statistics.median(walls[light]) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    unhit = full.unhit()
    if unhit:
        print(f"{wl.name}: bindings not called: {', '.join(unhit)}", file=sys.stderr)
    spans = args.workdir / f"trace-{wl.name}-seed{args.seed}.csv.gz"
    full.write(str(spans), header=json.dumps({"workload": wl.name, "seed": args.seed, "host": host}))
    print(f"spans written to {spans}", file=sys.stderr)
    return {
        "attempted": 2 * TRACE_PAIRS,
        "failed": failed,
        "metrics": metrics,
        "info": {"untraced_walls_s": walls[light], "traced_walls_s": walls[full], "unhit_bindings": unhit},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    speed_before = hostspeed.loop_speed() if args.mode == "setup" else 0.0
    t_start = time.perf_counter()
    import_fchsim()
    if args.mode == "setup":
        result = cmd_setup(args, t_start, speed_before)
    else:
        host = host_info()
        result = cmd_measure(args) if args.mode == "measure" else cmd_trace(args, host)
        result["host"] = host
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
