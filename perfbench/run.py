"""fchsim benchmark: time to solution on three solver regimes.

    python3 perfbench/run.py --workload spinodal-128 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Runs from the root of a checkout and imports fchsim from its ``src/``.  Each
workload runs in a fresh process with the FFT/BLAS thread variables pinned to
1.  With ``--trace 0`` it prints the end-to-end metrics: the run's medians
over repeated fixed-horizon solves for ``--seconds`` seconds, plus the
median of seven cold set-up probes, each in its own process.  Every time is
scaled to a reference host speed by a calibration kernel timed around it
(``hostspeed.py``); the raw times are on the info line.  With
``--trace 1`` it prints the per-layer metrics of one traced run together
with the per-layer microbenchmarks.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it give host metadata and the same numbers for reading.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7
BUDGET_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _child(mode: str, workload: str, seed: int, timeout: float, extra=()) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [
        sys.executable, str(HERE / "child.py"), mode,
        "--workload", workload, "--seed", str(seed), "--workdir", str(WORKDIR), *extra,
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} {workload} exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    if trace:
        return _child("trace", workload, seed, BUDGET_S)
    probes = [_child("setup", workload, seed, 60.0) for _ in range(SETUP_PROBES)]
    setup = [p["setup_s"] for p in probes]
    result = _child(
        "measure", workload, seed, deadline - time.monotonic(), ("--seconds", str(seconds))
    )
    result["metrics"]["setup_s"] = (statistics.median(setup), "s")
    result["info"]["setup_probes_s"] = setup
    result["info"]["raw_setup_probes_s"] = [p["raw_setup_s"] for p in probes]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fchsim benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    if not (ROOT / "src" / "fchsim" / "__init__.py").is_file():
        print(f"no fchsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workloads = names if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        wrong = [m for m, unit in wanted.items() if res["metrics"].get(m, (0, None))[1] != unit]
        if wrong:
            print(f"{workload} did not report {wrong} in the declared units", file=sys.stderr)
            return 1
        print("host: " + json.dumps(res["host"]))
        print(f"{workload} seed {args.seed}: " + json.dumps(res["info"]))
        for name in wanted:
            value, unit = res["metrics"][name]
            print(f"  {workload:18s} {name:40s} {value:>16.6g} {unit}")
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name in wanted:
            value, unit = res["metrics"][name]
            total["metrics"][prefix + name] = {"value": value, "unit": unit}
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
