"""Span tracer that times fchsim's public functions from outside the program.

Each traced function is wrapped at the binding where the program looks it up:
``fchsim.energy.laplacian`` and ``fchsim.solver.laplacian`` are separate names
for ``fchsim.grid.laplacian`` and each gets its own wrapper.  Methods are
wrapped on their class.  A wrapper records one span (layer, start, end,
parent, run id) per call while the tracer is active; spans stay in memory and
are written out once, when the benchmark ends.  A span's self time is its
duration minus the durations of its child spans.

Installing fails when a binding no longer exists, and ``unhit()`` names the
bindings a run never called, so a refactor that moves a function fails loudly
instead of reading as a zero.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import os
import time
from array import array

import hostspeed

# (module, attribute, layer).  "Class.method" attributes are patched on the
# class.  Only live lookup sites are listed: every binding here is called by
# at least one workload, which the benchmark's own test checks.
BINDINGS = (
    ("fchsim.grid", "laplacian", "grid.laplacian"),
    ("fchsim.energy", "laplacian", "grid.laplacian"),
    ("fchsim.solver", "laplacian", "grid.laplacian"),
    ("fchsim.grid", "face_diff", "grid.face_ops"),
    ("fchsim.energy", "face_diff", "grid.face_ops"),
    ("fchsim.energy", "face_avg", "grid.face_ops"),
    ("fchsim.energy", "cell_diff", "grid.face_ops"),
    ("fchsim.energy", "cell_avg", "grid.face_ops"),
    ("fchsim.solver", "face_diff", "grid.face_ops"),
    ("fchsim.solver", "face_avg", "grid.face_ops"),
    ("fchsim.solver", "cell_avg", "grid.face_ops"),
    ("fchsim.grid", "SpectralWorkspace.forward", "grid.fft"),
    ("fchsim.grid", "SpectralWorkspace.inverse", "grid.fft"),
    ("fchsim.energy", "beta", "potential.eval"),
    ("fchsim.energy", "beta_prime", "potential.eval"),
    ("fchsim.energy", "beta_second", "potential.eval"),
    ("fchsim.energy", "mixing_family", "potential.eval"),
    ("fchsim.energy", "require_admissible", "potential.eval"),
    ("fchsim.solver", "require_admissible", "potential.eval"),
    ("fchsim.scenarios", "beta", "potential.eval"),
    ("fchsim.scenarios", "beta_prime", "potential.eval"),
    ("fchsim.scenarios", "beta_second", "potential.eval"),
    ("fchsim.solver", "nonlinear_map", "energy.nonlinear_map"),
    ("fchsim.solver", "rhs_explicit", "energy.rhs_explicit"),
    ("fchsim.energy", "energy_total", "energy.energy_total"),
    ("fchsim.dynamics", "energy_total", "energy.energy_total"),
    ("fchsim.dynamics", "chemical_potential", "energy.chemical_potential"),
    ("fchsim.dynamics", "psd_solve", "solver.psd_solve"),
    ("fchsim.solver", "precond_solve", "solver.precond_solve"),
    ("fchsim.solver", "LineObjective.__init__", "solver.line_setup"),
    ("fchsim.solver", "LineObjective.__call__", "solver.line_eval"),
    ("fchsim.solver", "line_minimize", "solver.line_minimize"),
    ("fchsim.solver", "admissible_step_cap", "solver.step_cap"),
    ("fchsim.dynamics", "step", "dynamics.step"),
    ("fchsim.dynamics", "advance_adaptive", "dynamics.advance"),
    ("fchsim.dynamics", "advance_fixed", "dynamics.advance"),
    ("fchsim.cli", "advance_adaptive", "dynamics.advance"),
    ("fchsim.scenarios", "manufactured_forcing", "scenarios.forcing"),
    ("fchsim.scenarios", "init_spinodal", "scenarios.init"),
    ("fchsim.scenarios", "init_pearling", "scenarios.init"),
    ("fchsim.scenarios", "manufactured_state", "scenarios.init"),
    ("fchsim.cli", "write_snapshot", "output.snapshot"),
    ("fchsim.output", "DiagnosticsWriter.write", "output.diagnostics"),
    ("fchsim.cli", "main", "cli"),
)

ROOT = "bench.rep"
LAYERS = (ROOT,) + tuple(dict.fromkeys(layer for _, _, layer in BINDINGS))
# The untraced run keeps only these: they carry the solver's iteration counts
# and the per-step host speed marks, at one span per step attempt.
LIGHT_LAYERS = ("solver.psd_solve", "dynamics.advance")
STENCIL_LAYERS = ("grid.laplacian", "grid.face_ops")


class Tracer:
    """Wraps the bindings of the chosen layers; records spans while active.

    With ``calibrate`` it also runs the host speed kernel at the start of
    each advance and after each accepted step (see ``hostspeed``).
    """

    def __init__(self, layers=LAYERS, calibrate=False):
        self.bindings = [b for b in BINDINGS if b[2] in layers]
        self.calibrate = calibrate
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.active = False
        self.run_id = -1
        self._saved = []
        self.reset()

    # --- recording -------------------------------------------------------

    def reset(self) -> None:
        """Start a new run: drop all spans and counters, keep the bindings."""
        self.run_id += 1
        self.span_layer = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_run = array("i")
        self._stack = []
        self.hits = [0] * len(self.bindings)
        self.solves = 0
        self.psd_iters = 0
        self.ls_evals = 0
        self.line_searches = 0
        self.capped = 0
        self.bytes_computed = 0
        self.snapshot_bytes = 0
        self.step_attempts = []  # (span index, returned record)
        self.accepted_ids = set()
        self.advance_calls = []  # (phi0, records, phi_end)
        self.marks = []  # (kind, kernel start, kernel end, host speed)
        self._last_cap = None

    def _open(self, layer: int) -> int:
        idx = len(self.span_start)
        self.span_layer.append(layer)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_run.append(self.run_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def mark(self, kind: str) -> None:
        """Run the host speed kernel, if calibrating, and record when."""
        if self.calibrate:
            t0 = time.perf_counter()
            times = hostspeed.measure()
            self.marks.append((kind, t0, time.perf_counter(), hostspeed.speed(times)))

    @contextlib.contextmanager
    def span(self, name: str = ROOT):
        """A span opened by the benchmark itself."""
        idx = self._open(self.layer_id[name])
        try:
            yield
        finally:
            self._close(idx)

    # --- per-layer hooks around the wrapped call --------------------------

    def _before(self, layer, args, kwargs):
        if layer == "solver.line_minimize":
            self._last_cap = None
        elif layer == "dynamics.advance" and self.calibrate:
            user_sink = kwargs.get("sink")

            def marking_sink(rec, phi):
                self.mark("step")
                if user_sink is not None:
                    user_sink(rec, phi)

            kwargs["sink"] = marking_sink
            self.mark("advance")
        elif layer in STENCIL_LAYERS:
            # Computed, not measured: one read of the input and one write of
            # the output, ignoring temporaries and cache misses.
            self.bytes_computed += 2 * args[0].nbytes

    def _after(self, layer, idx, args, result):
        if layer == "solver.psd_solve":
            report = result[1]
            self.solves += 1
            self.psd_iters += report.iterations
            self.ls_evals += report.line_search_evals
        elif layer == "solver.step_cap":
            self._last_cap = result
        elif layer == "solver.line_minimize":
            self.line_searches += 1
            if self._last_cap is not None and result[0] == self._last_cap:
                self.capped += 1
        elif layer == "dynamics.step":
            self.step_attempts.append((idx, result[1]))
        elif layer == "dynamics.advance":
            records, phi_end = result
            self.accepted_ids.update(id(r) for r in records)
            self.advance_calls.append((args[0], records, phi_end))
        elif layer == "output.snapshot":
            self.snapshot_bytes += os.path.getsize(args[0])

    # --- installation ----------------------------------------------------

    def _wrap(self, fn, binding: int, layer: str):
        tracer = self
        layer_id = self.layer_id[layer]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.hits[binding] += 1
            tracer._before(layer, args, kwargs)
            idx = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(layer, idx, args, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for i, (mod_name, attr, layer) in enumerate(self.bindings):
            owner = importlib.import_module(mod_name)
            name = attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(owner, cls_name)
            if name not in vars(owner):
                self.uninstall()
                raise LookupError(f"traced binding {mod_name}.{attr} no longer exists")
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, i, layer))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []
        self.active = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --- results ---------------------------------------------------------

    def unhit(self) -> list[str]:
        return [f"{m}.{a}" for (m, a, _), n in zip(self.bindings, self.hits) if n == 0]

    def segments(self) -> list[tuple[str, float, float]]:
        """(kind of the closing mark, seconds, mean host speed at its ends)
        for each interval between consecutive marks; no kernel time is in any."""
        return [
            (kind, start - prev_end, 0.5 * (prev_speed + speed))
            for (_, _, prev_end, prev_speed), (kind, start, _, speed) in zip(self.marks, self.marks[1:])
        ]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self time and counters as {name: (value, unit)}."""
        import numpy as np

        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - child
        n_layers = len(LAYERS)
        calls = np.bincount(layer, minlength=n_layers)
        self_by_layer = np.bincount(layer, weights=self_s, minlength=n_layers)

        out: dict[str, tuple[float, str]] = {}
        for name, i in self.layer_id.items():
            if name in (ROOT, "dynamics.advance", "cli"):
                continue
            if name != "dynamics.step":  # reported as dynamics.attempts
                out[f"{name}.calls"] = (int(calls[i]), "count")
            out[f"{name}.self_s"] = (float(self_by_layer[i]), "s")
        out["grid.bytes_computed"] = (self.bytes_computed, "B")
        out["solver.psd_iters"] = (self.psd_iters, "count")
        out["solver.ls_evals"] = (self.ls_evals, "count")
        out["solver.ls_evals_per_iter"] = (self.ls_evals / max(self.psd_iters, 1), "ratio")
        out["solver.capped_frac"] = (self.capped / max(self.line_searches, 1), "ratio")

        attempts = len(self.step_attempts)
        accepted = [id(rec) in self.accepted_ids for _, rec in self.step_attempts]
        out["dynamics.attempts"] = (attempts, "count")
        out["dynamics.accepted"] = (sum(accepted), "count")
        out["dynamics.accept_ratio"] = (sum(accepted) / max(attempts, 1), "ratio")
        out["dynamics.rejected_s"] = (
            float(sum(dur[idx] for (idx, _), ok in zip(self.step_attempts, accepted) if not ok)),
            "s",
        )
        out["output.snapshot.bytes"] = (self.snapshot_bytes, "B")
        out["cli.self_s"] = (float(self_by_layer[self.layer_id["cli"]]), "s")
        root = layer == self.layer_id[ROOT]
        covered = 1.0 - float(self_s[root].sum()) / max(float(dur[root].sum()), 1e-300)
        out["trace.coverage"] = (covered, "ratio")
        return out

    def write(self, path: str, header: str = "") -> None:
        """Write every span as gzipped CSV: name,start,end,parent,run."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            if header:
                fh.write(f"# {header}\n")
            fh.write("name,start,end,parent,run\n")
            for lay, s, e, p, r in zip(
                self.span_layer, self.span_start, self.span_end, self.span_parent, self.span_run
            ):
                fh.write(f"{LAYERS[lay]},{s:.9f},{e:.9f},{p},{r}\n")
