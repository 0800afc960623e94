"""The benchmark's own test: short traced runs of every workload.

    python3 -m pytest perfbench/test_perfbench.py

Every traced binding must be called by at least one workload, so a refactor
that moves a function out from under its binding fails here instead of
reading as a zero in the per-layer metrics.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from child import import_fchsim, one_run  # noqa: E402
from run import ROOT, WORKDIR  # noqa: E402

import_fchsim()

import fchsim.grid  # noqa: E402
import fchsim.solver  # noqa: E402
from spans import BINDINGS, LIGHT_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Short horizons: a few steps each, enough to reach every code path.
SHORT = {
    "spinodal-128": {"steps": 2},
    "manufactured-128": {"steps": 2},
    "pearling-cli-64": {"t_end": 3e-8},
}


@pytest.fixture(scope="module")
def traced():
    WORKDIR.mkdir(exist_ok=True)
    results = {}
    for name, horizon in SHORT.items():
        wl = type(WORKLOADS[name])()
        for key, value in horizon.items():
            setattr(wl, key, value)
        with Tracer() as tracer:
            tracer.active = True
            with tracer.span():
                st = wl.setup(1, WORKDIR)
                out = wl.run(st, tracer)
            tracer.active = False
            results[name] = (tracer, wl, st, out)
    yield results
    shutil.rmtree(WORKDIR / "pearling-run", ignore_errors=True)


def test_every_binding_is_called(traced):
    hit = set()
    for tracer, *_ in traced.values():
        hit |= {f"{m}.{a}" for (m, a, _), n in zip(tracer.bindings, tracer.hits) if n}
    missing = [f"{m}.{a}" for m, a, _ in BINDINGS if f"{m}.{a}" not in hit]
    assert not missing, f"bindings no workload calls: {missing}"


@pytest.mark.parametrize("name", list(SHORT))
def test_workload_reports_its_layers(traced, name):
    tracer, wl, st, out = traced[name]
    metrics = tracer.layer_metrics()
    expected = {
        "spinodal-128": ["solver.line_eval.calls", "scenarios.init.calls"],
        "manufactured-128": ["scenarios.forcing.calls", "grid.fft.calls"],
        "pearling-cli-64": ["output.snapshot.calls", "output.diagnostics.calls"],
    }[name]
    for key in expected + ["solver.psd_solve.calls", "grid.laplacian.calls"]:
        assert metrics[key][0] > 0, key
    assert metrics["dynamics.accepted"][0] == len(out.records)
    assert metrics["solver.psd_iters"][0] >= metrics["dynamics.attempts"][0] > 0
    assert 0.0 < metrics["trace.coverage"][0] <= 1.0


def test_uninstall_restores_bindings():
    before = (fchsim.grid.laplacian, fchsim.solver.LineObjective.__call__)
    with Tracer():
        assert fchsim.grid.laplacian is not before[0]
    assert (fchsim.grid.laplacian, fchsim.solver.LineObjective.__call__) == before


def test_missing_binding_fails_loudly(monkeypatch):
    monkeypatch.delattr(fchsim.solver, "precond_solve")
    with pytest.raises(LookupError, match="precond_solve"):
        Tracer().install()


def test_benchmark_json_matches_what_the_runs_report(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    declared = {m["name"] for m in spec["per_layer"]}
    traced_names = set(traced["spinodal-128"][0].layer_metrics()) | {"trace.overhead_frac"}
    micro_names = {n for n in declared if re.search(r"\.n(128|256|512)$", n)}
    assert declared == traced_names | micro_names


@pytest.mark.parametrize("name", list(SHORT))
def test_calibrated_segments_cover_every_step(name):
    wl = type(WORKLOADS[name])()
    for key, value in SHORT[name].items():
        setattr(wl, key, value)
    with Tracer(LIGHT_LAYERS, calibrate=True) as tracer:
        # The reference checks fail on these short horizons; only the
        # timeline matters here.
        _, _, _, out = one_run(wl, 1, WORKDIR, tracer)
    assert out is not None
    segments = tracer.segments()
    assert [kind for kind, _, _ in segments].count("step") == len(out.records)
    assert [kind for kind, _, _ in segments[-1:]] == ["end"]
    assert all(sec >= 0.0 and speed > 0.0 for _, sec, speed in segments)
    shutil.rmtree(WORKDIR / "pearling-run", ignore_errors=True)
