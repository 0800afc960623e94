"""The three benchmark workloads, their set-up and their correctness checks.

Each workload is a closed loop: one fixed-horizon solve at a time, driven
through fchsim's public API.  ``setup`` builds the grid, workspace, initial
condition and initial energy; ``run`` is the timed time-to-solution part;
``check`` returns the list of failed checks (empty when correct).

Checks on every run:

* the run raised nothing (checked by the caller);
* mass: |mean(phi_end) - mean(phi_0)| <= dynamics.MASS_RTOL * max(1, |mean(phi_0)|);
* separation: max |phi_end| < 1;
* energy decay on unforced runs: E(phi_end) <= E(phi_0);
* reference values recorded before any optimisation (references.json): each
  of E(phi_end) and, on manufactured-128, the L2 error against the exact
  solution must lie within

      dynamics.ENERGY_SLACK_FACTOR * tol_res * steps * max(1, |reference|)

  of its reference, where tol_res is the configured solver tolerance and
  steps the number of accepted steps.  That is the per-step energy slack the
  time integrators allow, accumulated over the run, so any change whose
  results move by less than the solver tolerance passes.

The spinodal initial condition seed is the benchmark seed modulo REF_BANK,
the number of seeds whose reference energy is recorded.  The manufactured
and pearling problems have no random input; the pearling seed still reaches
the command line's ``--seed``, which the run records in its manifest.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fchsim.cli as CLI
import fchsim.dynamics as D
import fchsim.energy as E
import fchsim.grid as G
import fchsim.output as O
import fchsim.potential as P
import fchsim.scenarios as S
import fchsim.solver as SV

REF_BANK = 16
REFERENCES_PATH = Path(__file__).parent / "references.json"


def reference(workload: str) -> dict:
    return json.loads(REFERENCES_PATH.read_text())[workload]


@dataclass
class State:
    grid: G.Grid
    pp: P.PhysParams
    cfg: SV.SolverConfig
    phi0: np.ndarray
    e0: float
    ws: G.SpectralWorkspace
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    records: list
    phi: np.ndarray
    phi0: np.ndarray


def _tolerance(cfg: SV.SolverConfig, steps: int, ref: float) -> float:
    return D.ENERGY_SLACK_FACTOR * cfg.tol_res * steps * max(1.0, abs(ref))


def _common_checks(st: State, out: Outcome, forced: bool, ref_energy: float) -> list[str]:
    failures = []
    m0 = float(np.mean(out.phi0))
    drift = abs(float(np.mean(out.phi)) - m0)
    if drift > D.MASS_RTOL * max(1.0, abs(m0)):
        failures.append(f"mass drift {drift:.3e}")
    sup = float(np.max(np.abs(out.phi)))
    if not sup < 1.0:
        failures.append(f"max|phi| = {sup!r} >= 1")
        return failures
    e_end = E.energy_total(out.phi, st.grid, st.pp).total
    if not forced and e_end > st.e0:
        failures.append(f"energy rose from {st.e0!r} to {e_end!r}")
    tol = _tolerance(st.cfg, len(out.records), ref_energy)
    if not abs(e_end - ref_energy) <= tol:
        failures.append(f"final energy {e_end!r} differs from reference {ref_energy!r} by more than {tol:.3e}")
    return failures


class Spinodal:
    """Acceptance spinodal configuration with adaptive time stepping."""

    name = "spinodal-128"
    steps = 60  # dt stays at dt_max, so t_end = 0.012

    def setup(self, seed: int, workdir: Path) -> State:
        grid = G.Grid.square(128)
        pp = P.PhysParams(eps=0.016, eta=8.0, lam=S.well_depth(0.9), p=1)
        ws = G.SpectralWorkspace(grid)
        phi0 = S.init_spinodal(grid, seed % REF_BANK)
        cfg = SV.SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-6, ls_tol=1e-4)
        e0 = E.energy_total(phi0, grid, pp).total
        return State(grid, pp, cfg, phi0, e0, ws, {"seed": seed % REF_BANK})

    def run(self, st: State, tracer) -> Outcome:
        acfg = D.AdaptiveConfig(dt_max=2e-4)
        records, phi = D.advance_adaptive(
            st.phi0, self.steps * acfg.dt_max, st.grid, st.pp, acfg, st.cfg, st.ws
        )
        return Outcome(records, phi, st.phi0)

    def check(self, st: State, out: Outcome) -> list[str]:
        ref = reference(self.name)["energy"][str(st.extra["seed"])]
        return _common_checks(st, out, forced=False, ref_energy=ref)


class Manufactured:
    """Convergence harness at n = 128: forced fixed steps, dt = 16 h^2."""

    name = "manufactured-128"
    steps = 64  # t_final = 64 * 16 h^2 = 0.0625

    def setup(self, seed: int, workdir: Path) -> State:
        scn = S.preset("convergence", n=128)
        grid = scn.grid
        ws = G.SpectralWorkspace(grid)
        phi0 = S.manufactured_state(grid, 0.0)
        e0 = E.energy_total(phi0, grid, scn.phys).total
        dt = 16.0 * grid.spacing[0] ** 2
        return State(grid, scn.phys, SV.SolverConfig(), phi0, e0, ws, {"dt": dt})

    def run(self, st: State, tracer) -> Outcome:
        grid, pp = st.grid, st.pp

        def forcing(t: float) -> np.ndarray:
            return S.manufactured_forcing(grid, t, pp, 4)

        records, phi = D.advance_fixed(
            st.phi0, st.extra["dt"], self.steps, grid, pp, st.cfg, st.ws, source_fn=forcing
        )
        return Outcome(records, phi, st.phi0)

    def mms_l2_err(self, st: State, out: Outcome) -> float:
        exact = S.manufactured_state(st.grid, self.steps * st.extra["dt"])
        return G.norm(out.phi - exact, st.grid, "l2")

    def check(self, st: State, out: Outcome) -> list[str]:
        refs = reference(self.name)
        failures = _common_checks(st, out, forced=True, ref_energy=refs["energy"])
        err = self.mms_l2_err(st, out)
        tol = _tolerance(st.cfg, len(out.records), refs["mms_l2_err"])
        if not abs(err - refs["mms_l2_err"]) <= tol:
            failures.append(f"L2 error {err!r} differs from reference {refs['mms_l2_err']!r} by more than {tol:.3e}")
        return failures


class PearlingCli:
    """``fchsim run`` on the pearling scenario at 64^2, one snapshot per step."""

    name = "pearling-cli-64"
    n = 64
    t_end = 5e-6

    def setup(self, seed: int, workdir: Path) -> State:
        scn = S.preset("pearling", n=self.n, seed=seed)
        ws = G.SpectralWorkspace(scn.grid)
        phi0 = scn.initial_condition()
        e0 = E.energy_total(phi0, scn.grid, scn.phys).total
        outdir = workdir / "pearling-run"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = [
            "run",
            "--set", "scenario=pearling",
            "--set", f"grid.nx={self.n}",
            "--set", f"grid.ny={self.n}",
            "--set", f"run.t_end={self.t_end!r}",
            "--set", "run.snap_every_steps=1",
            "--seed", str(seed),
            "--out", str(outdir),
        ]
        extra = {"argv": argv, "outdir": outdir}
        return State(scn.grid, scn.phys, SV.SolverConfig(), phi0, e0, ws, extra)

    def run(self, st: State, tracer) -> Outcome:
        """Runs the command; the tracer's advance_adaptive wrapper holds the
        in-memory (phi0, records, phi_end) of the command's run."""
        rc = CLI.main(st.extra["argv"])
        if rc != 0:
            raise RuntimeError(f"fchsim run exited with {rc}")
        phi0, records, phi_end = tracer.advance_calls[-1]
        return Outcome(records, phi_end, phi0)

    def check(self, st: State, out: Outcome) -> list[str]:
        failures = _common_checks(st, out, forced=False, ref_energy=reference(self.name)["energy"])
        outdir = st.extra["outdir"]
        rows = (outdir / "diagnostics.csv").read_text().splitlines()[1:]
        if len(rows) != len(out.records):
            failures.append(f"diagnostics.csv has {len(rows)} rows for {len(out.records)} steps")
        final, _ = O.read_snapshot(outdir / f"field_{out.records[-1].step:08d}.snap")
        if not np.array_equal(final, out.phi):
            failures.append("final snapshot differs from the final state")
        shutil.rmtree(outdir, ignore_errors=True)
        return failures


WORKLOADS = {w.name: w for w in (Spinodal(), Manufactured(), PearlingCli())}
