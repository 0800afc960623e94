"""Per-layer microbenchmarks at 128^2, 256^2 and 512^2 on a fixed field.

The field is the admissible state 0.2 + 0.6 sin(2 pi x) cos(2 pi y) with the
acceptance spinodal physics (eps = 0.016, eta = 8) and solver settings; the
search direction is the first preconditioned steepest-descent direction from
that state.  Each kernel is called until 0.15 s have passed (at least five
calls) and the median call time is reported in microseconds.  Stencil bytes
are computed from array sizes (one read, one write), not measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import fchsim.energy as E
import fchsim.grid as G
import fchsim.potential as P
import fchsim.scenarios as S
import fchsim.solver as SV

SIZES = (128, 256, 512)
DT = 2e-4
MIN_SECONDS = 0.15
MIN_CALLS = 5


def _median_us(fn) -> float:
    fn()  # warm-up: fills the preconditioner symbol cache
    times = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def run_micro() -> dict[str, tuple[float, str]]:
    pp = P.PhysParams(eps=0.016, eta=8.0, lam=S.well_depth(0.9), p=1)
    cfg = SV.SolverConfig(theta1=8.0, theta2=100.0, tol_res=1e-6, ls_tol=1e-4)
    out: dict[str, tuple[float, str]] = {}
    for n in SIZES:
        grid = G.Grid.square(n)
        ws = G.SpectralWorkspace(grid)
        x, y = grid.mesh()
        phi = 0.2 + 0.6 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        f = E.rhs_explicit(phi, DT, grid, pp)
        r = f - E.nonlinear_map(phi, DT, grid, pp)
        d = SV.precond_solve(r, DT, pp, cfg, ws)
        objective = SV.LineObjective(phi, d, f, DT, grid, pp)
        alpha = 0.5 * min(1.0, SV.admissible_step_cap(phi, d, cfg.ls_margin))

        kernels = {
            "grid.laplacian": lambda: G.laplacian(phi, grid),
            "energy.nonlinear_map": lambda: E.nonlinear_map(phi, DT, grid, pp),
            "solver.precond_solve": lambda: SV.precond_solve(r, DT, pp, cfg, ws),
            "solver.line_setup": lambda: SV.LineObjective(phi, d, f, DT, grid, pp),
            "solver.line_eval": lambda: objective(alpha),
            "solver.step_cap": lambda: SV.admissible_step_cap(phi, d, cfg.ls_margin),
            "energy.energy_total": lambda: E.energy_total(phi, grid, pp),
        }
        for name, fn in kernels.items():
            out[f"{name}.us.n{n}"] = (_median_us(fn), "us")
        lap_bytes = 2 * phi.nbytes
        out[f"grid.laplacian.bytes_computed.n{n}"] = (lap_bytes, "B")
        out[f"grid.laplacian.GBps_computed.n{n}"] = (
            lap_bytes / (1e3 * out[f"grid.laplacian.us.n{n}"][0]),
            "GB/s",
        )
    return out
