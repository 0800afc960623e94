"""Time integration drivers with runtime checks of the scheme guarantees.

Every accepted step re-verifies the three structural properties the scheme
provides by construction: the mean of the phase field is conserved, the state
stays strictly inside (-1, 1), and the energy does not increase (within a
small multiple of the solver tolerance).  A violation raises
:class:`StabilityViolationError` naming the offending quantity, since it can
only come from a solver or implementation defect.

The adaptive driver monitors how much one accepted step changed the energy
and the phase field,

    r_E = |E(phi_new) - E(phi_old)|,      r_phi = ||phi_new - phi_old||_2,

redoes the step with a halved dt when either exceeds ``rate_hi``, and doubles
dt (capped at ``dt_max``) when both fall below ``rate_lo``; the factors are
fixed.  Monitoring the per-step change rather than the per-time rate keeps
the controller well-posed for stiff transients, whose intrinsic time rates
exceed any fixed bound at every usable dt.

Shrinking clamps at ``dt_min`` and a step at the floor is accepted even when
its change exceeds the bound: an unprepared state sheds its excess energy in
a single implicit step no matter how small dt is (the scheme jumps to the
local quasi-equilibrium), so rejecting at the floor would deadlock every
experiment whose initial data is not already a discrete equilibrium.

A solve that fails (:class:`SolverDivergedError`, :class:`LineSearchError`
or :class:`PotentialDomainError`) is a rejected attempt too: it is redone at
the shrunk dt, and the error propagates only from an attempt at ``dt_min``.
A :class:`StabilityViolationError` always propagates.

Both drivers run one loop.  A fixed run is the adaptive loop with
``dt_min == dt_max == dt``: its rate bound never rejects, a failed solve
propagates at once, and its dt never grows.  The loop is the only clock:
it counts t in whole steps from the last change of dt, so a run at
constant dt accumulates no round-off, and it hands each step the time the
record is stamped with.  Every step is a whole dt but a last one that is
genuinely shorter; a remainder within 1e-12 |t| of dt is round-off and is
taken at dt, landing exactly on the horizon.

Each solve is seeded with a predictor: the quadratic Lagrange extrapolation
through the last three accepted states to the attempted time (linear while
only two exist, none at the first step).  Only accepted steps enter its
history, which starts empty at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .grid import Grid, SpectralWorkspace, grad_norm_sq, norm
from .energy import chemical_potential, energy_total
from .potential import PhysParams, PotentialDomainError
from .solver import LineSearchError, SolverConfig, SolverDivergedError, psd_solve

__all__ = [
    "AdaptiveConfig",
    "DiagnosticsRecord",
    "StabilityViolationError",
    "step",
    "advance_fixed",
    "advance_adaptive",
]

MASS_RTOL = 1e-10
ENERGY_SLACK_FACTOR = 10.0


class StabilityViolationError(RuntimeError):
    """A structural property of the scheme failed at runtime."""

    def __init__(self, quantity: str, value: float, bound: float, step_index: int):
        super().__init__(
            f"{quantity} = {value:.17g} violates bound {bound:.17g} at step {step_index}"
        )
        self.quantity = quantity
        self.value = value
        self.bound = bound


@dataclass(frozen=True)
class AdaptiveConfig:
    """Step-size controller bounds."""

    dt_max: float = 2e-3
    dt_min: float = 1e-8
    rate_hi: float = 1e-1
    rate_lo: float = 1e-3
    dt_init: Optional[float] = None

    def __post_init__(self):
        if not 0 < self.dt_min <= self.dt_max:
            raise ValueError(f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}")
        if not self.rate_lo < self.rate_hi:
            raise ValueError(f"need rate_lo < rate_hi, got {self.rate_lo}, {self.rate_hi}")
        if self.dt_init is not None and not self.dt_init > 0:
            raise ValueError(f"dt_init must be positive, got {self.dt_init}")


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Per-step diagnostics streamed to the output sink."""

    step: int
    t: float
    dt: float
    e_fch: float
    e_ch: float
    e_pfw: float
    mass: float
    phi_min: float
    phi_max: float
    h2_norm: float
    grad_mu: float
    psd_iters: int
    residual: float


def step(
    phi: np.ndarray,
    dt: float,
    grid: Grid,
    pp: PhysParams,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
    *,
    t_new: float = 0.0,
    index: int = 0,
    source: np.ndarray | None = None,
    prev_total: float | None = None,
    mass_ref: float | None = None,
    phi_init: np.ndarray | None = None,
) -> tuple[np.ndarray, DiagnosticsRecord]:
    """Advance one step and assert mass, separation and energy decay.

    The record is stamped with ``t_new``, the step's end time on the
    caller's clock.  ``source`` adds an explicit forcing to the right-hand
    side (used by the manufactured-solution harness); forcing does work on
    the system, so the energy-decay assertion is skipped in that case.
    ``prev_total`` avoids recomputing the current energy when the caller
    already has it; ``mass_ref`` is the conserved mean (defaults to the
    current one); ``phi_init`` seeds the solver iteration.
    """
    mass_before = mass_ref if mass_ref is not None else float(np.mean(phi))
    if prev_total is None and source is None:
        prev_total = energy_total(phi, grid, pp).total

    phi_new, report = psd_solve(
        phi, dt, grid, pp, cfg, ws, source=source, phi_init=phi_init
    )

    phi_min, phi_max = float(np.min(phi_new)), float(np.max(phi_new))
    sup = max(-phi_min, phi_max)
    if sup >= 1.0:
        raise StabilityViolationError("sup norm of phi", sup, 1.0, index)

    mass_after = float(np.mean(phi_new))
    mass_bound = MASS_RTOL * max(1.0, abs(mass_before))
    if abs(mass_after - mass_before) > mass_bound:
        raise StabilityViolationError(
            "mass drift", abs(mass_after - mass_before), mass_bound, index
        )

    eb = energy_total(phi_new, grid, pp)
    mu = chemical_potential(phi_new, phi, grid, pp)
    grad_mu = float(np.sqrt(grad_norm_sq(mu, grid)))
    if source is None:
        slack = ENERGY_SLACK_FACTOR * cfg.tol_res * max(1.0, abs(prev_total))
        decay_lhs = eb.total + dt * grad_mu**2
        if decay_lhs > prev_total + slack:
            raise StabilityViolationError(
                "energy increase", decay_lhs - prev_total, slack, index
            )

    record = DiagnosticsRecord(
        step=index,
        t=t_new,
        dt=dt,
        e_fch=eb.total,
        e_ch=eb.cahn_hilliard,
        e_pfw=eb.willmore,
        mass=mass_after,
        phi_min=phi_min,
        phi_max=phi_max,
        h2_norm=norm(phi_new, grid, "h2"),
        grad_mu=grad_mu,
        psd_iters=report.iterations,
        residual=report.residual,
    )
    return phi_new, record


def advance_fixed(
    phi: np.ndarray,
    dt: float,
    n_steps: int,
    grid: Grid,
    pp: PhysParams,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
    *,
    t0: float = 0.0,
    source_fn: Callable[[float], np.ndarray] | None = None,
    sink: Callable[[DiagnosticsRecord, np.ndarray], None] | None = None,
) -> tuple[list[DiagnosticsRecord], np.ndarray]:
    """Exactly ``n_steps`` steps of exactly dt from ``t0``.

    This is the adaptive loop with its controller pinned at dt
    (``dt_min == dt_max == dt``): the rate bound never rejects, a failed
    solve propagates at once, and every solve is seeded by the predictor.
    ``source_fn(t)`` supplies the forcing for manufactured-solution runs,
    evaluated at the step start t0 + k dt (explicit source placement,
    first-order consistent like the scheme itself), which is record k's t.
    ``sink`` receives every accepted record together with the new state.
    """
    _require(isinstance(n_steps, Integral) and n_steps >= 0, "n_steps", n_steps,
             "a nonnegative integer")
    _require(0 < dt < math.inf, "dt", dt, "positive and finite")
    _require(math.isfinite(t0), "t0", t0, "finite")
    pinned = AdaptiveConfig(dt_max=dt, dt_min=dt)
    return _advance(phi, t0, t0 + n_steps * dt, grid, pp, pinned, cfg, ws, source_fn, sink)


def advance_adaptive(
    phi: np.ndarray,
    t_end: float,
    grid: Grid,
    pp: PhysParams,
    acfg: AdaptiveConfig,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
    *,
    sink: Callable[[DiagnosticsRecord, np.ndarray], None] | None = None,
) -> tuple[list[DiagnosticsRecord], np.ndarray]:
    """Adaptive run to ``t_end``; the last step lands exactly there."""
    _require(0 <= t_end < math.inf, "t_end", t_end, "nonnegative and finite")
    return _advance(phi, 0.0, t_end, grid, pp, acfg, cfg, ws, None, sink)


def _require(ok: bool, name: str, value, need: str) -> None:
    """Raise a ValueError naming the driver argument ``name`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {need}, got {value!r}")


def _advance(phi, t0, t_end, grid, pp, acfg, cfg, ws, source_fn, sink):
    """The time loop of both drivers: accepted steps from t0 to t_end."""
    records: list[DiagnosticsRecord] = []
    mass_ref = float(np.mean(phi))
    prev_total = energy_total(phi, grid, pp).total
    dt = min(acfg.dt_init if acfg.dt_init is not None else acfg.dt_max, acfg.dt_max)
    dt = max(dt, acfg.dt_min)
    # the only clock: t = t_run + k * dt_run counts whole steps from the last
    # change of dt, so a run at constant dt accumulates no round-off.  A
    # remainder within round-off of dt, scaled by the size of t, is taken at dt
    slack = 1e-12 * max(abs(t0), abs(t_end))
    t = t_run = t0
    dt_run, k = None, 0
    # the last three accepted states, newest first, and the dt between them
    states: list[np.ndarray] = [phi]
    gaps: list[float] = []
    while t < t_end:
        remaining = t_end - t
        final = remaining <= dt + slack
        dt_step = remaining if remaining < dt - slack else dt
        at_floor = dt_step <= acfg.dt_min
        if dt_step != dt_run:
            t_run, dt_run, k = t, dt_step, 0
        t_new = t_end if final else t_run + (k + 1) * dt_run

        # The extrapolated accepted states seed the solver; inadmissible
        # predictions are dropped inside the solver.
        phi_init = _extrapolate(states, gaps, dt_step)
        source = source_fn(t) if source_fn is not None else None

        try:
            phi_new, rec = step(
                phi, dt_step, grid, pp, cfg, ws, t_new=t_new, index=len(records) + 1,
                source=source, prev_total=prev_total, mass_ref=mass_ref, phi_init=phi_init,
            )
        except (SolverDivergedError, LineSearchError, PotentialDomainError):
            if at_floor:
                raise
            dt = max(dt_step / 2, acfg.dt_min)
            continue
        r_energy = abs(rec.e_fch - prev_total)
        r_phase = norm(phi_new - phi, grid, "l2")

        if max(r_energy, r_phase) > acfg.rate_hi and not at_floor:
            dt = max(dt_step / 2, acfg.dt_min)
            continue

        t, k = t_new, k + 1
        phi = phi_new
        states = [phi, *states[:2]]
        gaps = [dt_step, *gaps[:1]]
        prev_total = rec.e_fch
        records.append(rec)
        if sink is not None:
            sink(rec, phi)
        if r_energy < acfg.rate_lo and r_phase < acfg.rate_lo:
            dt = min(dt * 2, acfg.dt_max)
    return records, phi


def _extrapolate(
    states: list[np.ndarray], gaps: list[float], tau: float
) -> np.ndarray | None:
    """Lagrange extrapolation of ``states`` to ``tau`` past the newest.

    ``states`` holds one to three states, newest first, and ``gaps`` the
    time between consecutive ones (h1 = t_n - t_{n-1}, h2 = t_{n-1} - t_{n-2}).
    One state gives None, two the line through them, three the parabola.
    """
    if len(states) == 1:
        return None
    phi, phi1 = states[0], states[1]
    h1 = gaps[0]
    if len(states) == 2:
        return phi + (tau / h1) * (phi - phi1)
    phi2, h2 = states[2], gaps[1]
    w0 = (tau + h1) * (tau + h1 + h2) / (h1 * (h1 + h2))
    w1 = -tau * (tau + h1 + h2) / (h1 * h2)
    w2 = tau * (tau + h1) / ((h1 + h2) * h2)
    out = w0 * phi
    out += w1 * phi1
    out += w2 * phi2
    return out
