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
propagates at once, and its dt never grows.  Everything the loop carries
from one attempt to the next, the clock and the predictor's history among
it, lives in one private object; the loop itself holds only the attempt.
That clock is the only one: it counts t in whole steps from the last change
of dt, so a run at constant dt accumulates no round-off, and it hands each
step the time the record is stamped with.  Every step is a whole dt but a
last one that is genuinely shorter; a remainder within 1e-12 |t| of dt is
round-off and is taken at dt, landing exactly on the horizon.

Each solve is seeded with a predictor: the Lagrange extrapolation through
the last accepted states to the attempted time, none at the first step,
linear from two states, quadratic from three, and from four the quadratic
or the cubic, whichever predicted the last accepted step better.  That
choice is made at each accepted step from the four states before it: the
cubic seeds the next solve only if its max-norm miss of the accepted state
is below half the quadratic's.  The cubic is mostly chosen while the state
moves fast.  Late in a run the quadratic is: each state then carries solver
error near the tolerance, which the cubic weights amplify more (their
absolute sum is 15 at equal steps, the quadratic's 7).  Only accepted steps
enter the history and the choice, and the history starts empty at each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .grid import Grid, SpectralWorkspace, grad_norm_sq, norm
from .energy import chemical_potential, energy_total, var_concave
from .potential import PhysParams, PotentialDomainError, _sup
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
# the cubic predictor seeds the next solve only if it missed the accepted
# state by less than this fraction of the quadratic's miss
_CUBIC_ERROR_RATIO = 0.5


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
        if not 0 < self.dt_min <= self.dt_max < math.inf:
            raise ValueError(f"need 0 < dt_min <= dt_max < inf, got {self.dt_min}, {self.dt_max}")
        if not 0 < self.rate_hi < math.inf:
            # every attempt above dt_min would be rejected
            raise ValueError(f"rate_hi must be positive and finite, got {self.rate_hi}")
        if not -math.inf < self.rate_lo < self.rate_hi:
            raise ValueError(f"need -inf < rate_lo < rate_hi, got {self.rate_lo}, {self.rate_hi}")
        if self.dt_init is not None and not 0 < self.dt_init < math.inf:
            raise ValueError(f"dt_init must be positive and finite, got {self.dt_init}")


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
    concave: np.ndarray | None = None,
) -> tuple[np.ndarray, DiagnosticsRecord, np.ndarray]:
    """Advance one step and assert mass, separation and energy decay.

    Returns the new state, its record and var_concave of the new state, for
    the next step.  The record is stamped with ``t_new``, the step's end
    time on the caller's clock.  ``source`` adds an explicit forcing to the
    right-hand side (used by the manufactured-solution harness); forcing
    does work on the system, so the energy-decay assertion is skipped in
    that case.  ``prev_total`` avoids recomputing the current energy when
    the caller already has it; ``mass_ref`` is the conserved mean (defaults
    to the current one); ``phi_init`` seeds the solver iteration;
    ``concave`` may carry var_concave(phi), which is computed when not given.

    The step takes the new state's energy, var_convex and var_concave from
    the terms the solve returns; the ``fchsim.energy`` module docstring
    lists these hand-offs.
    """
    phi = np.asarray(phi, dtype=float)  # the step runs in float64
    mass_before = mass_ref if mass_ref is not None else float(np.mean(phi))
    if prev_total is None and source is None:
        prev_total = energy_total(phi, grid, pp).total

    if concave is None:
        concave = var_concave(phi, grid, pp)
    phi_new, report = psd_solve(
        phi, dt, grid, pp, cfg, ws, source=source, phi_init=phi_init, concave=concave
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

    eb = energy_total(phi_new, grid, pp, report.terms)
    mu = chemical_potential(report.terms.convex, concave)
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
    return phi_new, record, var_concave(phi_new, grid, pp, report.terms)


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


class _Trajectory:
    """What the time loop carries from one attempt to the next.

    ``states`` holds the last four accepted states, newest first, and
    ``gaps`` the dt between them.  ``order`` is the order of the predictor
    that seeds the next solve once four states exist, 2 or 3, and ``seed``
    the last attempt's seed, until ``accept``.  The clock is
    t = t_run + k * dt_run; it counts whole steps from the last change of
    dt, so a run at constant dt accumulates no round-off.  ``dt`` is the dt
    to try next, ``energy`` and ``concave`` the newest state's energy and
    var_concave, ``mass`` the conserved mean and ``records`` the accepted
    records.
    """

    def __init__(self, phi, t0, t_end, dt, energy, concave):
        self.states, self.gaps, self.order, self.seed = [phi], [], 2, None
        self.t, self.t_run, self.dt_run, self.k = t0, t0, None, 0
        self.t_end, self.dt, self.energy, self.concave = t_end, dt, energy, concave
        self.mass = float(np.mean(phi))
        self.records: list[DiagnosticsRecord] = []

    @property
    def phi(self) -> np.ndarray:
        """The newest accepted state."""
        return self.states[0]

    def attempts(self):
        """Each attempt's start time, dt, end time and solver seed, until t_end.

        The seed is ``_extrapolate`` of the accepted states to the attempt's
        end time: none, linear or quadratic while one, two or three states
        exist, and then the prediction of order ``order``, from the newest
        three states or all four.  Between two attempts the caller accepts
        the step or sets a new ``dt``.
        """
        # a remainder within round-off of dt, scaled by the size of t, is taken at dt
        slack = 1e-12 * max(abs(self.t), abs(self.t_end))
        while self.t < self.t_end:
            remaining = self.t_end - self.t
            dt_step = remaining if remaining < self.dt - slack else self.dt
            if dt_step != self.dt_run:
                self.t_run, self.dt_run, self.k = self.t, dt_step, 0
            final = remaining <= self.dt + slack
            t_new = self.t_end if final else self.t_run + (self.k + 1) * self.dt_run
            self.seed = self._predict(self.order, dt_step)
            yield self.t, dt_step, t_new, self.seed

    def _predict(self, order: int, tau: float) -> np.ndarray | None:
        """``_extrapolate`` of the newest ``order + 1`` accepted states to ``tau`` past them."""
        return _extrapolate(self.states[:order + 1], self.gaps[:order], tau)

    def accept(self, phi_new: np.ndarray, rec: DiagnosticsRecord, concave: np.ndarray) -> None:
        """Make ``phi_new``, stamped by ``rec``, the newest accepted state.

        ``concave`` is its var_concave, as the step returned it.  When the
        last attempt, the one accepted, had four states to extrapolate, the
        next step's order is chosen by how far the quadratic and the cubic
        predictions were from ``phi_new`` in the max norm: cubic only if its
        error is below ``_CUBIC_ERROR_RATIO`` times the quadratic's.
        """
        if len(self.states) == 4:
            # the seed is the prediction of this order; the other one is formed here
            other = 5 - self.order
            predictions = {self.order: self.seed, other: self._predict(other, rec.dt)}
            miss = np.empty_like(phi_new)
            quadratic, cubic = (_sup(np.subtract(phi_new, predictions[order], out=miss))
                                for order in (2, 3))
            self.order = 3 if cubic < _CUBIC_ERROR_RATIO * quadratic else 2
        self.seed = None
        self.t, self.k = rec.t, self.k + 1
        self.states = [phi_new, *self.states[:3]]
        self.gaps = [rec.dt, *self.gaps[:2]]
        self.energy, self.concave = rec.e_fch, concave
        self.records.append(rec)


def _advance(phi, t0, t_end, grid, pp, acfg, cfg, ws, source_fn, sink):
    """The time loop of both drivers: accepted steps from t0 to t_end."""
    phi = np.asarray(phi, dtype=float)  # every state of the run is float64
    dt = min(acfg.dt_init if acfg.dt_init is not None else acfg.dt_max, acfg.dt_max)
    run = _Trajectory(phi, t0, t_end, max(dt, acfg.dt_min), energy_total(phi, grid, pp).total,
                      var_concave(phi, grid, pp))
    for t, dt_step, t_new, phi_init in run.attempts():
        at_floor = dt_step <= acfg.dt_min
        source = source_fn(t) if source_fn is not None else None
        try:
            # inadmissible predictions are dropped inside the solver
            phi_new, rec, concave_new = step(
                run.phi, dt_step, grid, pp, cfg, ws, t_new=t_new, index=len(run.records) + 1,
                source=source, prev_total=run.energy, mass_ref=run.mass, phi_init=phi_init,
                concave=run.concave,
            )
        except (SolverDivergedError, LineSearchError, PotentialDomainError):
            if at_floor:
                raise
            rejected = True
        else:
            r_energy = abs(rec.e_fch - run.energy)
            r_phase = norm(phi_new - run.phi, grid, "l2")
            rejected = max(r_energy, r_phase) > acfg.rate_hi and not at_floor
        if rejected:
            run.dt = max(dt_step / 2, acfg.dt_min)
            continue
        run.accept(phi_new, rec, concave_new)
        if sink is not None:
            sink(rec, phi_new)
        if r_energy < acfg.rate_lo and r_phase < acfg.rate_lo:
            run.dt = min(run.dt * 2, acfg.dt_max)
    return run.records, run.phi


def _extrapolate(
    states: list[np.ndarray], gaps: list[float], tau: float
) -> np.ndarray | None:
    """Lagrange extrapolation of ``states`` to ``tau`` past the newest.

    ``states`` holds one to four states, newest first, and ``gaps`` the
    time between consecutive ones (h1 = t_n - t_{n-1}, h2 = t_{n-1} - t_{n-2},
    ...).  With a_j the age of state j (a_0 = 0, a_j = h1 + ... + hj), its
    weight is the Lagrange basis polynomial prod_{i != j} (tau + a_i) /
    (a_i - a_j).  One state gives None.
    """
    if len(states) == 1:
        return None
    ages = [0.0, *accumulate(gaps)]
    weights = [math.prod((tau + a_i) / (a_i - a_j) for i, a_i in enumerate(ages) if i != j)
               for j, a_j in enumerate(ages)]
    out = weights[0] * states[0]
    work = np.empty_like(out)
    for w, state in zip(weights[1:], states[1:]):
        out += np.multiply(state, w, out=work)
    return out
