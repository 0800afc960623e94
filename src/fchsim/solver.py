"""Preconditioned nonlinear conjugate gradient solver for the per-step system.

One time step solves N(phi) = f for the new state, where N is strongly
monotone thanks to the convexity of the implicit energy part.  The solver
iterates

    L z_k = r_k - mean(r_k),      r_k = f - N(phi_k),
    d_k = z_k + beta_k d_{k-1},
    phi_{k+1} = phi_k + alpha_k d_k,

with the constant-coefficient preconditioner

    L = 1/dt - eps^4 lap^3 + eps^2 theta1 lap^2
        - (lam^2 + lam eps^p eta + theta2) lap,

inverted exactly by FFT (its Fourier symbol is strictly positive), the
Polak-Ribiere+ coefficient

    beta_k = max(0, <z_k, r_k - r_{k-1}> / <z_{k-1}, r_{k-1}>),

and alpha_k the root of the scalar line function

    g(alpha) = <N(phi_k + alpha d_k) - f, d_k>.

The iteration restarts with the preconditioned steepest descent (PSD)
direction d_k = z_k on its first iteration, whenever <z_k, r_k> exceeds
<z_{k-1}, r_{k-1}> (the preconditioned residual grew), and whenever d_k is
not a descent direction (g(0) >= 0).  The growth restart keeps iterates from
being driven against the +-1 walls by stale conjugate directions.  With
d = z, g(0) = -<L z, z> < 0 whenever unconverged.  g increases and is
nearly linear, so the search first tries the previous step length (1 on the
first iteration) and, while g stays negative, extrapolates along the chord
through the last two points, starting from (0, g(0)), to at most four times
the last trial; a chord that does not rise doubles the trial instead.  Once
the root is bracketed, Illinois regula falsi (Dowell & Jarratt 1971) closes
in on it: false-position cuts, with the g of an end halved when that end is
kept twice in a row.  Any trial with |g| <= max(ls_tol |g(0)|, floor) ends
the search, on either side of the root.  The floor is the round-off of the
evaluation itself, 16 eps_machine times the summed magnitudes of the terms g
adds up, much as ``psd_solve`` floors tol_res.  Every trial step is capped
so the iterate keeps a fraction of its current distance to the pure states
+-1, where the logarithmic terms blow up; if the root lies beyond that cap
the capped step is taken (it still decreases the objective) and later
iterations re-center.

Each iterate phi carries its LinearTerms (lap^2 phi, lap phi, the face
differences D phi per axis and gsq = sum_axis avg(|D phi|^2), see
``fchsim.energy``), built from phi itself, so every residual is the one
from scratch.  Each iteration, ``psd_solve`` builds a ``LineObjective`` on
them: it reads its phi side from the terms and computes only the d side
(lap d, lap^2 d, D d and the gsq coefficients B and C).  ``line_minimize``
finds alpha on that objective and moves nothing; ``psd_solve`` then steps
phi and builds the terms of the new iterate into the arrays of the old
ones.  The line evaluation computes beta and beta' at the point it
evaluates with the kernels of ``potential.beta`` and ``beta_prime``; when
the step taken is the last point evaluated (nearly always), ``psd_solve``
hands them to the new terms, and the next residual takes them instead of
computing them.

The first objective of a solve allocates its fields (15 in 2D); each later
one takes over the fields of the spent one, in the same roles.  The beta pair
the spent objective handed to the terms is among them: the next residual has
read it by the time the next objective is built, and that objective drops it
from the terms, with the residual's var_convex.

What the solve takes from the step and hands back to it is listed in the
``fchsim.energy`` module docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .grid import Grid, SpectralWorkspace, _dot, cell_avg, face_avg, face_diff, laplacian, norm
from .energy import LinearTerms, linear_terms, nonlinear_map, rhs_explicit
from .potential import PhysParams, PotentialDomainError, admissible, require_admissible
from .potential import _beta, _beta_prime, _sup

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverDivergedError",
    "LineSearchError",
    "precond_symbol",
    "symbol_rms",
    "precond_solve",
    "admissible_step_cap",
    "LineObjective",
    "line_minimize",
    "psd_solve",
]


# Round-off of one line evaluation, in units of the magnitude of its terms.
_FLOOR_ULPS = 16.0 * float(np.finfo(float).eps)


class SolverDivergedError(RuntimeError):
    """The descent iteration hit its cap without meeting the tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class LineSearchError(RuntimeError):
    """The line function could not be bracketed within the evaluation budget."""


@dataclass(frozen=True)
class SolverConfig:
    """Descent solver tuning.

    theta1/theta2 shape the preconditioner symbol; tol_res is the relative
    residual target ||N(phi) - f||_2 <= tol_res * max(1, ||f||_2); ls_tol is
    the relative root tolerance on |g| and ls_margin the fraction of the
    current separation that trial steps must keep.
    """

    theta1: float = 1.0
    theta2: float = 1.0
    tol_res: float = 1e-9
    max_iter: int = 500
    ls_tol: float = 1e-10
    ls_max: int = 100
    ls_margin: float = 1e-4

    def __post_init__(self):
        for name in ("tol_res", "ls_tol"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("max_iter", "ls_max"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if not 0.0 < self.ls_margin < 1.0:
            raise ValueError(f"ls_margin must lie in (0, 1), got {self.ls_margin}")
        for name in ("theta1", "theta2"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite, got {value}")


@dataclass(frozen=True)
class SolveReport:
    """Counters of one solve.

    ``restarts`` counts the iterations that took the steepest descent
    direction z_k (the first one included); ``ls_exhausted`` counts the line
    searches that ran out of their evaluation budget inside a valid bracket
    and took the best point seen instead of a root within ``ls_tol``.
    ``terms`` holds the LinearTerms of the returned state, built from it,
    with beta, beta_prime and convex set by the residual that ended the
    solve (see ``fchsim.energy`` for who reads them).
    """

    iterations: int
    residual: float
    line_search_evals: int
    margin: float
    restarts: int
    ls_exhausted: int
    terms: LinearTerms = field(repr=False, compare=False)


def precond_symbol(
    ws: SpectralWorkspace, dt: float, pp: PhysParams, cfg: SolverConfig
) -> np.ndarray:
    """Positive Fourier symbol of the preconditioner for this step size."""
    key = (dt, pp.eps, pp.lam, pp.eps_p_eta, cfg.theta1, cfg.theta2)
    if ws._symbol is not None and ws._symbol[0] == key:
        return ws._symbol[1]
    s = ws.sigma
    sym = (
        1.0 / dt
        + pp.eps**4 * s**3
        + pp.eps**2 * cfg.theta1 * s**2
        + (pp.lam**2 + pp.lam * pp.eps_p_eta + cfg.theta2) * s
    )
    ws._symbol = (key, sym)
    return sym


def symbol_rms(ws: SpectralWorkspace, dt: float, pp: PhysParams, cfg: SolverConfig) -> float:
    """rms of the preconditioner symbol, the scale of ``psd_solve``'s tolerance floor.

    Overflow gives inf, without a warning.  dt = inf drops the 1/dt term,
    giving the least value that any step size reaches on this grid.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(np.mean(precond_symbol(ws, dt, pp, cfg) ** 2)))


def precond_solve(
    r: np.ndarray,
    dt: float,
    pp: PhysParams,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
) -> np.ndarray:
    """Solve L d = r - mean(r); the result is mean-zero to round-off."""
    sym = precond_symbol(ws, dt, pp, cfg)
    # zeroing the k = 0 coefficient removes the mean of r
    rhat = ws.forward(r)
    rhat[(0,) * rhat.ndim] = 0.0
    rhat /= sym
    d = ws.inverse(rhat)
    d -= np.mean(d)
    return d


def admissible_step_cap(phi: np.ndarray, d: np.ndarray, margin_frac: float) -> float:
    """Largest alpha keeping ||phi + alpha d||_inf <= 1 - margin_frac*(1 - ||phi||_inf).

    Each entry moves toward the wall copysign(bound, d).  Since bound > |phi|,
    the numerator copysign(bound, d) - phi has d's sign, so an entry with
    d = +0 or -0 gives +inf and never caps the step.
    """
    bound = 1.0 - margin_frac * (1.0 - _sup(phi))
    with np.errstate(divide="ignore"):
        caps = (np.copysign(bound, d) - phi) / d
    return float(np.min(caps))


class LineObjective:
    """Evaluator for g(alpha) = <N(phi + alpha d) - f, d>.

    All stencil quantities that are linear or quadratic in alpha are
    precomputed once, so one evaluation costs only the pointwise potential
    terms plus a couple of face averages.  Inner products against the
    divergence-form terms are moved onto faces by summation-by-parts.  The
    phi side comes from ``terms``, the LinearTerms of phi (built from phi
    when not given); only the d side is computed here.  Evaluations work in
    place in five scratch fields of the objective; two of them,
    ``beta_pair``, keep beta and beta' of phi + at d, where ``at`` is the
    point last evaluated (None until an evaluation returns).  ``floor``
    holds the round-off of the value last returned: 16 eps_machine times
    the summed magnitudes of the terms it adds up.

    Building the objective drops the beta pair and var_convex of ``terms``.
    Its fields (15 in 2D) are allocated, or taken over from the private
    ``_spent``: a spent objective on the same grid, whose fields nothing
    reads any more but the pair it handed to ``terms``.
    """

    def __init__(
        self,
        phi: np.ndarray,
        d: np.ndarray,
        f_rhs: np.ndarray,
        dt: float,
        grid: Grid,
        pp: PhysParams,
        terms: LinearTerms | None = None,
        *,
        _spent: LineObjective | None = None,
    ):
        if terms is None:
            terms = linear_terms(phi, grid)
        self.phi = phi
        self.d = d
        self.grid = grid
        self.pp = pp
        # five scratch fields, B, C, lap d, lap^2 d and, per axis, D d, p and q
        if _spent is None:
            self._fields = [np.empty(phi.shape) for _ in range(9 + 3 * grid.ndim)]
        else:
            self._fields = _spent._fields
        field = iter(self._fields).__next__
        self._work = [field() for _ in range(5)]
        self.beta_pair = self._work[3:]
        self.at = None
        # The evaluation scratch is free until the first evaluation, and the
        # Laplacians work in B and C, which are written last.
        work, spare = self._work[2:4]
        B, C = field(), field()
        vol = grid.cell_volume
        c_quad = pp.lam * (pp.lam + pp.eps_p_eta)
        lap_d = laplacian(d, grid, out=field(), scratch=(B, C))
        bilap_d = laplacian(lap_d, grid, out=field(), scratch=(B, C))
        # <N(phi_a), d> linear-in-alpha pieces: phi_a/dt and the linear
        # part of var_convex hit with the Laplacian moved onto d.
        self._lin0 = vol * (
            _dot(phi, d) / dt
            - pp.eps**4 * _dot(terms.bilap, lap_d)
            - c_quad * _dot(phi, lap_d)
        ) - vol * _dot(f_rhs, d)
        self._lin1 = vol * (
            _dot(d, d) / dt - pp.eps**4 * _dot(bilap_d, lap_d) - c_quad * _dot(d, lap_d)
        )
        self.lap_d = lap_d
        # Face data for the nonlinear gradient terms: D d, and the products
        # of D phi and D d with D(lap d) the per-axis face inner products need.
        dds = [face_diff(d, grid, a, out=field()) for a in range(grid.ndim)]
        self._face_p = []
        self._face_q = []
        for a in range(grid.ndim):
            dlap = face_diff(lap_d, grid, a, out=field())
            self._face_p.append(np.multiply(terms.dphi[a], dlap, out=field()))
            dlap *= dds[a]
            self._face_q.append(dlap)
        # avg(|D phi_a|^2) = A + alpha (2 B + alpha C), summed over axes.
        for a, dd in enumerate(dds):
            for total, factor in ((B, terms.dphi[a]), (C, dd)):
                np.multiply(factor, dd, out=work)
                if a == 0:
                    cell_avg(work, grid, a, out=total)
                else:
                    total += cell_avg(work, grid, a, out=spare)
        B *= 2.0
        self._gsq_a, self._gsq_2b, self._gsq_c = terms.gsq, B, C
        self._vol = vol
        self.evals = 0
        self.floor = 0.0
        # a pair a spent objective handed to the terms is this one's scratch
        # now, and var_convex of phi is read by no one after the residual
        terms.beta = terms.beta_prime = terms.convex = None

    def __call__(self, alpha: float) -> float:
        pp = self.pp
        self.evals += 1
        self.at = None
        phi_a, avg, work, b, b1 = self._work
        np.multiply(self.d, alpha, out=phi_a)
        phi_a += self.phi
        if not admissible(phi_a):
            raise PotentialDomainError(
                f"line-search trial alpha = {alpha!r} left the phase domain"
            )
        _beta_prime(phi_a, b1)
        _beta(phi_a, b, work)
        # Pointwise var_convex terms against lap(d): b b1 + eps^2 b2 gsq
        # = b1 (b + eps^2 phi_a b1 gsq), with gsq = A + alpha (2 B + alpha C),
        # built in place in ``point``.
        point = np.multiply(self._gsq_c, alpha, out=work)
        point += self._gsq_2b
        point *= alpha
        point += self._gsq_a
        phi_a *= pp.eps**2
        point *= phi_a
        point *= b1
        point += b
        point *= b1
        pointwise = -self._vol * _dot(point, self.lap_d)
        # Divergence term moved onto faces: <lap d, d_a(avg(b1) Dphi_a)>
        # = -[D_a lap d, avg(b1) Dphi_a]; it enters var_convex with factor -2,
        # and var_convex enters g negated, giving -2 overall.  Per axis the
        # face sum is [avg(b1), p_a] + alpha [avg(b1), q_a].
        face_sum = 0.0
        for a in range(self.grid.ndim):
            face_avg(b1, self.grid, a, out=avg)
            face_sum += _dot(avg, self._face_p[a]) + alpha * _dot(avg, self._face_q[a])
        face = 2.0 * pp.eps**2 * self._vol * face_sum
        linear = alpha * self._lin1
        # Rounding the terms bounds how close to zero the sum can be resolved.
        self.floor = _FLOOR_ULPS * (
            abs(self._lin0) + abs(linear) + abs(pointwise) + abs(face)
        )
        self.at = alpha
        return self._lin0 + linear + pointwise - face


def line_minimize(
    g: LineObjective,
    cfg: SolverConfig,
    g0: float | None = None,
    hint: float | None = None,
) -> tuple[float, bool]:
    """Root of the built objective g inside the admissible interval.

    Returns (alpha, exhausted) and leaves g unmoved; the evaluations spent
    are in ``g.evals``.  The search ends at the first trial with
    |g(alpha)| <= max(ls_tol |g(0)|, g.floor), on either side of the root,
    or, inside a bracket, when the bracket has collapsed to a relative width
    of 1e-14 (alpha is then the best point seen).  When the root lies beyond
    the admissibility cap, the cap itself is returned; g is still negative
    there, so the step decreases the descent objective.  ``g0`` may carry a
    precomputed g(0) (the descent iteration knows it as -<residual, d>);
    ``hint``, the previous accepted step length, is the first trial (halved
    until it is below the cap); one that is not positive and finite counts
    as none.  Trials follow the chord until the root is bracketed and
    Illinois regula falsi after (see the module docstring).
    ``exhausted`` is True only when the evaluation budget ran out inside a
    valid bracket; alpha is then the point with the least |g| seen since
    the root was bracketed, not a root within the tolerance.
    """
    require_admissible(g.phi, "line search base point")
    if not np.any(g.d):
        return 0.0, False
    cap = admissible_step_cap(g.phi, g.d, cfg.ls_margin)
    if g0 is None:
        g0 = g(0.0)
    scale = abs(g0)
    if scale == 0.0 or g0 > 0.0:
        # No descent left along d at this scale; converged step.
        return 0.0, False
    tol = cfg.ls_tol * scale

    def done(val: float) -> bool:
        return abs(val) <= max(tol, g.floor)

    # Bracket: while g < 0, the next trial is the root of the chord through
    # the last two points, at most four times the last trial and never past
    # the cap; the trial doubles when the chord does not rise.
    lo, g_lo = 0.0, g0
    hi = hint if hint is not None and 0.0 < hint < math.inf else 1.0
    while hi > cap:
        hi *= 0.5
    at_cap = False
    while True:
        if g.evals >= cfg.ls_max:
            raise LineSearchError(
                f"no sign change within {cfg.ls_max} evaluations (alpha up to {hi:.3e})"
            )
        g_hi = g(hi)
        if done(g_hi):
            return hi, False
        if g_hi > 0.0:
            break
        if at_cap:
            return hi, False
        slope = (g_hi - g_lo) / (hi - lo)
        root = hi - g_hi / slope if slope > 0.0 else hi
        lo, g_lo = hi, g_hi
        hi = min(root, 4.0 * hi) if root > hi else 2.0 * hi
        if hi >= cap:
            hi = cap
            at_cap = True

    # Illinois regula falsi on the bracket [lo, hi]: when the same end is
    # kept twice in a row, its g is halved, so the cuts cannot stall on one
    # side.  A collapsed bracket also counts as success.
    best_alpha, best_val = hi, abs(g_hi)
    moved = 0  # the end the last cut replaced: -1 lo, +1 hi
    while g.evals < cfg.ls_max:
        if hi - lo <= 1e-14 * max(1.0, hi):
            return best_alpha, False
        alpha = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < alpha < hi:
            alpha = 0.5 * (lo + hi)
        val = g(alpha)
        if abs(val) < best_val:
            best_alpha, best_val = alpha, abs(val)
        if done(val):
            return alpha, False
        if val < 0.0:
            lo, g_lo = alpha, val
            if moved == -1:
                g_hi *= 0.5
            moved = -1
        else:
            hi, g_hi = alpha, val
            if moved == 1:
                g_lo *= 0.5
            moved = 1
    # Budget exhausted with a valid bracket: the root is localized, take the
    # best point seen.
    return best_alpha, True


def psd_solve(
    phi_n: np.ndarray,
    dt: float,
    grid: Grid,
    pp: PhysParams,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
    source: np.ndarray | None = None,
    phi_init: np.ndarray | None = None,
    concave: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Advance one semi-implicit step by preconditioned nonlinear CG.

    Solves N(phi) = rhs_explicit(phi_n) (+ source) to the configured relative
    residual with Polak-Ribiere+ directions, restarting to the preconditioned
    steepest descent direction on the first iteration, when the
    preconditioned residual <z, r> grows, and when the conjugate direction is
    not a descent direction (see the module docstring).  The returned state
    has the same mean as phi_n to round-off (every search direction is
    mean-zero) and is strictly admissible.

    ``phi_init`` may supply a better starting iterate (the time loop of
    both drivers passes the quadratic or cubic extrapolation of the last
    accepted states, see ``fchsim.dynamics``).
    It is shifted to the mean of ``phi_n`` and used only when the shifted
    field keeps half of phi_n's distance to +-1; otherwise the solve starts
    from ``phi_n``.

    The requested tolerance is floored at the representable limit
    eps_machine * ||phi_n||_2 * rms(symbol): rounding the state itself
    perturbs N(phi) by that much, so no float64 iterate can do better when
    the sixth-order symbol is large.  Residual content at that level sits in
    the stiffest modes and moves the state by a vanishing amount.

    ``concave`` may carry var_concave(phi_n), for ``rhs_explicit``, which
    also checks that dt is positive.  The solve works in float64 whatever
    the dtype of ``phi_n``.
    ``phi_n``, ``phi_init``, ``source`` and ``concave`` must have the grid's
    shape, and ``ws`` must be built on ``grid``; otherwise a ValueError
    names the argument.
    """
    phi_n = np.asarray(phi_n, dtype=float)  # the iteration runs in float64
    for name, arr in (("phi_n", phi_n), ("phi_init", phi_init), ("source", source),
                      ("concave", concave)):
        if arr is not None and np.shape(arr) != grid.shape:
            raise ValueError(f"{name} has shape {np.shape(arr)}, not the grid's {grid.shape}")
    if ws.grid != grid:
        raise ValueError(f"ws is built on {ws.grid}, not on the solve's {grid}")
    require_admissible(phi_n, "previous step state")

    f = rhs_explicit(phi_n, dt, grid, pp, concave)
    if source is not None:
        f += source
    vol = grid.cell_volume
    f_norm = norm(f, grid)
    if not math.isfinite(f_norm):
        # max(1, nan) is 1, so a NaN right-hand side would pass the check below
        raise SolverDivergedError("right-hand side is not finite", residual=np.nan, iterations=0)
    fp_floor = np.finfo(float).eps * norm(phi_n, grid) * symbol_rms(ws, dt, pp, cfg)
    tol = max(cfg.tol_res * max(1.0, f_norm), fp_floor)
    if not np.isfinite(tol):
        # an overflowing floor would accept the first iterate unsolved
        raise SolverDivergedError(
            f"residual tolerance {tol} is not finite", residual=np.nan, iterations=0
        )

    phi = None
    if phi_init is not None:
        headroom = 1.0 - 0.5 * (1.0 - _sup(phi_n))
        candidate = phi_init + (np.mean(phi_n) - np.mean(phi_init))
        if _sup(candidate) <= headroom:
            phi = candidate
    if phi is None:
        phi = phi_n.copy()  # the iteration moves phi in place
    terms = linear_terms(phi, grid)
    ls_evals = restarts = exhausted = 0
    alpha_prev: float | None = None
    d = r_prev = g = None
    zr_prev = 0.0
    for it in range(cfg.max_iter + 1):
        r = f - nonlinear_map(phi, dt, grid, pp, terms)
        res = norm(r, grid)
        if res <= tol:
            report = SolveReport(it, res, ls_evals, 1.0 - _sup(phi), restarts, exhausted, terms)
            return phi, report
        if it == cfg.max_iter:
            raise SolverDivergedError(
                f"residual {res:.3e} > tolerance {tol:.3e} after {it} iterations",
                residual=res,
                iterations=it,
            )
        z = precond_solve(r, dt, pp, cfg, ws)
        zr = _dot(z, r)
        beta = 0.0
        if d is not None and zr <= zr_prev:
            beta = max(0.0, (zr - _dot(z, r_prev)) / zr_prev)
        if beta > 0.0:
            d = z + beta * d
            g0 = -vol * _dot(r, d)
        if beta == 0.0 or g0 >= 0.0:
            restarts += 1
            d = z
            g0 = -vol * zr
        g = LineObjective(phi, d, f, dt, grid, pp, terms, _spent=g)
        alpha, short = line_minimize(g, cfg, g0=g0, hint=alpha_prev)
        ls_evals += g.evals
        exhausted += short
        if alpha == 0.0:
            raise SolverDivergedError(
                f"stalled line search at residual {res:.3e} (tolerance {tol:.3e})",
                residual=res,
                iterations=it,
            )
        alpha_prev = alpha
        phi += alpha * d
        terms = linear_terms(phi, grid, out=terms)
        if alpha == g.at:
            # d alpha + phi, where g evaluated, rounds like phi + alpha d
            terms.beta, terms.beta_prime = g.beta_pair
        r_prev, zr_prev = r, zr
    raise AssertionError("unreachable")
