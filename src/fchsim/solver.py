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
d = z, g(0) = -<L z, z> < 0 whenever unconverged, so the root is bracketed
by doubling from the previous step length (1 on the first iteration) and
polished with a secant/bisection hybrid.  Every trial step is capped so the
iterate keeps a fraction of its current distance to the pure states +-1,
where the logarithmic terms blow up; if the root lies beyond that cap the
capped step is taken (it still decreases the objective) and later
iterations re-center.

The iteration carries one iterate state: phi and its LinearTerms (lap^2 phi,
the face differences D phi per axis and gsq = sum_axis avg(|D phi|^2), see
``fchsim.energy``).  They are built from phi once, at the first iterate.
The line objective reads its phi side from them and computes only the d
side (lap d, lap^2 d, D d and the gsq coefficients B and C); after the line
search the state moves in place by the step taken,

    lap^2 phi += alpha lap^2 d,   D phi += alpha D d,
    gsq += alpha (2 B + alpha C),

and the residual at the next iterate uses the moved terms.  The moved terms
drift from a rebuild by round-off, so only a residual from scratch may end a
solve: when the carried residual meets the tolerance, N(phi) is recomputed
without the state, and only that residual can stop the iteration and be
reported.  If it misses, the state is rebuilt from phi and the iteration
goes on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid, SpectralWorkspace, cell_avg, face_avg, face_diff, laplacian
from .energy import LinearTerms, linear_terms, nonlinear_map, rhs_explicit
from .potential import PhysParams, PotentialDomainError, require_admissible

__all__ = [
    "SolverConfig",
    "SolveReport",
    "SolverDivergedError",
    "LineSearchError",
    "precond_symbol",
    "precond_solve",
    "admissible_step_cap",
    "LineObjective",
    "line_minimize",
    "psd_solve",
]


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
        if self.tol_res <= 0:
            raise ValueError(f"tol_res must be positive, got {self.tol_res}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.ls_max < 1:
            raise ValueError(f"ls_max must be at least 1, got {self.ls_max}")
        if not 0.0 < self.ls_margin < 1.0:
            raise ValueError(f"ls_margin must lie in (0, 1), got {self.ls_margin}")
        if self.theta1 < 0 or self.theta2 < 0:
            raise ValueError("theta1 and theta2 must be nonnegative")


@dataclass(frozen=True)
class SolveReport:
    """Counters of one solve.

    ``restarts`` counts the iterations that took the steepest descent
    direction z_k (the first one included); ``ls_exhausted`` counts the line
    searches that ran out of their evaluation budget inside a valid bracket
    and took the best point seen instead of a root within ``ls_tol``.
    """

    iterations: int
    residual: float
    line_search_evals: int
    margin: float
    restarts: int
    ls_exhausted: int


def precond_symbol(
    ws: SpectralWorkspace, dt: float, pp: PhysParams, cfg: SolverConfig
) -> np.ndarray:
    """Positive Fourier symbol of the preconditioner for this step size."""
    key = (dt, pp.eps, pp.lam, pp.eps_p_eta, cfg.theta1, cfg.theta2)
    cached = ws._symbol_cache.get(key)
    if cached is not None:
        return cached
    s = ws.sigma
    sym = (
        1.0 / dt
        + pp.eps**4 * s**3
        + pp.eps**2 * cfg.theta1 * s**2
        + (pp.lam**2 + pp.lam * pp.eps_p_eta + cfg.theta2) * s
    )
    ws._symbol_cache.clear()
    ws._symbol_cache[key] = sym
    return sym


def precond_solve(
    r: np.ndarray,
    dt: float,
    pp: PhysParams,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
) -> np.ndarray:
    """Solve L d = r - mean(r); the result is mean-zero to round-off."""
    sym = precond_symbol(ws, dt, pp, cfg)
    rhat = ws.forward(r - np.mean(r))
    rhat[(0,) * rhat.ndim] = 0.0
    rhat /= sym
    d = ws.inverse(rhat)
    d -= np.mean(d)
    return d


def admissible_step_cap(phi: np.ndarray, d: np.ndarray, margin_frac: float) -> float:
    """Largest alpha keeping ||phi + alpha d||_inf <= 1 - margin_frac*(1 - ||phi||_inf)."""
    sup = float(np.max(np.abs(phi)))
    bound = 1.0 - margin_frac * (1.0 - sup)
    cap = np.inf
    pos = d > 0
    if np.any(pos):
        cap = min(cap, float(np.min((bound - phi[pos]) / d[pos])))
    neg = d < 0
    if np.any(neg):
        cap = min(cap, float(np.min((-bound - phi[neg]) / d[neg])))
    return cap


class LineObjective:
    """Evaluator for g(alpha) = <N(phi + alpha d) - f, d>.

    All stencil quantities that are linear or quadratic in alpha are
    precomputed once, so one evaluation costs only the pointwise potential
    terms plus a couple of face averages.  Inner products against the
    divergence-form terms are moved onto faces by summation-by-parts.  The
    phi side comes from ``terms``, the LinearTerms of phi (built from phi
    when not given); only the d side is computed here.  Evaluations work in
    place in four scratch fields allocated with the objective.
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
    ):
        if terms is None:
            terms = linear_terms(phi, grid)
        self.phi = phi
        self.d = d
        self.grid = grid
        self.pp = pp
        self.terms = terms
        self._work = [np.empty_like(phi) for _ in range(4)]
        work = self._work[0]

        def dot(u: np.ndarray, v: np.ndarray) -> float:
            return float(np.sum(np.multiply(u, v, out=work)))

        vol = grid.cell_volume
        c_quad = pp.lam * (pp.lam + pp.eps_p_eta)
        lap_d = laplacian(d, grid)
        bilap_d = laplacian(lap_d, grid)
        # <N(phi_a), d> linear-in-alpha pieces: phi_a/dt and the linear
        # part of var_convex hit with the Laplacian moved onto d.
        self._lin0 = vol * (
            dot(phi, d) / dt
            - pp.eps**4 * dot(terms.bilap, lap_d)
            - c_quad * dot(phi, lap_d)
        ) - vol * dot(f_rhs, d)
        self._lin1 = vol * (
            dot(d, d) / dt - pp.eps**4 * dot(bilap_d, lap_d) - c_quad * dot(d, lap_d)
        )
        self.lap_d = lap_d
        self._bilap_d = bilap_d
        # Face data for the nonlinear gradient terms: D d, and the products
        # of D phi and D d with D(lap d) the per-axis face inner products need.
        self._dd = [face_diff(d, grid, a) for a in range(grid.ndim)]
        self._face_p = []
        self._face_q = []
        for a in range(grid.ndim):
            dlap = face_diff(lap_d, grid, a)
            self._face_p.append(terms.dphi[a] * dlap)
            dlap *= self._dd[a]
            self._face_q.append(dlap)
        # avg(|D phi_a|^2) = A + alpha (2 B + alpha C), summed over axes.
        B = np.zeros_like(phi)
        C = np.zeros_like(phi)
        for a, dd in enumerate(self._dd):
            B += cell_avg(np.multiply(terms.dphi[a], dd, out=work), grid, a)
            C += cell_avg(np.multiply(dd, dd, out=work), grid, a)
        B *= 2.0
        self._gsq_a, self._gsq_2b, self._gsq_c = terms.gsq, B, C
        self._vol = vol
        self.evals = 0

    def __call__(self, alpha: float) -> float:
        pp = self.pp
        self.evals += 1
        phi_a, one_minus, num, work = self._work
        np.multiply(self.d, alpha, out=phi_a)
        phi_a += self.phi
        np.multiply(phi_a, phi_a, out=one_minus)
        np.subtract(1.0, one_minus, out=one_minus)
        if np.min(one_minus) <= 0.0:
            raise PotentialDomainError(
                f"line-search trial alpha = {alpha!r} left the phase domain"
            )
        # Pointwise var_convex terms against lap(d):
        # b b1 + eps^2 b2 gsq = (2 b one_minus + 4 eps^2 phi gsq) / one_minus^2,
        # with b = log1p(phi_a) - log1p(-phi_a) and gsq = A + alpha (2 B + alpha C).
        np.log1p(phi_a, out=num)
        num -= np.log1p(np.negative(phi_a, out=work), out=work)
        num *= 2.0
        num *= one_minus
        gsq = np.multiply(self._gsq_c, alpha, out=work)
        gsq += self._gsq_2b
        gsq *= alpha
        gsq += self._gsq_a
        phi_a *= 4.0 * pp.eps**2
        gsq *= phi_a
        num += gsq
        num /= np.multiply(one_minus, one_minus, out=work)
        num *= self.lap_d
        pointwise = -self._vol * float(np.sum(num))
        # Divergence term moved onto faces: <lap d, d_a(avg(b1) Dphi_a)>
        # = -[D_a lap d, avg(b1) Dphi_a]; it enters var_convex with factor -2,
        # and var_convex enters g negated, giving -2 overall.  b1 = 2 / one_minus.
        b1 = np.divide(2.0, one_minus, out=one_minus)
        face_sum = 0.0
        for a in range(self.grid.ndim):
            avg_b1 = face_avg(b1, self.grid, a)
            flux = np.multiply(self._face_q[a], alpha, out=work)
            flux += self._face_p[a]
            avg_b1 *= flux
            face_sum += float(np.sum(avg_b1))
        return (
            self._lin0
            + alpha * self._lin1
            + pointwise
            - 2.0 * pp.eps**2 * self._vol * face_sum
        )

    def advance(self, alpha: float) -> None:
        """Move ``terms`` in place to phi + alpha d; the objective is spent after.

        bilap += alpha lap^2 d, dphi += alpha D d and gsq += alpha (2 B + alpha C),
        with the d-side arrays scaled in place so that nothing is allocated.
        """
        terms = self.terms
        terms.bilap += np.multiply(self._bilap_d, alpha, out=self._bilap_d)
        for dphi, dd in zip(terms.dphi, self._dd):
            dphi += np.multiply(dd, alpha, out=dd)
        step = self._gsq_c
        step *= alpha
        step += self._gsq_2b
        step *= alpha
        terms.gsq += step


def line_minimize(
    phi: np.ndarray,
    d: np.ndarray,
    f_rhs: np.ndarray,
    dt: float,
    grid: Grid,
    pp: PhysParams,
    cfg: SolverConfig,
    g0: float | None = None,
    hint: float | None = None,
    exhausted: list[float] | None = None,
    terms: LinearTerms | None = None,
) -> tuple[float, int]:
    """Root of g(alpha) inside the admissible interval.

    Returns (alpha, evaluations).  When the root lies beyond the admissibility
    cap, the cap itself is returned; g is still negative there, so the step
    decreases the descent objective.  ``g0`` may carry a precomputed g(0)
    (the descent iteration knows it as -<residual, d>); ``hint`` seeds the
    bracket with the previous accepted step length.  When the evaluation
    budget runs out inside a valid bracket, the best point seen is returned
    and, if ``exhausted`` is given, its |g| relative to |g(0)| is appended.
    ``terms`` may carry the LinearTerms of phi: the objective reads its phi
    side from them, and on return they have been moved in place to
    phi + alpha d.
    """
    require_admissible(phi, "line search base point")
    if not np.any(d):
        return 0.0, 0

    g = LineObjective(phi, d, f_rhs, dt, grid, pp, terms)
    alpha = _root(g, admissible_step_cap(phi, d, cfg.ls_margin), cfg, g0, hint, exhausted)
    if terms is not None and alpha != 0.0:
        g.advance(alpha)
    return alpha, g.evals


def _root(
    g: LineObjective,
    cap: float,
    cfg: SolverConfig,
    g0: float | None,
    hint: float | None,
    exhausted: list[float] | None,
) -> float:
    """The line search of ``line_minimize`` on a built objective."""
    if g0 is None:
        g0 = g(0.0)
    scale = abs(g0)
    if scale == 0.0 or g0 > 0.0:
        # No descent left along d at this scale; converged step.
        return 0.0
    tol = cfg.ls_tol * scale

    lo, g_lo = 0.0, g0
    hi = hint if hint is not None and hint > 0.0 else 1.0
    while hi > cap:
        hi *= 0.5
    at_cap = False
    while True:
        if g.evals >= cfg.ls_max:
            raise LineSearchError(
                f"no sign change within {cfg.ls_max} evaluations (alpha up to {hi:.3e})"
            )
        g_hi = g(hi)
        if g_hi >= 0.0:
            break
        if at_cap:
            return hi
        lo, g_lo = hi, g_hi
        hi *= 2.0
        if hi >= cap:
            hi = cap
            at_cap = True
    if abs(g_hi) <= tol:
        return hi

    # Secant with bisection safeguarding on the bracket [lo, hi].  Near
    # convergence g sits at the floating-point noise floor and |g| <= tol may
    # be unreachable, so a collapsed bracket also counts as success; forcing a
    # bisection whenever the previous cut failed to halve the bracket keeps
    # progress guaranteed.
    best_alpha, best_val = hi, abs(g_hi)
    force_bisect = False
    while g.evals < cfg.ls_max:
        width = hi - lo
        if width <= 1e-14 * max(1.0, hi):
            return best_alpha
        denom = g_hi - g_lo
        alpha = hi - g_hi * width / denom if denom != 0 and not force_bisect else 0.5 * (lo + hi)
        if not (lo < alpha < hi):
            alpha = 0.5 * (lo + hi)
        val = g(alpha)
        if abs(val) < best_val:
            best_alpha, best_val = alpha, abs(val)
        if abs(val) <= tol:
            return alpha
        if val < 0.0:
            lo, g_lo = alpha, val
        else:
            hi, g_hi = alpha, val
        force_bisect = (hi - lo) > 0.5 * width
    # Budget exhausted with a valid bracket: the root is localized, take the
    # best point seen.
    if exhausted is not None:
        exhausted.append(best_val / scale)
    return best_alpha


def psd_solve(
    phi_n: np.ndarray,
    dt: float,
    grid: Grid,
    pp: PhysParams,
    cfg: SolverConfig,
    ws: SpectralWorkspace,
    source: np.ndarray | None = None,
    phi_init: np.ndarray | None = None,
) -> tuple[np.ndarray, SolveReport]:
    """Advance one semi-implicit step by preconditioned nonlinear CG.

    Solves N(phi) = rhs_explicit(phi_n) (+ source) to the configured relative
    residual with Polak-Ribiere+ directions, restarting to the preconditioned
    steepest descent direction on the first iteration, when the
    preconditioned residual <z, r> grows, and when the conjugate direction is
    not a descent direction (see the module docstring).  The returned state
    has the same mean as phi_n to round-off (every search direction is
    mean-zero) and is strictly admissible.  The iterations in between use
    the carried iterate state; only a residual recomputed from scratch ends
    the solve and is reported (see the module docstring).

    ``phi_init`` may supply a better starting iterate (the adaptive driver
    passes a linear extrapolation of the two previous states); it is used
    only when admissible and mean-consistent with ``phi_n``.

    The requested tolerance is floored at the representable limit
    eps_machine * ||phi_n||_2 * rms(symbol): rounding the state itself
    perturbs N(phi) by that much, so no float64 iterate can do better when
    the sixth-order symbol is large.  Residual content at that level sits in
    the stiffest modes and moves the state by a vanishing amount.
    """
    require_admissible(phi_n, "previous step state")
    if dt <= 0:
        raise ValueError(f"time step must be positive, got {dt}")

    f = rhs_explicit(phi_n, dt, grid, pp)
    if source is not None:
        f = f + source
    vol = grid.cell_volume
    f_norm = float(np.sqrt(vol * np.sum(f * f)))
    sym = precond_symbol(ws, dt, pp, cfg)
    phi_norm = float(np.sqrt(vol * np.sum(phi_n * phi_n)))
    fp_floor = np.finfo(float).eps * phi_norm * float(np.sqrt(np.mean(sym**2)))
    tol = max(cfg.tol_res * max(1.0, f_norm), fp_floor)
    if not np.isfinite(tol):
        # an overflowing floor would accept the first iterate unsolved
        raise SolverDivergedError(
            f"residual tolerance {tol} is not finite", residual=np.nan, iterations=0
        )

    phi = phi_n.copy()
    if phi_init is not None:
        sup0 = float(np.max(np.abs(phi_n)))
        headroom = 1.0 - 0.5 * (1.0 - sup0)
        candidate = phi_init + (np.mean(phi_n) - np.mean(phi_init))
        if float(np.max(np.abs(candidate))) <= headroom:
            phi = candidate
    terms = linear_terms(phi, grid)
    fresh = True  # terms built from phi give the from-scratch residual
    ls_evals_total = 0
    restarts = 0
    exhausted: list[float] = []
    alpha_prev: float | None = None
    d = r_prev = None
    zr_prev = 0.0
    for it in range(cfg.max_iter + 1):
        r = f - nonlinear_map(phi, dt, grid, pp, terms)
        res = float(np.sqrt(vol * np.sum(r * r)))
        if res <= tol and not fresh:
            # The carried terms drift by round-off: only a residual from
            # scratch may end the solve.  If it misses, start over from phi.
            r = f - nonlinear_map(phi, dt, grid, pp)
            res = float(np.sqrt(vol * np.sum(r * r)))
            if res > tol:
                terms = linear_terms(phi, grid)
        if res <= tol:
            margin = 1.0 - float(np.max(np.abs(phi)))
            return phi, SolveReport(
                it, res, ls_evals_total, margin, restarts, len(exhausted)
            )
        if it == cfg.max_iter:
            raise SolverDivergedError(
                f"residual {res:.3e} > tolerance {tol:.3e} after {it} iterations",
                residual=res,
                iterations=it,
            )
        z = precond_solve(r, dt, pp, cfg, ws)
        zr = float(np.sum(z * r))
        beta = 0.0
        if d is not None and zr <= zr_prev:
            beta = max(0.0, (zr - float(np.sum(z * r_prev))) / zr_prev)
        if beta > 0.0:
            d = z + beta * d
            g0 = -vol * float(np.sum(r * d))
        if beta == 0.0 or g0 >= 0.0:
            restarts += 1
            d = z
            g0 = -vol * zr
        alpha, evals = line_minimize(
            phi, d, f, dt, grid, pp, cfg,
            g0=g0, hint=alpha_prev, exhausted=exhausted, terms=terms,
        )
        ls_evals_total += evals
        if alpha == 0.0:
            raise SolverDivergedError(
                f"stalled line search at residual {res:.3e} (tolerance {tol:.3e})",
                residual=res,
                iterations=it,
            )
        alpha_prev = alpha
        phi += alpha * d
        fresh = False
        r_prev, zr_prev = r, zr
    raise AssertionError("unreachable")
