"""Independent reference implementations used as test oracles.

Everything here except ``spectral_norm_hm1``, ``step_record_from_scratch``
and ``reference_line_minimize`` is built from the textbook definitions with
dense matrices and explicit index arithmetic, deliberately avoiding the
production stencil and FFT code paths.  ``step_record_from_scratch``
recomputes a step's record from the public energy functions alone: the step
reuses what its solve computed, and must match that bit for bit.
``reference_line_minimize`` is the earlier root search on the line
objective, the baseline that the production search must not spend more
evaluations than.
"""

from __future__ import annotations

import math

import numpy as np

from fchsim.dynamics import DiagnosticsRecord
from fchsim.energy import chemical_potential, energy_total, var_concave, var_convex
from fchsim.grid import Grid, SpectralWorkspace, grad_norm_sq, norm
from fchsim.potential import beta, beta_prime, beta_second


def dense_laplacian(grid: Grid) -> np.ndarray:
    """Dense matrix of the periodic 3/5-point Laplacian, row-major ordering."""
    n_cells = math.prod(grid.shape)
    L = np.zeros((n_cells, n_cells))
    shape = grid.shape
    spacing = grid.spacing

    def flat(idx):
        out = 0
        for a, i in enumerate(idx):
            out = out * shape[a] + (i % shape[a])
        return out

    for idx in np.ndindex(*shape):
        row = flat(idx)
        for a in range(grid.ndim):
            h2 = spacing[a] ** 2
            for offset in (-1, 1):
                nb = list(idx)
                nb[a] += offset
                L[row, flat(nb)] += 1.0 / h2
            L[row, row] -= 2.0 / h2
    return L


# The periodic stencils as np.roll expressions, each result built in the
# array np.roll returns: the reference that the slice-based stencils in
# ``fchsim.grid`` must match bit for bit.


def roll_face_diff(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    out = np.roll(f, -1, axis=axis)
    out -= f
    out /= grid.spacing[axis]
    return out


def roll_face_avg(f: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    out = np.roll(f, -1, axis=axis)
    out += f
    out *= 0.5
    return out


def roll_cell_diff(g: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    out = np.roll(g, 1, axis=axis)
    np.subtract(g, out, out=out)
    out /= grid.spacing[axis]
    return out


def roll_cell_avg(g: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    out = np.roll(g, 1, axis=axis)
    out += g
    out *= 0.5
    return out


def roll_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    two_f = 2.0 * f
    out = None
    for a in range(grid.ndim):
        term = np.roll(f, -1, axis=a)
        term -= two_f
        term += np.roll(f, 1, axis=a)
        term /= grid.spacing[a] ** 2
        if out is None:
            out = term
        else:
            out += term
    return out


def dense_solve_neg_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Mean-zero solution of -lap psi = f via pseudo-inverse of the dense matrix."""
    L = dense_laplacian(grid)
    psi = np.linalg.lstsq(-L, f.ravel() - f.mean(), rcond=None)[0]
    psi -= psi.mean()
    return psi.reshape(grid.shape)


def spectral_norm_hm1(f: np.ndarray, ws: SpectralWorkspace) -> float:
    """Discrete H^-1 norm sqrt(<f, psi>) of a mean-zero f, where -lap psi = f.

    The one oracle built on the production FFT path: psi is solved mode by
    mode with the workspace's ``forward``, ``sigma`` and ``inverse`` (zero
    mode pinned to zero), and criterion 6 checks this norm against the
    dense matrix.
    """
    fhat = ws.forward(f)
    psi_hat = np.zeros_like(fhat)
    np.divide(fhat, ws.sigma, out=psi_hat, where=ws.sigma > 0)
    val = ws.grid.cell_volume * float(np.sum(f * ws.inverse(psi_hat)))
    return math.sqrt(max(val, 0.0))


def step_record_from_scratch(
    phi_old: np.ndarray,
    phi_new: np.ndarray,
    grid: Grid,
    pp,
    *,
    step: int,
    t: float,
    dt: float,
    psd_iters: int,
    residual: float,
) -> DiagnosticsRecord:
    """The record of the step phi_old -> phi_new, every field computed afresh
    by the public energy_total, var_convex, var_concave, chemical_potential,
    grad_norm_sq and norm; the solver's counters are passed through."""
    eb = energy_total(phi_new, grid, pp)
    mu = chemical_potential(var_convex(phi_new, grid, pp), var_concave(phi_old, grid, pp))
    return DiagnosticsRecord(
        step=step,
        t=t,
        dt=dt,
        e_fch=eb.total,
        e_ch=eb.cahn_hilliard,
        e_pfw=eb.willmore,
        mass=float(np.mean(phi_new)),
        phi_min=float(np.min(phi_new)),
        phi_max=float(np.max(phi_new)),
        h2_norm=norm(phi_new, grid, "h2"),
        grad_mu=float(np.sqrt(grad_norm_sq(mu, grid))),
        psd_iters=psd_iters,
        residual=residual,
    )


def beta_third(r):
    """Third derivative of beta in closed form, 4 (1 + 3 r^2) / (1 - r^2)^3."""
    r = np.asarray(r, dtype=float)
    return 4.0 * (1.0 + 3.0 * np.square(r)) / (1.0 - np.square(r)) ** 3


def _beta_scalar(r: float) -> float:
    return math.log((1.0 + r) / (1.0 - r))


def dense_var_convex(phi: np.ndarray, grid: Grid, pp) -> np.ndarray:
    """Variational derivative of the convex energy part from dense operators.

    Written directly from the definitions: biharmonic as the squared dense
    Laplacian, face quantities via explicit periodic index shifts.
    """
    L = dense_laplacian(grid)
    flat = phi.ravel()
    out = (pp.eps**4) * (L @ (L @ flat))
    b = np.array([_beta_scalar(r) for r in flat])
    b1 = 2.0 / (1.0 - flat**2)
    b2 = 4.0 * flat / (1.0 - flat**2) ** 2
    out += b * b1 + pp.lam * (pp.lam + pp.eps_p_eta) * flat

    mixed = np.zeros_like(flat)
    phi_nd = phi
    for a in range(grid.ndim):
        h = grid.spacing[a]
        fwd = (np.roll(phi_nd, -1, axis=a) - phi_nd) / h      # D at face i+1/2
        bwd = (phi_nd - np.roll(phi_nd, 1, axis=a)) / h       # D at face i-1/2
        avg_sq = 0.5 * (fwd**2 + bwd**2)
        b2_nd = (4.0 * phi_nd / (1.0 - phi_nd**2) ** 2)
        b1_nd = 2.0 / (1.0 - phi_nd**2)
        flux_fwd = 0.5 * (np.roll(b1_nd, -1, axis=a) + b1_nd) * fwd
        flux_bwd = 0.5 * (b1_nd + np.roll(b1_nd, 1, axis=a)) * bwd
        term = b2_nd * avg_sq - 2.0 * (flux_fwd - flux_bwd) / h
        mixed += (pp.eps**2 * term).ravel()
    return (out + mixed).reshape(grid.shape)


def dense_nonlinear_map(phi: np.ndarray, dt: float, grid: Grid, pp) -> np.ndarray:
    L = dense_laplacian(grid)
    v = dense_var_convex(phi, grid, pp)
    return phi / dt - (L @ v.ravel()).reshape(grid.shape)


def dense_energy_split(phi: np.ndarray, grid: Grid, pp) -> tuple[float, float]:
    """(E_c, E_e) of the convex-concave split from dense operators.

    Written from the formulas in the ``fchsim.energy`` docstring: the
    Laplacian is the dense matrix, ||grad phi||^2 is -<phi, lap phi>
    (summation by parts), and the face averages use explicit periodic shifts.
    """
    L = dense_laplacian(grid)
    vol = grid.cell_volume
    flat = phi.ravel()
    lap = L @ flat
    b = np.array([_beta_scalar(r) for r in flat])
    b1 = 2.0 / (1.0 - flat**2)
    B = (1.0 + flat) * np.log1p(flat) + (1.0 - flat) * np.log1p(-flat)
    avg_sq = np.zeros(grid.shape)
    for a in range(grid.ndim):
        fwd = (np.roll(phi, -1, axis=a) - phi) / grid.spacing[a]
        avg_sq += 0.5 * (fwd**2 + np.roll(fwd, 1, axis=a) ** 2)
    grad_sq = -vol * float(flat @ lap)
    e_c = vol * (
        0.5 * pp.eps**4 * float(lap @ lap)
        + 0.5 * float(b @ b)
        + 0.5 * (pp.lam**2 + pp.lam * pp.eps_p_eta) * float(flat @ flat)
        + pp.eps**2 * float(b1 @ avg_sq.ravel())
    )
    e_e = (
        (0.5 * pp.eps**2 * pp.eps_p_eta + pp.lam * pp.eps**2) * grad_sq
        + vol * (pp.lam * float(flat @ b) + pp.eps_p_eta * float(np.sum(B)))
    )
    return e_c, e_e


def newton_solve(
    phi0: np.ndarray,
    f_rhs: np.ndarray,
    dt: float,
    grid: Grid,
    pp,
    tol: float = 1e-9,
    max_iter: int = 60,
) -> np.ndarray:
    """Damped dense-Jacobian Newton solve of N(phi) = f.

    The residual uses the dense-operator map above and the Jacobian comes
    from forward differences, so the only thing shared with the production
    solver is the problem statement.
    """
    vol = grid.cell_volume

    def residual(p_flat):
        p = p_flat.reshape(grid.shape)
        return (dense_nonlinear_map(p, dt, grid, pp) - f_rhs).ravel()

    p = phi0.ravel().copy()
    r = residual(p)
    r_norm = math.sqrt(vol * float(r @ r))
    n = p.size
    for _ in range(max_iter):
        if r_norm <= tol:
            break
        J = np.empty((n, n))
        h_fd = 1e-7
        for j in range(n):
            pj = p.copy()
            pj[j] += h_fd
            J[:, j] = (residual(pj) - r) / h_fd
        delta = np.linalg.solve(J, -r)
        step_size = 1.0
        while step_size > 1e-12:
            cand = p + step_size * delta
            if np.max(np.abs(cand)) < 1.0:
                r_cand = residual(cand)
                cand_norm = math.sqrt(vol * float(r_cand @ r_cand))
                if cand_norm < r_norm:
                    p, r, r_norm = cand, r_cand, cand_norm
                    break
            step_size *= 0.5
        else:
            raise RuntimeError("newton oracle stalled")
    if r_norm > tol:
        raise RuntimeError(f"newton oracle did not converge: {r_norm:.3e}")
    return p.reshape(grid.shape)


def masked_step_cap(phi: np.ndarray, d: np.ndarray, margin_frac: float) -> float:
    """The admissibility step cap, one boolean mask per wall.

    Largest alpha keeping ||phi + alpha d||_inf <= 1 - margin_frac (1 - ||phi||_inf):
    the entries moving up are capped by the upper wall, those moving down by
    the lower one, and d == 0 entries by neither (inf when d is all zero).
    """
    bound = 1.0 - margin_frac * (1.0 - float(np.max(np.abs(phi))))
    cap = np.inf
    pos = d > 0
    if np.any(pos):
        cap = min(cap, float(np.min((bound - phi[pos]) / d[pos])))
    neg = d < 0
    if np.any(neg):
        cap = min(cap, float(np.min((-bound - phi[neg]) / d[neg])))
    return cap


def smooth_admissible_field(grid: Grid, rng: np.random.Generator, amplitude: float = 0.6) -> np.ndarray:
    """Band-limited random field with sup norm <= amplitude < 1."""
    mesh = grid.mesh()
    out = np.zeros(grid.shape)
    for _ in range(4):
        ks = rng.integers(-3, 4, size=grid.ndim)
        phase = rng.uniform(0, 2 * np.pi)
        coef = rng.uniform(-1.0, 1.0)
        arg = phase
        for a in range(grid.ndim):
            arg = arg + 2.0 * np.pi * ks[a] * mesh[a] / grid.lengths[a]
        out += coef * np.sin(arg)
    sup = np.max(np.abs(out))
    if sup > 0:
        out *= amplitude / sup
    return out


def _fourier_laplacian(values: np.ndarray, lengths: tuple[float, ...]) -> np.ndarray:
    """Continuous (trigonometric-interpolant) Laplacian on a uniform lattice."""
    shape = values.shape
    per_axis = []
    for a, (n, L) in enumerate(zip(shape, lengths)):
        if a == len(shape) - 1:
            k = np.arange(n // 2 + 1)
        else:
            k = np.fft.fftfreq(n, d=1.0 / n)
        per_axis.append(-((2.0 * np.pi * k / L) ** 2))
    sym = per_axis[0]
    for arr in per_axis[1:]:
        sym = sym[..., None] + arr
    return np.fft.irfftn(np.fft.rfftn(values) * sym, s=shape, axes=tuple(range(len(shape))))


def _restrict_spectrum(values: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Band-limit a fine-lattice 2D field to a coarse lattice (Nyquist row/column dropped)."""
    m0, m1 = values.shape
    n0, n1 = shape
    fhat = np.fft.rfftn(values)
    out = np.zeros((n0, n1 // 2 + 1), dtype=complex)
    half0 = n0 // 2
    out[:half0, : n1 // 2] = fhat[:half0, : n1 // 2]
    out[-(half0 - 1):, : n1 // 2] = fhat[-(half0 - 1):, : n1 // 2]
    out *= (n0 * n1) / (m0 * m1)
    return np.fft.irfftn(out, s=shape, axes=(0, 1))


def manufactured_forcing_reference(grid: Grid, t: float, pp, refine_factor: int = 4) -> np.ndarray:
    """Manufactured forcing evaluated entirely on the refined 2D lattice.

    Every factor is a full-lattice sin/cos of the meshgrid; the outer
    Laplacian is applied on the fine lattice and the whole of S (time
    derivative included) is then band-limited to the coarse grid.  The
    composite formula for mu is the one ``fchsim.scenarios`` uses.
    """
    R = int(refine_factor)
    fine_shape = tuple(R * n for n in grid.shape)
    coords = [
        (np.arange(m) / m + 0.5 / n) * L
        for m, n, L in zip(fine_shape, grid.shape, grid.lengths)
    ]
    x, y = np.meshgrid(*coords, indexing="ij")

    cos_t = np.cos(t)
    phi = np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * (cos_t / np.pi)
    gx = 2.0 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) * cos_t
    gy = -2.0 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y) * cos_t
    grad_sq = gx * gx + gy * gy

    b = beta(phi)
    b1 = beta_prime(phi)
    b2 = beta_second(phi)
    lap_phi = -8.0 * np.pi**2 * phi
    bilap_phi = 64.0 * np.pi**4 * phi
    lap_b = b1 * lap_phi + b2 * grad_sq

    mu = (
        pp.eps**4 * bilap_phi
        + b * b1
        + pp.eps**2 * b2 * grad_sq
        - 2.0 * pp.eps**2 * lap_b
        - pp.lam * phi * b1
        + pp.eps**2 * (2.0 * pp.lam + pp.eps_p_eta) * lap_phi
        - (pp.lam + pp.eps_p_eta) * b
        + pp.lam * (pp.lam + pp.eps_p_eta) * phi
    )
    dphi_dt = -np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) * (np.sin(t) / np.pi)
    s_fine = dphi_dt - _fourier_laplacian(mu, grid.lengths)
    s = _restrict_spectrum(s_fine, grid.shape)
    return s - np.mean(s)


# The manufactured forcing evaluated on the whole refined lattice, in three
# lattice buffers, with one 2D transform of mu: the reference that the
# blocked ``fchsim.scenarios.manufactured_forcing``, which evaluates mu on
# about one sixteenth of the lattice, must match bit for bit.  Its axis
# samples follow the same rule, and mu is evaluated at every lattice point.


def _antisymmetric_axis(n: int, length: float, R: int) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of 2 pi x on a refined lattice axis of R*n points.

    On an even axis of m points, point i sits at (i + R/2)/m.  Its image
    under x -> 1/2 - x is the point m/2 - R - i, and the point i + m/2 lies
    half a period from i.  Below the midpoint of i and its image, a sample
    is the copy of its image's (sin equal, cos negated); from m/2 on it is
    the negation of the sample half a period before.  Every other point,
    and every point of an odd axis, is sampled on its own.
    """
    m = R * n
    x = (np.arange(m) / m + 0.5 / n) * length
    sin, cos = np.sin(2 * np.pi * x), np.cos(2 * np.pi * x)
    if m % 2 == 0:
        half = m // 2
        for i in range(half):
            image = half - R - i
            if i < image:
                sin[i] = sin[image]
                cos[i] = -cos[image]
        for i in range(half, m):
            sin[i] = -sin[i - half]
            cos[i] = -cos[i - half]
    return sin, cos


def _whole_lattice_band_laplacian(
    values: np.ndarray, shape: tuple[int, int], lengths: tuple[float, float]
) -> np.ndarray:
    m0, m1 = values.shape
    n0, n1 = shape
    half0, half1 = n0 // 2, n1 // 2
    fhat = np.fft.rfftn(values)
    out = np.zeros((n0, half1 + 1), dtype=complex)
    out[:half0, :half1] = fhat[:half0, :half1]
    out[-(half0 - 1):, :half1] = fhat[-(half0 - 1):, :half1]
    k0 = 2.0 * np.pi * np.fft.fftfreq(n0, d=1.0 / n0) / lengths[0]
    k1 = 2.0 * np.pi * np.arange(half1 + 1) / lengths[1]
    out *= -(k0[:, None] ** 2 + k1**2) * ((n0 * n1) / (m0 * m1))
    return np.fft.irfftn(out, s=shape, axes=(0, 1))


def whole_lattice_forcing(grid: Grid, t: float, pp, refine_factor: int = 4) -> np.ndarray:
    R = int(refine_factor)
    (sin_x, cos_x), (sin_y, cos_y) = (
        _antisymmetric_axis(n, L, R) for n, L in zip(grid.shape, grid.lengths)
    )
    sin_x, cos_x = sin_x[:, None], cos_x[:, None]

    cos_t = np.cos(t)
    phi = np.multiply(sin_x, cos_y)
    phi *= cos_t / np.pi
    grad_sq = np.multiply(2.0 * cos_x, cos_y)
    grad_sq *= cos_t
    grad_sq *= grad_sq
    work = np.multiply(-2.0 * sin_x, sin_y)
    work *= cos_t
    work *= work
    grad_sq += work

    b = beta(phi)
    b1 = beta_prime(phi)
    b2 = beta_second(phi)
    lap_coef = -8.0 * np.pi**2
    bilap_coef = 64.0 * np.pi**4
    mu = np.multiply(bilap_coef, phi)
    mu *= pp.eps**4
    mu += np.multiply(b, b1, out=work)
    np.multiply(pp.eps**2, b2, out=work)
    work *= grad_sq
    mu += work
    np.multiply(lap_coef, phi, out=work)
    work *= b1
    grad_sq *= b2
    work += grad_sq
    work *= 2.0 * pp.eps**2
    mu -= work
    np.multiply(pp.lam, phi, out=work)
    work *= b1
    mu -= work
    np.multiply(lap_coef, phi, out=work)
    work *= pp.eps**2 * (2.0 * pp.lam + pp.eps_p_eta)
    mu += work
    b *= pp.lam + pp.eps_p_eta
    mu -= b
    mu += np.multiply(pp.lam * (pp.lam + pp.eps_p_eta), phi, out=work)
    dphi_dt = -(sin_x[::R] * cos_y[::R]) * (np.sin(t) / np.pi)
    s = dphi_dt - _whole_lattice_band_laplacian(mu, grid.shape, grid.lengths)
    return s - np.mean(s)


def reference_line_minimize(g, cfg, g0: float | None = None, hint: float | None = None):
    """Root of the line objective g by doubling, then a secant/bisection hybrid.

    The search ``fchsim.solver.line_minimize`` replaced, kept as the
    baseline: the same (alpha, exhausted) contract, evaluations counted in
    ``g.evals``.  From the previous step length (1 without one, halved below
    the cap) the trial doubles until g >= 0 or the cap is reached; inside
    the bracket a secant cut is taken, and a bisection whenever the last cut
    did not halve the bracket.  It stops when |g| <= ls_tol |g(0)| on the
    right of the root, or when the bracket collapses to 1e-14.
    """
    if not np.any(g.d):
        return 0.0, False
    cap = masked_step_cap(g.phi, g.d, cfg.ls_margin)
    if g0 is None:
        g0 = g(0.0)
    if g0 == 0.0 or g0 > 0.0:
        return 0.0, False
    tol = cfg.ls_tol * abs(g0)

    lo, g_lo = 0.0, g0
    hi = hint if hint is not None and hint > 0.0 else 1.0
    while hi > cap:
        hi *= 0.5
    at_cap = False
    while True:
        if g.evals >= cfg.ls_max:
            raise RuntimeError(f"no sign change within {cfg.ls_max} evaluations")
        g_hi = g(hi)
        if g_hi >= 0.0:
            break
        if at_cap:
            return hi, False
        lo, g_lo = hi, g_hi
        hi *= 2.0
        if hi >= cap:
            hi = cap
            at_cap = True
    if abs(g_hi) <= tol:
        return hi, False

    best_alpha, best_val = hi, abs(g_hi)
    force_bisect = False
    while g.evals < cfg.ls_max:
        width = hi - lo
        if width <= 1e-14 * max(1.0, hi):
            return best_alpha, False
        denom = g_hi - g_lo
        alpha = hi - g_hi * width / denom if denom != 0 and not force_bisect else 0.5 * (lo + hi)
        if not (lo < alpha < hi):
            alpha = 0.5 * (lo + hi)
        val = g(alpha)
        if abs(val) < best_val:
            best_alpha, best_val = alpha, abs(val)
        if abs(val) <= tol:
            return alpha, False
        if val < 0.0:
            lo, g_lo = alpha, val
        else:
            hi, g_hi = alpha, val
        force_bisect = (hi - lo) > 0.5 * width
    return best_alpha, True
