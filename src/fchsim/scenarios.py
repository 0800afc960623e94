"""Initial conditions and presets for the four standard experiments.

Each scenario is one row of ``_PRESETS``: its grid, physical constants,
horizon and initial condition, following the experiment matrix:

* ``convergence`` -- manufactured single-mode solution on the unit square,
  eps = 0.5, eta = 1, lam = 3, p = 2, with an explicit forcing derived below.
* ``pearling`` -- a circular bilayer ring on the unit square whose interface
  width parameter ``ell`` selects between splitting into pearls and staying a
  ring; eps = 0.03, eta = 4, p = 1.
* ``meandering`` -- a flat stripe with two sinusoidal edges of incommensurate
  wavelengths 12 and 15.  The stripe thresholds (6.4 and -5.6) force a domain
  far larger than the unit square; the preset uses x-length 30 (the least
  common period of the two sinusoids) and y in (-7.5, 7.5).
* ``spinodal`` -- uniform 0.5 plus +-0.01 uniform noise; eps = 0.008,
  eta = 8, p = 1.

The double-well depth lam = log(19)/0.9 used by the physical presets places
the potential minima exactly at +-0.9 (see :func:`well_depth`).

The manufactured forcing makes Phi(x,y,t) = sin(2 pi x) cos(2 pi y) cos(t)/pi
an exact solution of the continuous equation: S = dPhi/dt - lap mu(Phi) with
the continuous chemical potential mu.  Composite potential terms are
evaluated pointwise from the closed form of Phi (using its analytic first
derivatives) on a refined lattice whose points contain the simulation cell
centers.  The outer Laplacian transforms mu on that lattice, keeps the band
the simulation grid resolves, multiplies it by the continuous Laplacian
symbol and synthesizes the result at the simulation resolution.  The time
derivative is a single resolved mode, so it is sampled at the cell centers
directly.

The refined lattice (16 times the simulation grid at the default
refinement) is never held whole.  mu is evaluated on the rows and columns
named below, those rows are transformed along the rows at once, keeping
only the columns below the simulation grid's Nyquist band, and the
transform along the columns then runs on those columns alone.  pocketfft
transforms each row and each column on its own, and each point of mu takes
the same operations whatever else is evaluated, so the forcing is
bit-identical to one 2D transform of mu evaluated on the whole lattice
from the same samples.

mu is evaluated on about one sixteenth of the lattice.  Phi changes sign
under a half-period shift of x or of y, and mu is odd in Phi (beta and
beta'' are odd, beta' and |grad Phi|^2 even), so mu changes sign under the
same shifts.  Under the reflection x -> 1/2 - x, sin(2 pi x) is unchanged
and cos(2 pi x) changes sign, which |grad Phi|^2 squares away, so mu is
even; under y -> 1/2 - y, Phi changes sign, so mu is odd.  On an axis with
an even number m of lattice points, point i sits at (i + R/2)/m: the point
i + m/2 lies half a period from i, and m/2 - R - i is its image under the
reflection.  Each axis is sampled on [k, m/2) only, with k = (m/2 - R + 1)
// 2.  An index below k takes its image's sin and negated cos, and an index
from m/2 on the negated samples of the one half a period before.  Rounding
to nearest is symmetric in sign, so mu at every copied point is exactly
mu, or its negation, at an evaluated one, and pocketfft gives equal
transforms of equal rows and rfft(-v) = -rfft(v) bit for bit.  So in the
evaluated rows the columns below k are filled by a negated, reversed copy
and those from m/2 on by negation before the row transform, the band rows
below k take their images' transformed rows, and the band rows from m/2 on
are the negations of the first ones before the column transform.  The
midpoint (m/2 - R)/2 of a point and its image, where it is a lattice point,
is evaluated: its cos is a rounded zero, which a negated copy would flip.
The R - 1 points between m/2 - R and m/2 have their images in the second
half, which the half-period shift already fills.  An axis with an odd
number of points mirrors nothing and is evaluated whole.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid
from .potential import PhysParams, beta, beta_prime, beta_second

__all__ = [
    "Scenario",
    "well_depth",
    "init_pearling",
    "init_meandering",
    "init_spinodal",
    "manufactured_state",
    "manufactured_forcing",
    "preset",
]

PEARLING_RADIUS = 0.42
PEARLING_AMPLITUDE = 0.9
SPINODAL_MEAN = 0.5
SPINODAL_NOISE = 0.01


def well_depth(r_star: float) -> float:
    """Well depth lam making the mixing potential minima sit at +-r_star."""
    if not 0 < r_star < 1:
        raise ValueError(f"well location must lie in (0, 1), got {r_star}")
    return float(beta(r_star) / r_star)


@dataclass(frozen=True)
class Scenario:
    """A named experiment: grid, physics, horizon and IC parameters."""

    name: str
    grid: Grid
    phys: PhysParams
    t_end: float
    seed: int = 0
    ell: float = 0.35

    def initial_condition(self) -> np.ndarray:
        return _row(self.name)[4](self)


def _require_unit_square(grid: Grid, what: str) -> None:
    if grid.ndim != 2 or any(abs(l - 1.0) > 1e-12 for l in grid.lengths):
        raise ValueError(f"{what} needs the unit square, got lengths {grid.lengths}")


def _require_finite_time(t: float) -> None:
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")


def init_pearling(
    grid: Grid, ell: float, eps: float, center: tuple[float, float] = (0.5, 0.5)
) -> np.ndarray:
    """Circular bilayer ring: 2A/cosh((dist - R)/(ell eps)) - A.

    The crest of the ring reaches +A at distance R = ``PEARLING_RADIUS`` from
    the center and the background tends to -A; with A = ``PEARLING_AMPLITUDE``
    = 0.9 the range stays inside [-0.9, 0.9].
    """
    if not 0 < ell < math.inf:
        raise ValueError(f"interface width factor ell must be positive and finite, got {ell}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not all(map(math.isfinite, center)):
        raise ValueError(f"center must be finite, got {center}")
    _require_unit_square(grid, "pearling initial condition")
    x, y = grid.mesh()
    dist = np.sqrt((x - center[0]) ** 2 + (y - center[1]) ** 2)
    amp, radius = PEARLING_AMPLITUDE, PEARLING_RADIUS
    return 2.0 * amp / np.cosh((dist - radius) / (ell * eps)) - amp


def init_meandering(grid: Grid) -> np.ndarray:
    """Stripe of +0.9 between two sinusoidal edges, -0.9 outside.

    The upper edge is 0.5 sin(4 pi x / 12) + 6.4 and the lower edge
    0.5 sin(4 pi x / 15) - 5.6, so the x-length must be a common period of
    both sinusoids (a multiple of 30) for periodic continuity, and the
    y-interval is centered: y ranges over (-len_y/2, len_y/2).
    """
    if grid.ndim != 2:
        raise ValueError("meandering initial condition needs a 2D grid")
    len_x, len_y = grid.lengths
    for period in (6.0, 7.5):
        ratio = len_x / period
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"x-length {len_x} is not a common period of the stripe edges "
                f"(needs a multiple of both 6 and 7.5)"
            )
    x, y_raw = grid.mesh()
    y = y_raw - 0.5 * len_y
    upper = 0.5 * np.sin(4.0 * np.pi * x / 12.0) + 6.4
    lower = 0.5 * np.sin(4.0 * np.pi * x / 15.0) - 5.6
    phi = np.full(grid.shape, 0.9)
    phi[(y > upper) | (y < lower)] = -0.9
    return phi


def init_spinodal(grid: Grid, seed: int) -> np.ndarray:
    """Uniform mixture 0.5 with +-0.01 uniform noise, deterministic per seed."""
    rng = np.random.default_rng(seed)
    r = rng.random(grid.shape)
    return SPINODAL_MEAN + SPINODAL_NOISE * (2.0 * r - 1.0)


def manufactured_state(grid: Grid, t: float) -> np.ndarray:
    """Exact test solution sin(2 pi x) cos(2 pi y) cos(t) / pi at cell centers."""
    _require_unit_square(grid, "manufactured solution")
    _require_finite_time(t)
    x, y = grid.mesh()
    return np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y) * (np.cos(t) / np.pi)


def _evaluated_span(m: int, R: int) -> tuple[int, int]:
    """Lattice indices [k, e) whose values are evaluated on an axis of m points.

    On an even axis the index m/2 - R - i is the image of i under the
    reflection x -> 1/2 - x, and i + m/2 lies half a period from i.  The
    indices below k = (m/2 - R + 1) // 2 are the images of indices in
    [k, m/2 - R], and those from e = m/2 on are shifts of the first half.
    An odd axis mirrors nothing: k = 0 and e = m.
    """
    if m % 2:
        return 0, m
    return (m // 2 - R + 1) // 2, m // 2


def _axis_samples(n: int, length: float, R: int) -> np.ndarray:
    """sin and cos of 2 pi x on one refined lattice axis, as two rows.

    The lattice has R*n points offset by half a simulation cell.  Only the
    evaluated span [k, e) is sampled.  Each index i below k takes the sin
    of its image r - i (r = m/2 - R) and the negated cos, and from e on
    each value is the negation of the one half a period before it, so mu
    at every copied point is an exact copy or negation of an evaluated one.
    """
    m = R * n
    k, e = _evaluated_span(m, R)
    r = e - R
    x = (np.arange(k, e) / m + 0.5 / n) * length
    out = np.empty((2, m))
    np.sin(2 * np.pi * x, out=out[0, k:e])
    np.cos(2 * np.pi * x, out=out[1, k:e])
    out[0, :k] = out[0, r : r - k : -1]
    np.negative(out[1, r : r - k : -1], out=out[1, :k])
    np.negative(out[:, : m - e], out=out[:, e:])
    return out


def _mu_rows(sin_x, cos_x, sin_y, cos_y, cos_t, pp, mu):
    """mu(Phi) on the lattice rows of ``sin_x``/``cos_x``, written into ``mu``.

    The operations run term by term in the order of the formula in the body,
    so each point gets the bits of that formula evaluated with fresh
    temporaries on the whole lattice.
    """
    phi = np.multiply(sin_x, cos_y)
    phi *= cos_t / np.pi
    # |grad phi|^2 = gx^2 + gy^2, gx = 2 cos_x cos_y cos t, gy = -2 sin_x sin_y cos t
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
    # The sampled state is a single resolved mode: its spectral Laplacian and
    # bilaplacian reduce to -8 pi^2 phi and 64 pi^4 phi exactly.  The chain
    # rule gives the composite Laplacian pointwise from the same closed forms;
    # differentiating beta(phi) through a transform instead would stack two
    # spectral symbols and amplify rounding noise beyond the self-convergence
    # target of the refinement check.
    lap_coef = -8.0 * np.pi**2
    bilap_coef = 64.0 * np.pi**4
    # mu = eps^4 bilap phi + b b1 + eps^2 b2 |grad phi|^2 - 2 eps^2 lap b
    #      - lam phi b1 + eps^2 (2 lam + eps^p eta) lap phi
    #      - (lam + eps^p eta) b + lam (lam + eps^p eta) phi,
    # with lap b = b1 lap phi + b2 |grad phi|^2, summed term by term in this
    # order.  Folding the terms linear in phi would round differently.
    np.multiply(bilap_coef, phi, out=mu)
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


def manufactured_forcing(
    grid: Grid, t: float, pp: PhysParams, refine_factor: int = 4
) -> np.ndarray:
    """Forcing S(., t) making the manufactured state an exact solution.

    The composites are sampled on a lattice refined by ``refine_factor`` and
    offset by half a simulation cell, from sin/cos of the two 1D axes.  The
    Laplacian of mu is its continuous Laplacian band-limited to the
    simulation grid: the coefficient block below the coarse Nyquist band
    of mu's lattice transform (Nyquist row and column dropped, where the
    content of smooth fields is negligible; truncation also discards the
    fine-band rounding noise that spectral differentiation amplifies),
    multiplied by the Laplacian symbol and synthesized at the cell
    centers.  The Laplacians of the sampled single mode are closed-form
    (its spectral derivative), and so is the time derivative, sampled at
    the cell centers (every ``refine_factor``-th fine point).  The residual
    mean (spectrally small) is removed so forced runs conserve the
    discrete mean exactly.

    The refined lattice is never held whole.  mu is evaluated on the
    lattice rows [k0, e0) and columns [k1, e1) only, about a quarter of
    each axis (``_evaluated_span``; on an odd axis the whole of it), and
    those rows are transformed at once (``rfft`` along the rows), keeping
    only the ``ny // 2`` band columns.  The column transform (``fft`` along
    the columns) then runs on those band columns alone.  The result is
    bit-identical to one 2D ``rfftn`` of mu on the whole lattice followed
    by the same truncation: ``rfftn`` is a row ``rfft`` then a column
    ``fft``, and pocketfft transforms each row and each column on its own,
    while each point of mu takes the same operations in the same order.

    The columns below k1 are filled by a negated, reversed copy of their
    images and those from e1 by negating the first ones before the row
    transform.  The band rows below k0 copy the transforms of their images,
    and those from e0 on are the negations of the first ones before the
    column transform.  The module docstring says why these copies are exact.
    """
    _require_unit_square(grid, "manufactured forcing")
    _require_finite_time(t)
    try:
        R = operator.index(refine_factor)
    except TypeError:
        raise ValueError(f"refine_factor must be an integer, got {refine_factor!r}") from None
    if R < 4:
        raise ValueError(f"refine_factor must be at least 4, got {refine_factor}")
    if min(grid.shape) < 4:
        raise ValueError(
            f"manufactured forcing needs at least 4 cells per axis, got shape {grid.shape}"
        )
    n0, n1 = grid.shape
    m0, m1 = R * n0, R * n1
    (k0, e0), (k1, e1) = _evaluated_span(m0, R), _evaluated_span(m1, R)
    r0, r1 = e0 - R, e1 - R
    half0, half1 = n0 // 2, n1 // 2
    (sin_x, cos_x), (sin_y, cos_y) = (
        _axis_samples(n, L, R) for n, L in zip(grid.shape, grid.lengths)
    )
    sin_x, cos_x = sin_x[:, None], cos_x[:, None]
    cos_t = np.cos(t)

    mu = np.empty((e0 - k0, m1))
    _mu_rows(sin_x[k0:e0], cos_x[k0:e0], sin_y[k1:e1], cos_y[k1:e1], cos_t, pp, mu[:, k1:e1])
    np.negative(mu[:, r1 : r1 - k1 : -1], out=mu[:, :k1])
    np.negative(mu[:, : m1 - e1], out=mu[:, e1:])
    band = np.empty((m0, half1), dtype=complex)
    band[k0:e0] = np.fft.rfft(mu, axis=1)[:, :half1]
    band[:k0] = band[r0 : r0 - k0 : -1]
    np.negative(band[: m0 - e0], out=band[e0:])
    np.fft.fft(band, axis=0, out=band)

    coef = np.zeros((n0, half1 + 1), dtype=complex)
    coef[:half0, :half1] = band[:half0]
    coef[-(half0 - 1):, :half1] = band[-(half0 - 1):]
    k0 = 2.0 * np.pi * np.fft.fftfreq(n0, d=1.0 / n0) / grid.lengths[0]
    k1 = 2.0 * np.pi * np.arange(half1 + 1) / grid.lengths[1]
    coef *= -(k0[:, None] ** 2 + k1**2) * ((n0 * n1) / (m0 * m1))
    lap_mu = np.fft.irfftn(coef, s=grid.shape, axes=(0, 1))
    dphi_dt = -(sin_x[::R] * cos_y[::R]) * (np.sin(t) / np.pi)
    s = dphi_dt - lap_mu
    return s - np.mean(s)


def _meandering_grid(cells: int) -> Grid:
    if cells % 2:
        raise ValueError("meandering preset needs an even x cell count")
    return Grid((cells, cells // 2), (30.0, 15.0))


_LAM_STAR = well_depth(0.9)

# name -> (default x cell count, grid from the cell count, physics, horizon,
# initial condition from the scenario); the builders look the init functions
# up when called, so a rebinding of the module's name is seen
_PRESETS = {
    "pearling": (
        256, Grid.square, PhysParams(eps=0.03, eta=4.0, lam=_LAM_STAR, p=1), 10.0,
        lambda s: init_pearling(s.grid, s.ell, s.phys.eps),
    ),
    "meandering": (
        1024, _meandering_grid, PhysParams(eps=0.01, eta=10.0, lam=_LAM_STAR, p=1), 100.0,
        lambda s: init_meandering(s.grid),
    ),
    "spinodal": (
        256, Grid.square, PhysParams(eps=0.008, eta=8.0, lam=_LAM_STAR, p=1), 1.0,
        lambda s: init_spinodal(s.grid, s.seed),
    ),
    "convergence": (
        128, Grid.square, PhysParams(eps=0.5, eta=1.0, lam=3.0, p=2), 0.32,
        lambda s: manufactured_state(s.grid, 0.0),
    ),
}


def _row(name: str) -> tuple:
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(_PRESETS)}")
    return _PRESETS[name]


def preset(name: str, n: Optional[int] = None, seed: int = 0) -> Scenario:
    """Build one of the named experiments with its published parameter set."""
    cells, make_grid, phys, horizon, _ = _row(name)
    return Scenario(name, make_grid(cells if n is None else n), phys, horizon, seed)
