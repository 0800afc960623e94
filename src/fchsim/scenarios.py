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
centers.  The outer Laplacian takes one transform of mu on that lattice,
keeps the band the simulation grid resolves, multiplies it by the continuous
Laplacian symbol and synthesizes the result at the simulation resolution.
The time derivative is a single resolved mode, so it is sampled at the cell
centers directly.
"""

from __future__ import annotations

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


def init_pearling(
    grid: Grid, ell: float, eps: float, center: tuple[float, float] = (0.5, 0.5)
) -> np.ndarray:
    """Circular bilayer ring: 2A/cosh((dist - R)/(ell eps)) - A.

    The crest of the ring reaches +A at distance R = ``PEARLING_RADIUS`` from
    the center and the background tends to -A; with A = ``PEARLING_AMPLITUDE``
    = 0.9 the range stays inside [-0.9, 0.9].
    """
    if ell <= 0:
        raise ValueError(f"interface width factor ell must be positive, got {ell}")
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
    x, y = grid.mesh()
    return np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y) * (np.cos(t) / np.pi)


def _band_laplacian(
    values: np.ndarray, shape: tuple[int, int], lengths: tuple[float, float]
) -> np.ndarray:
    """Continuous Laplacian of a fine-lattice 2D field, band-limited to ``shape``.

    Both lattices must share the same physical offset.  The coefficient block
    below the coarse Nyquist band is kept (Nyquist row/column dropped, where
    the content of smooth fields is negligible), multiplied by the Laplacian
    symbol and synthesized at the coarse resolution.  Truncation also
    discards the fine-band rounding noise that spectral differentiation
    amplifies.
    """
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


def manufactured_forcing(
    grid: Grid, t: float, pp: PhysParams, refine_factor: int = 4
) -> np.ndarray:
    """Forcing S(., t) making the manufactured state an exact solution.

    The composites are sampled on a lattice refined by ``refine_factor`` and
    offset by half a simulation cell, built by broadcasting sin/cos of the
    two 1D axes.  One transform of mu on that lattice, truncated to the band
    the simulation grid resolves, gives its Laplacian at the cell centers.
    The Laplacians of the sampled single mode are closed-form (its spectral
    derivative), and so is the time derivative, sampled at the cell centers
    (every ``refine_factor``-th fine point).  The residual mean (spectrally
    small) is removed so forced runs conserve the discrete mean exactly.
    """
    _require_unit_square(grid, "manufactured forcing")
    if refine_factor < 4:
        raise ValueError(f"refine_factor must be at least 4, got {refine_factor}")
    if min(grid.shape) < 4:
        raise ValueError(
            f"manufactured forcing needs at least 4 cells per axis, got shape {grid.shape}"
        )
    R = int(refine_factor)
    x, y = (
        (np.arange(R * n) / (R * n) + 0.5 / n) * L for n, L in zip(grid.shape, grid.lengths)
    )
    sin_x = np.sin(2 * np.pi * x)[:, None]
    cos_x = np.cos(2 * np.pi * x)[:, None]
    sin_y = np.sin(2 * np.pi * y)
    cos_y = np.cos(2 * np.pi * y)

    cos_t = np.cos(t)
    mode = sin_x * cos_y
    phi = mode * (cos_t / np.pi)
    gx = 2.0 * cos_x * cos_y * cos_t
    gy = -2.0 * sin_x * sin_y * cos_t
    grad_sq = gx * gx + gy * gy

    b = beta(phi)
    b1 = beta_prime(phi)
    b2 = beta_second(phi)
    # The sampled state is a single resolved mode: its spectral Laplacian and
    # bilaplacian reduce to -8 pi^2 phi and 64 pi^4 phi exactly.  The chain
    # rule gives the composite Laplacian pointwise from the same closed forms;
    # differentiating beta(phi) through a transform instead would stack two
    # spectral symbols and amplify rounding noise beyond the self-convergence
    # target of the refinement check.
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
    dphi_dt = -mode[::R, ::R] * (np.sin(t) / np.pi)
    s = dphi_dt - _band_laplacian(mu, grid.shape, grid.lengths)
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
