"""Periodic cell-centered grids and their discrete calculus.

Scalar fields live at cell centers ((i + 1/2) * h per axis) and are stored as
plain float64 ndarrays of shape ``grid.shape``.  Face fields carry one array
per axis; component ``axis`` at index ``i`` holds the value on the face
between cells ``i`` and ``i + 1`` (periodic wrap at the last index).

The difference/average stencils come in cell->face (``face_diff``,
``face_avg``) and face->cell (``cell_diff``, ``cell_avg``) pairs, chosen so
that the summation-by-parts identity

    <psi, sum_axis cell_diff(F_axis)> = -sum_axis [face_diff(psi), F_axis]

holds exactly (up to round-off) on any periodic grid, with [., .] the plain
face sum times the cell volume.  The Laplacian is the standard 3/5-point
stencil, and ``SpectralWorkspace`` diagonalizes it with real FFTs for the
solver preconditioner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

__all__ = [
    "Grid",
    "SpectralWorkspace",
    "face_diff",
    "face_avg",
    "cell_diff",
    "cell_avg",
    "laplacian",
    "inner",
    "norm",
    "grad_norm_sq",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic rectangular mesh with cell-centered samples.

    ``shape[a]`` cells of spacing ``spacing[a] = lengths[a] / shape[a]`` along
    each axis; cell centers sit at ``(i + 1/2) * spacing[a]``.
    """

    shape: tuple[int, ...]
    lengths: tuple[float, ...]

    def __post_init__(self):
        if not all(isinstance(n, Integral) for n in self.shape):
            raise ValueError(f"cell counts must be integers, got {self.shape}")
        shape = tuple(int(n) for n in self.shape)
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        if len(shape) != len(lengths):
            raise ValueError(f"shape {shape} and lengths {lengths} disagree on dimension")
        if len(shape) not in (1, 2):
            raise ValueError(f"only 1D and 2D grids are supported, got {len(shape)}D")
        if any(n < 2 for n in shape):
            raise ValueError(f"need at least 2 cells per axis, got {shape}")
        if not all(0.0 < l < math.inf for l in lengths):
            raise ValueError(f"domain lengths must be positive and finite, got {lengths}")

    @classmethod
    def square(cls, n: int) -> "Grid":
        return cls((n, n), (1.0, 1.0))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    # Computed once per grid: the stencils read the spacing on every call.
    # The cached values are not fields, so repr, equality and hashing are
    # those of (shape, lengths).
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis."""
        return tuple(
            (np.arange(n) + 0.5) * h for n, h in zip(self.shape, self.spacing)
        )

    def mesh(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, shaped like a field."""
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))


def _check_same_grid(f: np.ndarray, g: np.ndarray, grid: Grid) -> None:
    if f.shape != grid.shape or g.shape != grid.shape:
        raise ValueError(
            f"field shapes {f.shape}, {g.shape} do not match grid shape {grid.shape}"
        )


# Periodic stencils
#
# Each stencil is one call of ``_pair`` plus a scalar scaling, in place of
# the np.roll copies of the plain expressions in the docstrings.  The
# operations and their order are those of the plain expressions, so the
# results are bit-identical to them.


def _pair(ufunc, x: np.ndarray, y: np.ndarray, axis: int, out: np.ndarray, upper: bool):
    """ufunc(x_{i+1}, y_i) for each i along ``axis``, periodic, into ``out``.

    The value of the pair (i, i+1) lands at index i, or at i + 1 when
    ``upper``.  The interior runs over the flattened arrays, where one step
    along ``axis`` is a fixed offset, so it is one contiguous ufunc call for
    either axis.  Along the last axis of a 2D array that call also writes
    pairs that straddle two rows into the wrapped layer; the second call
    then writes the true wrapped pairs over them.  ``out`` must be
    C-contiguous and must not overlap ``x`` or ``y``.
    """
    step = math.prod(x.shape[axis + 1:])
    xf, yf, of = x.reshape(-1), y.reshape(-1), out.reshape(-1)
    ufunc(xf[step:], yf[:-step], out=of[step:] if upper else of[:-step])
    head = (slice(None),) * axis
    first, last = head + (slice(None, 1),), head + (slice(-1, None),)
    ufunc(x[first], y[last], out=out[first if upper else last])
    return out


# cell -> face stencils


def _out(out: np.ndarray | None, f: np.ndarray) -> np.ndarray:
    """``out``, checked to fit f, or a fresh field shaped like f.

    A given ``out`` must be a C-contiguous float64 array of f's shape that
    does not overlap f; the stencils taking ``out=`` write their result
    there.
    """
    if out is None:
        return np.empty(f.shape)
    if out.shape != f.shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {f.shape}")
    return out


def face_diff(
    f: np.ndarray, grid: Grid, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward difference onto faces: (f_{i+1} - f_i) / h."""
    out = _pair(np.subtract, f, f, axis, _out(out, f), upper=False)
    out /= grid.spacing[axis]
    return out


def face_avg(
    f: np.ndarray, grid: Grid, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Forward average onto faces: (f_{i+1} + f_i) / 2."""
    out = _pair(np.add, f, f, axis, _out(out, f), upper=False)
    out *= 0.5
    return out


# face -> cell stencils


def cell_diff(g: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Difference of the two faces of a cell: (g_{i+1/2} - g_{i-1/2}) / h."""
    out = _pair(np.subtract, g, g, axis, np.empty(g.shape), upper=True)
    out /= grid.spacing[axis]
    return out


def cell_avg(
    g: np.ndarray, grid: Grid, axis: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Average of the two faces of a cell: (g_{i+1/2} + g_{i-1/2}) / 2."""
    out = _pair(np.add, g, g, axis, _out(out, g), upper=True)
    out *= 0.5
    return out


def laplacian(
    f: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Standard 3/5-point periodic Laplacian (div of grad).

    Per axis (f_{i+1} - 2 f_i + f_{i-1}) / h^2, summed over axes.
    ``scratch``, if given, is two fields the stencil works in, each checked
    like ``out``; neither may overlap f, out or the other.
    """
    out = _out(out, f)
    two_f, ahead = (_out(s, f) for s in (scratch or (None, None)))
    np.multiply(2.0, f, out=two_f)
    for a in range(grid.ndim):
        _pair(np.subtract, f, two_f, a, ahead, upper=False)
        # The first axis's term is the sum so far; the last axis no longer
        # needs 2 f, so its term goes there (grids have at most two axes).
        term = out if a == 0 else two_f
        _pair(np.add, ahead, f, a, term, upper=True)
        term /= grid.spacing[a] ** 2
        if a > 0:
            out += term
    return out


# inner products and norms


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Sum of u * v over the grid, without forming the product field."""
    return float(np.vdot(u, v))


def inner(f: np.ndarray, g: np.ndarray, grid: Grid) -> float:
    """Cell-volume-weighted inner product <f, g>."""
    _check_same_grid(f, g, grid)
    return grid.cell_volume * _dot(f, g)


def grad_norm_sq(f: np.ndarray, grid: Grid) -> float:
    """Squared discrete L2 norm of the face-centered gradient."""
    total = 0.0
    for a in range(grid.ndim):
        df = face_diff(f, grid, a)
        total += _dot(df, df)
    return grid.cell_volume * total


def norm(f: np.ndarray, grid: Grid, kind: str = "l2") -> float:
    """Discrete norm of a cell field: 'l2', or 'h2' (l2, gradient and Laplacian parts)."""
    kind = kind.lower()
    if kind == "l2":
        return float(np.sqrt(inner(f, f, grid)))
    if kind == "h2":
        lap = laplacian(f, grid)
        return float(
            np.sqrt(inner(f, f, grid) + grad_norm_sq(f, grid) + inner(lap, lap, grid))
        )
    raise ValueError(f"unknown norm kind {kind!r}")


# spectral diagonalization of the stencil Laplacian


def _stencil_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of -laplacian per discrete wavenumber, rfftn layout.

    Along each axis the 3-point stencil acting on the mode exp(2*pi*i*k*x/L)
    has eigenvalue -(4/h^2) sin^2(pi k / n); the rfft layout keeps the full
    frequency range on all axes except the last, which is halved.
    """
    per_axis = []
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        if a == grid.ndim - 1:
            k = np.arange(n // 2 + 1)
        else:
            k = np.fft.fftfreq(n, d=1.0 / n)
        per_axis.append((4.0 / h**2) * np.sin(np.pi * k / n) ** 2)
    sigma = per_axis[0]
    for arr in per_axis[1:]:
        sigma = sigma[..., None] + arr
    return sigma


@dataclass
class SpectralWorkspace:
    """FFT machinery diagonalizing the stencil Laplacian on one grid.

    Owns precomputed eigenvalues of ``-laplacian`` and the solver
    preconditioner symbol last computed, as a (key, symbol) pair.  Not shared
    between concurrent simulations; each trajectory owns its workspace.
    """

    grid: Grid
    sigma: np.ndarray = field(init=False, repr=False)
    _symbol: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.sigma = _stencil_eigenvalues(self.grid)

    def forward(self, f: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(f)

    def inverse(self, fhat: np.ndarray) -> np.ndarray:
        shape = self.grid.shape
        return np.fft.irfftn(fhat, s=shape, axes=tuple(range(len(shape))))
