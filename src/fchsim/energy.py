"""Discrete FCH energy, its convex-concave split, and the per-step system.

The free energy of a phase field phi couples the squared Cahn-Hilliard
chemical potential against the Cahn-Hilliard energy itself.  After
integrating the mixed term by parts (periodic boundary), the discrete energy
splits as E = E_c - E_e with both parts convex on admissible fields:

    E_c = eps^4/2 ||lap phi||^2 + 1/2 ||beta(phi)||^2
          + (lam^2 + lam eps^p eta)/2 ||phi||^2
          + eps^2 <beta'(phi), sum_axis avg(|D_axis phi|^2)>

    E_e = (eps^{2+p} eta / 2 + lam eps^2) ||grad phi||^2
          + lam <phi, beta(phi)> + eps^p eta <B(phi), 1>

Treating E_c implicitly and E_e explicitly gives the semi-implicit step

    (phi_new - phi_old) / dt = lap mu,
    mu = var_convex(phi_new) - var_concave(phi_old),

which this module exposes in solver-friendly form: the nonlinear map
N(phi) = phi/dt - lap var_convex(phi) and the explicit right-hand side
f = phi_old/dt - lap var_concave(phi_old), so that one step solves
N(phi_new) = f.

Every function here that takes a state converts it to float64 first, so a
float32 or integer state gives the bits of the same values in float64.

The mixed gradient term is evaluated exactly as written, face-square then
cell-average; the convexity of E_c depends on that ordering.  The biharmonic
is two Laplacian applications, never a fused stencil.

The stencil terms of var_convex that do not involve beta are its LinearTerms:
lap^2 phi, the face differences D_axis phi and gsq = sum_axis avg(|D_axis phi|^2).
``linear_terms`` is the one place they are built from phi; var_convex,
nonlinear_map and energy_total call it unless the caller passes terms in.
Terms built from phi itself give exactly the from-scratch result.

Each piece of a state is computed once per step, and who computes it hands
it on as an optional argument of the function that needs it.  This is the
one list of those hand-offs:

* ``linear_terms`` keeps lap phi, the intermediate of lap^2 phi.
* The solver builds the terms from each iterate, into the arrays of the
  terms of the iterate before it.  Its line evaluation computes beta and
  beta' at the point it evaluates; when the step taken is that point
  (nearly always), the solve hands them to the terms of the new iterate,
  and the residual there takes them instead of computing them (see
  ``fchsim.solver``).
* var_convex takes beta(phi) and beta'(phi) from the terms when they are
  there, and records on the terms the ones it computes itself, and its
  result as ``terms.convex``.
* ``energy_total`` reads lap phi, D phi and gsq from the terms, and
  beta'(phi) when they carry it; beta(phi) always comes from
  ``mixing_family``, which takes the logarithms B needs anyway.
* The step takes var_concave(phi_old) from the step before it (the time
  loop carries it into every attempt from phi_old; only the loop's first
  state is computed from scratch) and hands it to the solve, for
  ``rhs_explicit``, and to ``chemical_potential``.
* The solve returns the terms of the state it returns, built from that
  state and carrying lap phi, beta, beta' and var_convex from the residual
  that ended the solve (``SolveReport.terms``).  The step hands them to
  ``energy_total``, their var_convex to ``chemical_potential``, which
  overwrites it with mu, and their lap phi, beta and beta' to
  ``var_concave``, whose result for the new state it returns for the next
  step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    _dot,
    cell_avg,
    cell_diff,
    face_avg,
    face_diff,
    inner,
    laplacian,
)
from .potential import (
    PhysParams,
    beta,
    beta_prime,
    beta_second,
    mixing_family,
    require_admissible,
)

__all__ = [
    "EnergyBreakdown",
    "LinearTerms",
    "linear_terms",
    "energy_total",
    "var_convex",
    "var_concave",
    "nonlinear_map",
    "rhs_explicit",
    "chemical_potential",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """All energies monitored along a run.

    ``total = convex - concave`` holds to round-off, and
    ``willmore = total + eps^p eta * cahn_hilliard`` by construction.
    """

    total: float
    convex: float
    concave: float
    cahn_hilliard: float
    willmore: float


@dataclass
class LinearTerms:
    """The stencil terms of var_convex at phi that do not involve beta.

    ``bilap`` is lap^2 phi, ``dphi`` holds the face differences D_axis phi
    per axis, ``gsq`` is the cell field sum_axis avg(|D_axis phi|^2) and
    ``lap`` is lap phi, the intermediate of ``bilap``.

    The other fields are pieces of phi that are known when they are not
    None: ``beta`` and ``beta_prime`` are beta(phi) and beta'(phi), and
    ``convex`` is var_convex(phi).  The module docstring lists who sets and
    reads each.
    """

    bilap: np.ndarray
    dphi: list[np.ndarray]
    gsq: np.ndarray
    lap: np.ndarray
    beta: np.ndarray | None = None
    beta_prime: np.ndarray | None = None
    convex: np.ndarray | None = None


def linear_terms(
    phi: np.ndarray, grid: Grid, out: LinearTerms | None = None
) -> LinearTerms:
    """Build the LinearTerms of phi from its stencils, keeping lap phi.

    ``out`` may be spent LinearTerms on the same grid, which nothing reads
    any more: the new terms are built into its arrays, with the bits of a
    build into fresh ones, and returned with no other piece set.
    """
    phi = np.asarray(phi, dtype=float)
    if out is None:
        lap = bilap = gsq = None
        dphi = [None] * grid.ndim
    else:
        lap, bilap, gsq, dphi = out.lap, out.bilap, out.gsq, out.dphi
    dphi = [face_diff(phi, grid, a, out=da) for a, da in enumerate(dphi)]
    lap = laplacian(phi, grid, out=lap)
    bilap = laplacian(lap, grid, out=bilap)
    gsq = cell_avg(dphi[0] * dphi[0], grid, 0, out=gsq)
    for a in range(1, grid.ndim):
        gsq += cell_avg(dphi[a] * dphi[a], grid, a)
    return LinearTerms(bilap, dphi, gsq, lap)


def energy_total(
    phi: np.ndarray, grid: Grid, pp: PhysParams, terms: LinearTerms | None = None
) -> EnergyBreakdown:
    """Full energy with its split and the CH / Willmore diagnostics.

    ``terms`` may carry the LinearTerms of phi; they are built from phi
    when not given.  lap phi, D phi and avg(|D phi|^2) are read from them,
    and beta'(phi) too when they carry it.  beta(phi) always comes from
    ``mixing_family``.
    """
    phi = np.asarray(phi, dtype=float)
    require_admissible(phi, "energy argument")
    B, F, b = mixing_family(phi, pp)
    if terms is None:
        terms = linear_terms(phi, grid)
    b1 = terms.beta_prime if terms.beta_prime is not None else beta_prime(phi)
    dphi, lap, avg_sq = terms.dphi, terms.lap, terms.gsq
    vol = grid.cell_volume
    gsq = vol * sum(_dot(da, da) for da in dphi)

    quad = 0.5 * (pp.lam**2 + pp.lam * pp.eps_p_eta)
    e_c = (
        0.5 * pp.eps**4 * inner(lap, lap, grid)
        + 0.5 * inner(b, b, grid)
        + quad * inner(phi, phi, grid)
        + pp.eps**2 * inner(b1, avg_sq, grid)
    )
    grad_coeff = 0.5 * pp.eps**2 * pp.eps_p_eta + pp.lam * pp.eps**2
    e_e = (
        grad_coeff * gsq
        + pp.lam * inner(phi, b, grid)
        + pp.eps_p_eta * (vol * float(np.sum(B)))
    )
    total = e_c - e_e
    e_ch = 0.5 * pp.eps**2 * gsq + vol * float(np.sum(F))
    return EnergyBreakdown(
        total=total,
        convex=e_c,
        concave=e_e,
        cahn_hilliard=e_ch,
        willmore=total + pp.eps_p_eta * e_ch,
    )


def var_convex(
    phi: np.ndarray, grid: Grid, pp: PhysParams, terms: LinearTerms | None = None
) -> np.ndarray:
    """Variational derivative of the convex energy part.

    ``terms`` may carry the LinearTerms of phi; they are built from phi when
    not given.  beta(phi) and beta'(phi) are taken from the terms when they
    are there; otherwise they are computed and recorded on the terms.  The
    result is recorded on the terms as ``convex``.  The beta kernels raise
    PotentialDomainError on an inadmissible phi.
    """
    phi = np.asarray(phi, dtype=float)
    if terms is None:
        terms = linear_terms(phi, grid)
    if terms.beta is None:
        terms.beta, terms.beta_prime = beta(phi), beta_prime(phi)
    b, b1 = terms.beta, terms.beta_prime
    out = pp.eps**4 * terms.bilap
    flux = np.empty(phi.shape)
    out += np.multiply(b, b1, out=flux)
    out += pp.lam * (pp.lam + pp.eps_p_eta) * phi
    mixed = beta_second(phi)
    mixed *= terms.gsq
    for a in range(grid.ndim):
        face_avg(b1, grid, a, out=flux)
        flux *= terms.dphi[a]
        div = cell_diff(flux, grid, a)
        div *= 2.0
        mixed -= div
    mixed *= pp.eps**2
    out += mixed
    terms.convex = out
    return out


def var_concave(
    phi: np.ndarray, grid: Grid, pp: PhysParams, terms: LinearTerms | None = None
) -> np.ndarray:
    """Variational derivative of the concave energy part.

    ``terms`` may carry the LinearTerms of phi with beta and beta_prime set,
    as the solve returns them; the result then needs no stencil and no
    logarithm, and has the bits of the one from phi.  Without them the
    pieces are computed from phi, and the beta kernels raise
    PotentialDomainError on an inadmissible phi.
    """
    phi = np.asarray(phi, dtype=float)
    if terms is None:
        lap, b, b1 = laplacian(phi, grid), beta(phi), beta_prime(phi)
    else:
        lap, b, b1 = terms.lap, terms.beta, terms.beta_prime
    # -eps^2 (2 lam + eps^p eta) lap + (lam phi) b1 + (lam + eps^p eta) b, in this order
    out = np.multiply(lap, -pp.eps**2 * (2.0 * pp.lam + pp.eps_p_eta))
    work = np.multiply(phi, pp.lam)
    work *= b1
    out += work
    out += np.multiply(b, pp.lam + pp.eps_p_eta, out=work)
    return out


def nonlinear_map(
    phi: np.ndarray,
    dt: float,
    grid: Grid,
    pp: PhysParams,
    terms: LinearTerms | None = None,
) -> np.ndarray:
    """Implicit side of one step: N(phi) = phi/dt - lap var_convex(phi).

    ``terms`` is passed on to var_convex, which builds them from phi when
    not given and records var_convex(phi) on them.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got {dt}")
    phi = np.asarray(phi, dtype=float)
    return phi / dt - laplacian(var_convex(phi, grid, pp, terms), grid)


def rhs_explicit(
    phi_old: np.ndarray,
    dt: float,
    grid: Grid,
    pp: PhysParams,
    concave: np.ndarray | None = None,
) -> np.ndarray:
    """Explicit side of one step: f = phi_old/dt - lap var_concave(phi_old).

    Defined so that solving N(phi_new) = f reproduces the semi-implicit
    scheme with mu = var_convex(phi_new) - var_concave(phi_old); the mean of
    f equals mean(phi_old)/dt since the Laplacian term is mean-free.
    ``concave`` may carry var_concave(phi_old); it is computed when not given.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"time step must be positive and finite, got {dt}")
    phi_old = np.asarray(phi_old, dtype=float)
    if concave is None:
        concave = var_concave(phi_old, grid, pp)
    return phi_old / dt - laplacian(concave, grid)


def chemical_potential(convex: np.ndarray, concave: np.ndarray) -> np.ndarray:
    """Chemical potential mu = var_convex(phi_new) - var_concave(phi_old) of a step.

    Takes the two variational derivatives, as the step has them, and
    subtracts in place in ``convex``, which it returns.
    """
    convex -= concave
    return convex
