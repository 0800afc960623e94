"""Logarithmic Flory-Huggins potential family with singularity guards.

All functions are defined on (-1, 1) only.  Evaluation at or beyond the pure
states +-1 raises :class:`PotentialDomainError` instead of clamping: the
scheme guarantees interior iterates, so an excursion always means a solver
bug or an oversized trial step that the caller must shrink.

Monotone part of the mixing derivative and its derivatives:

    beta(r)   = log((1 + r) / (1 - r))
    beta'(r)  = 2 / (1 - r^2)            >= 2
    beta''(r) = 4 r / (1 - r^2)^2

Mixing energy density and friends, with well depth lambda:

    B(r) = (1 + r) log(1 + r) + (1 - r) log(1 - r)     (convex part)
    F(r) = B(r) - lambda r^2 / 2
    f(r) = F'(r) = beta(r) - lambda r
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysParams",
    "PotentialDomainError",
    "beta",
    "beta_prime",
    "beta_second",
    "mixing_family",
    "admissible",
    "require_admissible",
]


class PotentialDomainError(ValueError):
    """A phase value reached or crossed the pure states +-1."""


@dataclass(frozen=True)
class PhysParams:
    """Model constants: interface width eps, functionalization strength eta,
    well depth lam, and the functionalization exponent p (1 strong, 2 weak)."""

    eps: float
    eta: float
    lam: float
    p: int = 1

    def __post_init__(self):
        if self.eps <= 0 or self.eta <= 0 or self.lam <= 0:
            raise ValueError(
                f"eps, eta, lam must be positive, got {self.eps}, {self.eta}, {self.lam}"
            )
        if self.p not in (1, 2):
            raise ValueError(f"functionalization exponent p must be 1 or 2, got {self.p}")

    @property
    def eps_p_eta(self) -> float:
        """The combination eps^p * eta appearing throughout the model."""
        return self.eps**self.p * self.eta


def beta(r):
    require_admissible(r, "phase value")
    return np.log1p(r) - np.log1p(-r)


def beta_prime(r):
    require_admissible(r, "phase value")
    return 2.0 / (1.0 - np.square(r))


def beta_second(r):
    require_admissible(r, "phase value")
    return 4.0 * r / np.square(1.0 - np.square(r))


def mixing_family(r, pp: PhysParams):
    """Mixing energy density pieces (B, F, f) at r.

    B is the convex logarithmic part, F = B - lam r^2 / 2 the full density,
    f = F' its derivative.
    """
    require_admissible(r, "phase value")
    r = np.asarray(r, dtype=float)
    B = (1.0 + r) * np.log1p(r) + (1.0 - r) * np.log1p(-r)
    F = B - 0.5 * pp.lam * np.square(r)
    f = np.log1p(r) - np.log1p(-r) - pp.lam * r
    return B, F, f


def admissible(f: np.ndarray) -> bool:
    """True when every value lies strictly inside (-1, 1); NaN never does."""
    f = np.asarray(f)
    return bool(f.max() < 1.0 and f.min() > -1.0)


def require_admissible(f: np.ndarray, what: str = "field") -> None:
    """Raise PotentialDomainError unless the field is strictly inside (-1, 1)."""
    if not admissible(f):
        raise PotentialDomainError(
            f"{what} is not strictly separated from the pure states: "
            f"sup norm {float(np.max(np.abs(f))):.17g}"
        )
