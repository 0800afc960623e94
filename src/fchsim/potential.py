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

beta and beta' are in-place kernels, shared with the solver's line evaluation.
``_sup`` is the one reading of a field's distance to the pure states,
max |f|, for the domain checks here and the solver's step cap, predictor
headroom and reported margin.
"""

from __future__ import annotations

import math
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
        for name in ("eps", "eta", "lam"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.p not in (1, 2):
            raise ValueError(f"functionalization exponent p must be 1 or 2, got {self.p}")

    @property
    def eps_p_eta(self) -> float:
        """The combination eps^p * eta appearing throughout the model."""
        return self.eps**self.p * self.eta


# Each function below computes the expression in its comment with the same
# operations in the same order, into buffers it is given or allocates once.


def _buffers(r, count: int):
    """r as a float64 array, then ``count`` fresh arrays shaped like it.

    A 0-d r gets 0-d buffers: ufuncs accept those as ``out=``, but return a
    numpy scalar, which is no buffer, when given a 0-d input without one.
    """
    r = np.asarray(r, dtype=float)
    return (r, *(np.empty_like(r) for _ in range(count)))


def _result(a: np.ndarray):
    """The array itself, or its numpy float64 value when it is 0-d."""
    return a if a.ndim else a[()]


def _beta(r: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    # log1p(r) - log1p(-r), into out; work is scratch
    np.log1p(r, out=out)
    out -= np.log1p(np.negative(r, out=work), out=work)
    return out


def _beta_prime(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    # 2 / (1 - r^2), into out
    np.square(r, out=out)
    np.subtract(1.0, out, out=out)
    np.divide(2.0, out, out=out)
    return out


def beta(r):
    require_admissible(r, "phase value")
    return _result(_beta(*_buffers(r, 2)))


def beta_prime(r):
    require_admissible(r, "phase value")
    return _result(_beta_prime(*_buffers(r, 1)))


def beta_second(r):
    # 4 r / (1 - r^2)^2
    require_admissible(r, "phase value")
    r, out, work = _buffers(r, 2)
    np.square(r, out=work)
    np.subtract(1.0, work, out=work)
    np.square(work, out=work)
    np.multiply(4.0, r, out=out)
    out /= work
    return _result(out)


def mixing_family(r, pp: PhysParams):
    """Mixing energy density pieces (B, F, beta) at r.

    B is the convex logarithmic part, F = B - lam r^2 / 2 the full density;
    beta(r) comes from the log1p pair B needs, with the bits of ``beta``.
    """
    # B = (1 + r) log1p(r) + (1 - r) log1p(-r)
    # F = B - (lam / 2) r^2
    # b = log1p(r) - log1p(-r)
    require_admissible(r, "phase value")
    r, B, F, b, work = _buffers(r, 4)
    np.log1p(r, out=b)
    np.log1p(np.negative(r, out=work), out=work)
    np.add(1.0, r, out=B)
    B *= b
    np.subtract(1.0, r, out=F)
    F *= work
    B += F
    np.square(r, out=F)
    F *= 0.5 * pp.lam
    np.subtract(B, F, out=F)
    b -= work
    return _result(B), _result(F), _result(b)


def _sup(f: np.ndarray) -> float:
    """max |f| over the array, without forming |f|; NaN when f holds a NaN.

    abs and negation are exact, so the value equals max |f|.  f.max() is the
    first argument so that a field of +0.0 gives +0.0.
    """
    return max(float(f.max()), -float(f.min()))


def admissible(f: np.ndarray) -> bool:
    """True when every value lies strictly inside (-1, 1); NaN never does."""
    return _sup(np.asarray(f)) < 1.0


def require_admissible(f: np.ndarray, what: str = "field") -> None:
    """Raise PotentialDomainError unless the field is strictly inside (-1, 1)."""
    if not admissible(f):
        raise PotentialDomainError(
            f"{what} is not strictly separated from the pure states: "
            f"sup norm {_sup(np.asarray(f)):.17g}"
        )
