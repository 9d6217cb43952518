"""Semiclassical constants for Weyl-type spectral estimates.

Everything is computed through log-Gamma so large orders and dimensions stay
inside the floating-point range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import beta

__all__ = [
    "SemiclassicalParams",
    "unit_ball_volume",
    "lt_value",
    "c_const",
    "dimension_reduction_identity_residual",
    "rho_lower",
    "polya_counting_factor",
]

_LOG_4PI = math.log(4.0 * math.pi)


def _check_dim(d: int) -> int:
    if not (isinstance(d, int) and not isinstance(d, bool) and d >= 1):
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return d


@dataclass(frozen=True)
class SemiclassicalParams:
    """Order sigma of the eigenvalue mean and the space dimension."""

    sigma: float
    dim: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        _check_dim(self.dim)
        object.__setattr__(self, "sigma", float(self.sigma))


def unit_ball_volume(d: int) -> float:
    """Volume of the unit ball in d dimensions."""
    _check_dim(d)
    return math.exp(0.5 * d * math.log(math.pi) - math.lgamma(1.0 + 0.5 * d))


def lt_value(sigma: float, dim: int) -> float:
    """Leading Weyl coefficient; dim = 0 is allowed for cross-sections."""
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0):
        raise ValueError(f"dimension must be a nonnegative integer, got {dim!r}")
    lead = math.lgamma(sigma + 1.0) - 0.5 * dim * _LOG_4PI
    return math.exp(lead - math.lgamma(1.0 + sigma + 0.5 * dim))


def c_const(p: SemiclassicalParams) -> float:
    """Leading coefficient of the eigenvalue power-sum asymptotics (sigma > 0)."""
    if not p.sigma > 0.0:
        raise ValueError("c_const requires sigma > 0")
    base = lt_value(0.0, p.dim)
    return p.dim / (2.0 * p.sigma + p.dim) * base ** (-2.0 * p.sigma / p.dim)


def dimension_reduction_identity_residual(p: SemiclassicalParams) -> float:
    """|lhs/rhs - 1| for the Beta-function relation tying dim to dim - 1.

    The relation underlies every slice-and-stack argument here; the residual
    should sit at rounding level for all reasonable (sigma, dim).
    """
    if p.dim < 2:
        raise ValueError("identity residual requires dim >= 2")
    lhs = (
        beta(1.0 + p.sigma + 0.5 * (p.dim - 1), 0.5)
        * lt_value(p.sigma, p.dim - 1)
        / (2.0 * math.pi)
    )
    return abs(lhs / lt_value(p.sigma, p.dim) - 1.0)


def rho_lower(p: SemiclassicalParams) -> float:
    """Lower bound for the power-sum shape ratio (sigma >= 1)."""
    if not p.sigma >= 1.0:
        raise ValueError("rho_lower requires sigma >= 1")
    d = p.dim
    return (2.0 * p.sigma + d) / d * (d / (2.0 + d)) ** p.sigma


def polya_counting_factor(d: int) -> float:
    """Upper factor (1 + 2/d)^(d/2) for the counting/phase-space ratio."""
    _check_dim(d)
    return (1.0 + 2.0 / d) ** (0.5 * d)
