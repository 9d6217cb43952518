"""Semiclassical constants for Weyl-type spectral estimates.

Everything is computed through log-Gamma so large orders and dimensions stay
inside the floating-point range.
"""

from __future__ import annotations

import math

from .errors import NumericFailure, Record

__all__ = [
    "SemiclassicalParams",
    "lt_value",
    "c_const",
    "polya_counting_factor",
]

_LOG_4PI = math.log(4.0 * math.pi)


def _check_dim(d: int) -> int:
    if not (isinstance(d, int) and not isinstance(d, bool) and d >= 1):
        raise ValueError(f"dimension must be a positive integer, got {d!r}")
    return d


class SemiclassicalParams(Record):
    """Order sigma of the eigenvalue mean and the space dimension."""

    __slots__ = _fields = ("sigma", "dim")

    def __init__(self, sigma: float, dim: int) -> None:
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
        _check_dim(dim)
        super().__init__(float(sigma), dim)


def lt_value(sigma: float, dim: int) -> float:
    """Leading Weyl coefficient; dim = 0 is allowed for cross-sections.

    NumericFailure, naming (sigma, dim), where it leaves the floats: a
    log-Gamma or the result overflows, or the result underflows to 0.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0):
        raise ValueError(f"dimension must be a nonnegative integer, got {dim!r}")
    try:
        lead = math.lgamma(sigma + 1.0) - 0.5 * dim * _LOG_4PI
        value = math.exp(lead - math.lgamma(1.0 + sigma + 0.5 * dim))
    except OverflowError:
        raise NumericFailure(f"lt_value at sigma={sigma!r}, d={dim} overflows") from None
    if value == 0.0:
        raise NumericFailure(f"lt_value at sigma={sigma!r}, d={dim} underflows to 0")
    return value


def c_const(p: SemiclassicalParams) -> float:
    """Leading coefficient of the eigenvalue power-sum asymptotics (sigma > 0)."""
    if not p.sigma > 0.0:
        raise ValueError("c_const requires sigma > 0")
    base = lt_value(0.0, p.dim)
    return p.dim / (2.0 * p.sigma + p.dim) * base ** (-2.0 * p.sigma / p.dim)


def polya_counting_factor(d: int) -> float:
    """Upper factor (1 + 2/d)^(d/2) for the counting/phase-space ratio."""
    _check_dim(d)
    return (1.0 + 2.0 / d) ** (0.5 * d)
