"""Semiclassical constants for Weyl-type spectral estimates.

Everything is computed through log-Gamma so large orders and dimensions stay
inside the floating-point range.
"""

from __future__ import annotations

import math

from .errors import NumericFailure, Record
from .specfun import check_log_gamma_sum

__all__ = [
    "SemiclassicalParams",
    "lt_value",
    "c_const",
]

_LOG_4PI = math.log(4.0 * math.pi)


class SemiclassicalParams(Record):
    """Order sigma of the eigenvalue mean and the space dimension."""

    __slots__ = _fields = ("sigma", "dim")

    def __init__(self, sigma: float, dim: int) -> None:
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
        if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 1):
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        super().__init__(float(sigma), dim)


def lt_value(sigma: float, dim: int) -> float:
    """Leading Weyl coefficient; dim = 0 is allowed for cross-sections.

    NumericFailure, naming (sigma, dim), where it leaves the floats (a
    log-Gamma or the result overflows, or the result underflows to 0), or
    where its log-Gammas cancel past `check_log_gamma_sum`'s tolerance.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0):
        raise ValueError(f"dimension must be a nonnegative integer, got {dim!r}")
    what = f"lt_value at sigma={sigma!r}, d={dim}"
    try:
        top, bottom = math.lgamma(sigma + 1.0), math.lgamma(1.0 + sigma + 0.5 * dim)
        value = math.exp(top - 0.5 * dim * _LOG_4PI - bottom)
    except OverflowError:
        raise NumericFailure(f"{what} overflows") from None
    if value == 0.0:
        raise NumericFailure(f"{what} underflows to 0")
    check_log_gamma_sum(what, (top, 0.5 * dim * _LOG_4PI, bottom))
    return value


def c_const(p: SemiclassicalParams) -> float:
    """Leading coefficient of the eigenvalue power-sum asymptotics (sigma > 0);
    NumericFailure, naming (sigma, dim), where it overflows."""
    if not p.sigma > 0.0:
        raise ValueError("c_const requires sigma > 0")
    base = lt_value(0.0, p.dim)
    try:
        power = base ** (-2.0 * p.sigma / p.dim)
    except OverflowError:
        raise NumericFailure(f"c_const at sigma={p.sigma!r}, d={p.dim} overflows") from None
    return p.dim / (2.0 * p.sigma + p.dim) * power

