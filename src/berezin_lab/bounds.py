"""Right-hand sides of the spectral estimates.

Collects the classical phase-space quantities, the per-section sliced upper
bound for Riesz means, the corrected two-term upper bound with an explicit
negative boundary term, and the lower bounds on eigenvalue sums. Everything
here is a closed-form or quadrature evaluation; verdicts live in harness.
The energy lam and the index n may be numpy arrays, so a whole grid is
evaluated in one call; scalars give scalars.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .constants import SemiclassicalParams, c_const, lt_value
from .geometry import Domain, critical_length, section_measure

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "phase_space_eta",
    "s_classical",
    "sum_classical",
    "improved_rhs",
    "sliced_bound",
    "boundary_term",
    "li_yau_rhs",
    "melas_rhs",
    "eigenvalue_lower",
    "two_term_riesz",
    "two_term_sum",
]

def _check_lam(lam: ArrayLike) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
    return lam


def _check_count(n: ArrayLike) -> np.ndarray:
    n = np.asarray(n)
    if not np.all(n >= 1):
        raise ValueError(f"n must be >= 1, got {n!r}")
    return n.astype(float)


def _check_positive(name: str, v: float) -> float:
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")
    return float(v)


def _weyl_term(sigma: float, d: int, measure: ArrayLike, lam: np.ndarray) -> ArrayLike:
    """L_{sigma,d} * measure * lam^(sigma + d/2), the leading Weyl term."""
    return lt_value(sigma, d) * measure * lam ** (sigma + 0.5 * d)


def boundary_term(
    weight: float, sigma: float, d: int, measure: ArrayLike, lam: np.ndarray
) -> ArrayLike:
    """weight * L_{sigma,d-1} * measure * lam^(sigma + (d-1)/2).

    With weight 1/4 and measure |dOmega| this is the second Weyl term; the
    corrected bound subtracts it with weight nu/4 and measure d(Omega_Lambda).
    """
    return weight * lt_value(sigma, d - 1) * measure * lam ** (sigma + 0.5 * (d - 1))


def phase_space_eta(d: int, vol: float, lam: ArrayLike) -> ArrayLike:
    """First Weyl term of the counting function."""
    _check_positive("vol", vol)
    return _weyl_term(0.0, d, vol, _check_lam(lam))


def s_classical(p: SemiclassicalParams, vol: float, lam: ArrayLike) -> ArrayLike:
    """First Weyl term of the Riesz mean of order sigma."""
    _check_positive("vol", vol)
    return _weyl_term(p.sigma, p.dim, vol, _check_lam(lam))


def sum_classical(p: SemiclassicalParams, vol: float, n: ArrayLike) -> ArrayLike:
    """Leading asymptotics of the sum of the lowest n eigenvalue powers."""
    if not p.sigma > 0.0:
        raise ValueError("sum_classical requires sigma > 0")
    _check_positive("vol", vol)
    n = _check_count(n)
    return c_const(p) * vol ** (-2.0 * p.sigma / p.dim) * n ** (
        1.0 + 2.0 * p.sigma / p.dim
    )


def improved_rhs(
    *,
    params: SemiclassicalParams,
    lam: ArrayLike,
    vol_omega_lambda: ArrayLike,
    d_lambda: ArrayLike,
    nu: float,
    exploratory: bool = False,
) -> ArrayLike:
    """Two-term upper bound: the Weyl term of the long sections' volume
    vol(Omega_Lambda) minus boundary_term with weight nu/4 over their cross
    measure d(Omega_Lambda); lam and the statistics may be arrays of one shape.

    The guaranteed regime is sigma >= 3/2, dim >= 2 and nu = 4 epsilon_mu (see
    remainder.nu_bounds); it is nonnegative for nu <= remainder.nu_nonneg_cap.
    exploratory admits sigma < 3/2; sweeps set it for an explicit nu.
    """
    if not exploratory and params.sigma < 1.5:
        raise ValueError("improved_rhs requires sigma >= 3/2 (or exploratory=True)")
    if params.dim < 2:
        raise ValueError("improved_rhs requires dim >= 2")
    if not math.isfinite(nu):
        raise ValueError("improved_rhs needs a finite nu")
    lam = _check_lam(lam)
    main = _weyl_term(params.sigma, params.dim, vol_omega_lambda, lam)
    return main - boundary_term(0.25 * nu, params.sigma, params.dim, d_lambda, lam)


def sliced_bound(dom: Domain, p: SemiclassicalParams, lam: ArrayLike) -> ArrayLike:
    """Per-section Riesz-mean upper bound, integrated over the cross variables.

    With e = sigma + (d - 1)/2 and l_crit = pi/sqrt(lam), a section of
    length t contributes lam^e L_{sigma,d-1} lattice_sum(e, t / l_crit) per
    unit cross measure, integrated against the section measure mu by its
    lattice_integral: exactly over atoms, and over a density as the sum of
    its G_e(j l_crit). Bounding each lattice sum by
    t/(2 l_crit) B(1 + e, 1/2) - epsilon_e gives the corrected bound.
    """
    if p.sigma < 1.5:
        raise ValueError("sliced_bound requires sigma >= 3/2")
    if p.dim != dom.dim:
        raise ValueError("params dimension must match the domain dimension")
    l_crit = critical_length(lam)
    e = p.sigma + 0.5 * (p.dim - 1)
    pref = np.asarray(lam, dtype=float) ** e * lt_value(p.sigma, p.dim - 1)
    return (pref * section_measure(dom).lattice_integral(e, l_crit))[()]


def li_yau_rhs(d: int, vol: float, n: ArrayLike) -> ArrayLike:
    """Berezin-Li-Yau lower bound for the sum of the lowest n eigenvalues."""
    return sum_classical(SemiclassicalParams(1.0, d), vol, n)


def melas_rhs(
    d: int, vol: float, moment_j: float, n: ArrayLike, melas_m: float | None
) -> ArrayLike:
    """Li-Yau plus the moment correction; the constant must be supplied."""
    if melas_m is None:
        raise ValueError(
            "the Melas correction needs an explicit dimensional constant melas_m"
        )
    _check_positive("moment_j", moment_j)
    _check_positive("vol", vol)
    return li_yau_rhs(d, vol, n) + float(melas_m) * (vol / moment_j) * _check_count(n)


def eigenvalue_lower(d: int, vol: float, n: ArrayLike) -> ArrayLike:
    """Li-Yau-type lower bound for the n-th eigenvalue itself."""
    _check_positive("vol", vol)
    n = _check_count(n)
    return (
        d
        / (2.0 + d)
        * (lt_value(0.0, d) * vol) ** (-2.0 / d)
        * n ** (2.0 / d)
    )


def two_term_riesz(
    p: SemiclassicalParams, vol: float, surf: float, lam: ArrayLike
) -> ArrayLike:
    """Two-term Weyl approximation of the Riesz mean (not a bound)."""
    if not p.sigma > 0.0:
        raise ValueError("two_term_riesz requires sigma > 0")
    _check_positive("vol", vol)
    _check_positive("surf", surf)
    lam = _check_lam(lam)
    return s_classical(p, vol, lam) - boundary_term(0.25, p.sigma, p.dim, surf, lam)


def two_term_sum(
    p: SemiclassicalParams, vol: float, surf: float, n: ArrayLike
) -> ArrayLike:
    """Two-term asymptotics of the eigenvalue power sum (not a bound)."""
    if not p.sigma > 0.0:
        raise ValueError("two_term_sum requires sigma > 0")
    _check_positive("vol", vol)
    _check_positive("surf", surf)
    n = _check_count(n)
    expo = 1.0 + (2.0 * p.sigma - 1.0) / p.dim
    coef = (
        lt_value(p.sigma, p.dim - 1)
        * lt_value(p.sigma, p.dim) ** (-expo)
        / (4.0 * (0.5 * (p.dim - 1) + p.sigma))
    )
    # vol**expo alone may overflow where the term does not
    second = coef * p.sigma * (surf / vol) * vol ** (1.0 - expo) * n**expo
    return sum_classical(p, vol, n) + second
