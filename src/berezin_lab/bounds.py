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

import numpy as np
from numpy.typing import ArrayLike

from .constants import SemiclassicalParams, c_const, lt_value
from .geometry import Disk, Domain, critical_length, section_family
from .remainder import lattice_sum

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
    "two_term_counting",
    "two_term_riesz",
    "two_term_sum",
]

_GL_NODES = 48
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_NODES)
# Nodes mapped to [0, pi/2] once; reused by every disk evaluation.
_gl_phi = 0.25 * math.pi * (_gl_x + 1.0)
_gl_wphi = 0.25 * math.pi * _gl_w
_gl_cos = np.cos(_gl_phi)
_gl_cos2 = _gl_cos**2
_gl_sin2 = np.sin(_gl_phi) ** 2


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


def sliced_bound(
    dom: Domain, p: SemiclassicalParams, lam: ArrayLike, quad_points: int | None = None
) -> ArrayLike:
    """Per-section Riesz-mean upper bound, integrated over the cross variables.

    With e = sigma + (d - 1)/2 and l_crit = pi/sqrt(lam), a section of
    length t contributes lam^e L_{sigma,d-1} lattice_sum(e, t / l_crit) per
    unit cross measure; summed over the section family this is exact for
    boxes and unions and the midpoint rule for GenericSliced. Bounding each
    lattice sum by t/(2 l_crit) B(1 + e, 1/2) - epsilon_e gives the corrected
    bound. The disk uses per-term Gauss-Legendre in a trigonometric
    substitution that makes each piece smooth.
    """
    if p.sigma < 1.5:
        raise ValueError("sliced_bound requires sigma >= 3/2")
    if p.dim != dom.dim:
        raise ValueError("params dimension must match the domain dimension")
    l_crit = critical_length(lam)
    e = p.sigma + 0.5 * (p.dim - 1)
    pref = np.asarray(lam, dtype=float) ** e * lt_value(p.sigma, p.dim - 1)

    if isinstance(dom, Disk):
        total = np.array([_disk_sections(dom.radius, e, lc) for lc in l_crit.flat])
        return (pref * 2.0 * total.reshape(l_crit.shape))[()]
    lengths, weights = section_family(dom, quad_points)
    total = (weights * lattice_sum(e, lengths / l_crit[..., None])).sum(axis=-1)
    return (pref * total)[()]


def _disk_sections(r_dom: float, e: float, l_crit: float) -> float:
    """Cross integral of the disk's lattice sums over the half line u > 0."""
    jmax = int(math.floor(2.0 * r_dom / l_crit))
    if jmax < 1:
        return 0.0
    js = np.arange(1, jmax + 1, dtype=float)
    uj2 = r_dom * r_dom - (0.5 * js * l_crit) ** 2
    np.maximum(uj2, 0.0, out=uj2)
    uj = np.sqrt(uj2)
    num = uj2[:, None] * _gl_cos2[None, :]
    den = r_dom * r_dom - uj2[:, None] * _gl_sin2[None, :]
    integrand = (num / den) ** e * _gl_cos[None, :]
    pieces = uj * (integrand @ _gl_wphi)
    return float(np.sum(pieces))


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


def two_term_counting(d: int, vol: float, surf: float, lam: ArrayLike) -> ArrayLike:
    """Two-term Weyl approximation of the counting function (not a bound).

    Valid down to d = 1, where surf counts the interval endpoints.
    """
    if d < 1:
        raise ValueError("two_term_counting requires dim >= 1")
    _check_positive("vol", vol)
    _check_positive("surf", surf)
    lam = _check_lam(lam)
    return phase_space_eta(d, vol, lam) - boundary_term(0.25, 0.0, d, surf, lam)


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
    second = coef * p.sigma * surf / vol**expo * n ** expo
    return sum_classical(p, vol, n) + second
