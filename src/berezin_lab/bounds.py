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
from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike

from .constants import SemiclassicalParams, c_const, lt_value
from .geometry import Disk, Domain, critical_length, section_family
from .remainder import lattice_sum

__all__ = [
    "BoundInputs",
    "phase_space_eta",
    "s_classical",
    "sum_classical",
    "improved_rhs",
    "sliced_bound",
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


@dataclass(frozen=True)
class BoundInputs:
    """Bundle of evaluation inputs for bound right-hand sides.

    Only the fields a given bound consumes need to be present; lam and the
    slicing statistics may be arrays of one shape. exploratory permits
    parameter values outside the guaranteed regime; reports flag the rows
    produced that way.
    """

    params: SemiclassicalParams
    lam: ArrayLike | None = None
    vol_omega_lambda: ArrayLike | None = None
    d_lambda: ArrayLike | None = None
    nu: float | None = None
    exploratory: bool = False


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


def phase_space_eta(d: int, vol: float, lam: ArrayLike) -> ArrayLike:
    """First Weyl term of the counting function."""
    _check_positive("vol", vol)
    lam = _check_lam(lam)
    return lt_value(0.0, d) * vol * lam ** (0.5 * d)


def s_classical(p: SemiclassicalParams, vol: float, lam: ArrayLike) -> ArrayLike:
    """First Weyl term of the Riesz mean of order sigma."""
    _check_positive("vol", vol)
    lam = _check_lam(lam)
    return lt_value(p.sigma, p.dim) * vol * lam ** (p.sigma + 0.5 * p.dim)


def sum_classical(p: SemiclassicalParams, vol: float, n: ArrayLike) -> ArrayLike:
    """Leading asymptotics of the sum of the lowest n eigenvalue powers."""
    if not p.sigma > 0.0:
        raise ValueError("sum_classical requires sigma > 0")
    _check_positive("vol", vol)
    n = _check_count(n)
    return c_const(p) * vol ** (-2.0 * p.sigma / p.dim) * n ** (
        1.0 + 2.0 * p.sigma / p.dim
    )


def improved_rhs(inputs: BoundInputs) -> ArrayLike:
    """Two-term upper bound: classical term minus a boundary-layer correction.

    The correction is proportional to the cross measure of long sections and
    carries the weight nu; the guaranteed regime is sigma >= 3/2, dim >= 2.
    """
    p = inputs.params
    if not inputs.exploratory:
        if p.sigma < 1.5:
            raise ValueError("improved_rhs requires sigma >= 3/2 (or exploratory=True)")
    if p.dim < 2:
        raise ValueError("improved_rhs requires dim >= 2")
    if inputs.lam is None or inputs.vol_omega_lambda is None or inputs.d_lambda is None:
        raise ValueError("improved_rhs needs lam, vol_omega_lambda, and d_lambda")
    if inputs.nu is None or not math.isfinite(inputs.nu):
        raise ValueError("improved_rhs needs a finite nu")
    lam = _check_lam(inputs.lam)
    main = lt_value(p.sigma, p.dim) * inputs.vol_omega_lambda * lam ** (p.sigma + 0.5 * p.dim)
    corr = (
        0.25
        * inputs.nu
        * lt_value(p.sigma, p.dim - 1)
        * inputs.d_lambda
        * lam ** (p.sigma + 0.5 * (p.dim - 1))
    )
    return main - corr


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
    return phase_space_eta(d, vol, lam) - 0.25 * lt_value(0.0, d - 1) * surf * lam ** (
        0.5 * (d - 1)
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
    return s_classical(p, vol, lam) - 0.25 * lt_value(p.sigma, p.dim - 1) * surf * lam ** (
        p.sigma + 0.5 * (p.dim - 1)
    )


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
