"""Test-side oracles shared by several test modules.

Nothing here imports berezin_lab.geometry, .bounds or .remainder (a test in
test_geometry.py checks the imports), so the slicing statistics, volumes,
moments and sliced bounds they compute never share code with the kernels
they check. Domains are read through their data only: a disk's `radius`, a
box's or union's `boxes`, `sides`, `origin` and `slicing_axis`. The one
helper that does share code, `dimension_reduction_residual`, is an identity
between two package functions, `lt_value` and `beta`; `box_riesz_twin`
shares nothing with the package at all.
"""

import bisect
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np

from berezin_lab.constants import lt_value
from berezin_lab.specfun import beta
from berezin_lab.spectra import riesz_mean


def riesz_integral_check(spec, sigma, lam):
    """Relative gap between the Riesz mean and its counting-function integral.

    The counting function n(tau) is a step function, so the Aronszajn-style
    integral sigma * int_0^lam (lam - tau)^(sigma-1) n(tau) dtau evaluates in
    closed form, from the spectrum's eigenvalues and multiplicities alone;
    agreement with riesz_mean checks enumeration, counting and summation
    end to end.
    """
    ev = np.asarray(spec.eigenvalues)
    i = int(np.searchsorted(ev, lam, side="left"))
    direct = float(riesz_mean(spec, sigma, lam))
    if i == 0:
        return abs(direct)
    breaks = ev[:i]
    counts = np.cumsum(np.asarray(spec.multiplicities)[:i]).astype(float)
    uppers = np.append(breaks[1:], lam)
    integral = float(np.sum(counts * ((lam - breaks) ** sigma - (lam - uppers) ** sigma)))
    return abs(integral - direct) / max(abs(direct), abs(integral))


def lattice_sum_oracle(mu, a):
    """Sum over k >= 1 of (1 - k^2/a^2)_+^mu, term by term."""
    k = np.arange(1.0, math.floor(a) + 1.0)
    return float(np.sum(np.clip(1.0 - (k / a) ** 2, 0.0, None) ** mu))


def lt_oracle(sigma, dim):
    """L_{sigma,dim} = Gamma(sigma + 1) / ((4 pi)^(dim/2) Gamma(sigma + 1 + dim/2))."""
    return math.gamma(sigma + 1.0) / (
        (4.0 * math.pi) ** (0.5 * dim) * math.gamma(sigma + 1.0 + 0.5 * dim)
    )


def dimension_reduction_residual(sigma, dim):
    """|lhs/rhs - 1| for the Beta-function relation tying dim to dim - 1,
    B(1 + sigma + (dim - 1)/2, 1/2) L_{sigma,dim-1} / (2 pi) = L_{sigma,dim}.

    The relation underlies every slice-and-stack argument; the residual
    should sit at rounding level for all reasonable (sigma, dim >= 2).
    """
    lhs = beta(1.0 + sigma + 0.5 * (dim - 1), 0.5) * lt_value(sigma, dim - 1)
    return abs(lhs / (2.0 * math.pi) / lt_value(sigma, dim) - 1.0)


def oracle_sections(dom, xp):
    """Sorted open intervals of dom's section through the cross point xp.

    xp holds the coordinates other than the slicing one, in axis order. A
    disk is sliced along its second coordinate; a box or union along its
    slicing axis, and a box's section is empty on the boundary of its base.
    """
    if len(xp) != dom.dim - 1:
        raise ValueError(f"expected {dom.dim - 1} cross coordinates, got {len(xp)}")
    if hasattr(dom, "radius"):
        (u,) = xp
        if abs(u) >= dom.radius:
            return []
        c = math.sqrt(dom.radius**2 - u * u)
        return [(-c, c)]
    ax = dom.slicing_axis - 1
    cross = [j for j in range(dom.dim) if j != ax]
    return sorted(
        (b.origin[ax], b.origin[ax] + b.sides[ax])
        for b in dom.boxes
        if all(b.origin[j] < v < b.origin[j] + b.sides[j] for j, v in zip(cross, xp))
    )


def _cross_nodes(dom, nodes):
    """Midpoint nodes over the bounding box of the cross coordinates, and the
    cell measure each one carries."""
    if hasattr(dom, "radius"):
        lo, hi = [-dom.radius], [dom.radius]
    else:
        cross = [j for j in range(dom.dim) if j != dom.slicing_axis - 1]
        lo = [min(b.origin[j] for b in dom.boxes) for j in cross]
        hi = [max(b.origin[j] + b.sides[j] for b in dom.boxes) for j in cross]
    steps = [(b - a) / nodes for a, b in zip(lo, hi)]
    axes = [[a + (i + 0.5) * h for i in range(nodes)] for a, h in zip(lo, steps)]
    return itertools.product(*axes), math.prod(steps)


class MidpointValues(NamedTuple):
    vol_omega_lambda: float
    d_lambda: float
    sliced_bound: float
    volume: float
    moment: float


def midpoint_oracle(dom, sigma, lam, nodes=4096):
    """Slicing statistics, sliced bound, volume and second moment of dom at
    the energy lam, by the midpoint rule with `nodes` nodes per cross
    coordinate over the bounding box of the cross coordinates.

    Every section through a node counts with the node's cell measure w: it
    is long when longer than pi/sqrt(lam), and it adds
    lam^e L_{sigma,d-1} lattice_sum(e, t sqrt(lam)/pi) w, e = sigma + (d-1)/2,
    to the sliced bound.
    """
    d = dom.dim
    l_crit = math.pi / math.sqrt(lam)
    e = sigma + 0.5 * (d - 1)
    vol_long = d_long = lattice = m0 = m2 = 0.0
    m1 = [0.0] * d  # cross coordinates first, the slicing coordinate last
    points, w = _cross_nodes(dom, nodes)
    for xp in points:
        for t0, t1 in oracle_sections(dom, xp):
            t = t1 - t0
            if t > l_crit:
                vol_long += t * w
                d_long += w
            lattice += lattice_sum_oracle(e, t / l_crit) * w
            m0 += t * w
            for i, v in enumerate(xp):
                m1[i] += v * t * w
            m1[-1] += 0.5 * (t1 * t1 - t0 * t0) * w
            m2 += (sum(v * v for v in xp) * t + (t1**3 - t0**3) / 3.0) * w
    sliced = lam**e * lt_oracle(sigma, d - 1) * lattice
    moment = m2 - sum(c * c for c in m1) / m0
    return MidpointValues(vol_long, d_long, sliced, m0, moment)


def disk_lattice_integral_reference(radius, e, l_crit):
    """The disk's lattice integral one energy at a time: at each l_crit, the
    sum over j >= 1 with j l_crit <= 2R of twice the cross integral of G_e,
    by numpy's 48-node Gauss-Legendre rule mapped to [0, pi/2].

    This is the per-energy loop that geometry's DiskSections.lattice_integral
    replaced with blocks across the grid; the two must agree bit for bit.
    """
    x, w = np.polynomial.legendre.leggauss(48)
    phi = 0.25 * math.pi * (x + 1.0)
    wphi = 0.25 * math.pi * w
    cos = np.cos(phi)
    cos2, sin2 = cos**2, np.sin(phi) ** 2
    l_crit = np.asarray(l_crit, dtype=float)
    total = []
    for lc in l_crit.flat:
        jmax = int(math.floor(2.0 * radius / lc))
        js = np.arange(1, jmax + 1, dtype=float)
        uj2 = radius * radius - (0.5 * js * lc) ** 2
        np.maximum(uj2, 0.0, out=uj2)
        uj = np.sqrt(uj2)
        num = uj2[:, None] * cos2[None, :]
        den = radius * radius - uj2[:, None] * sin2[None, :]
        integrand = (num / den) ** e * cos[None, :]
        total.append((2.0 * uj * (integrand @ wphi)).sum())
    return np.reshape(total, l_crit.shape)


def _real(f):
    """The rational f as an mpmath number at the working precision."""
    return mpmath.mpf(f.numerator) / f.denominator


def box_riesz_twin(boxes, sigma, lams, digits=40):
    """Riesz mean and classical value of the disjoint union of `boxes` at each
    energy of `lams`, as two lists of mpmath numbers good to about `digits`
    digits, from nothing in berezin_lab.

    Each box is a tuple of its sides and sigma a number, all as decimal
    texts, read exactly. The Dirichlet eigenvalues of a box with sides a_i are
    pi^2 q for q = sum n_i^2 / a_i^2 over the integer lattice n_i >= 1, each
    q an exact rational (a union's spectrum is its boxes' together); the
    Riesz mean is sum (lam - lam_k)_+^sigma, with multiplicity, and the
    classical value L_{sigma,d} |Omega| lam^(sigma + d/2), with L_{sigma,d} =
    Gamma(sigma + 1) / ((4 pi)^(d/2) Gamma(sigma + 1 + d/2)). Each lam is a
    float, taken exactly.
    """
    with mpmath.workdps(digits):
        top = mpmath.mpf(max(lams)) / mpmath.pi**2  # the q of the eigenvalues below
        levels = Counter()
        for sides in boxes:
            inv = [1 / Fraction(a) ** 2 for a in sides]
            ranges = [range(1, int(mpmath.sqrt(top / _real(w))) + 2) for w in inv]
            for ns in itertools.product(*ranges):
                levels[sum(n * n * w for n, w in zip(ns, inv))] += 1
        qs = sorted(levels)
        values = [mpmath.pi**2 * _real(q) for q in qs]
        s, half_d = _real(Fraction(sigma)), mpmath.mpf(len(boxes[0])) / 2
        vol = sum(math.prod(Fraction(a) for a in sides) for sides in boxes)
        weyl = (
            mpmath.gamma(s + 1) / ((4 * mpmath.pi) ** half_d * mpmath.gamma(s + 1 + half_d))
            * _real(vol)
        )
        means, classical = [], []
        for lam in map(mpmath.mpf, lams):
            below = bisect.bisect_left(values, lam)
            means.append(mpmath.fsum(
                levels[q] * (lam - v) ** s for q, v in zip(qs[:below], values[:below])
            ))
            classical.append(weyl * lam ** (s + half_d))
        return means, classical
