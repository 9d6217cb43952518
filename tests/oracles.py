"""Test-side oracles shared by several test modules.

Nothing here imports berezin_lab.geometry, .bounds or .remainder (a test in
test_geometry.py checks the imports), so the slicing statistics, volumes,
moments and sliced bounds they compute never share code with the kernels
they check. Domains are read through their data only: a disk's `radius`, a
box's or union's `boxes`, `sides`, `origin` and `slicing_axis`. The one
helper that does share code, `dimension_reduction_residual`, is an identity
between two package functions, `lt_value` and `beta`.
"""

import itertools
import math
from typing import NamedTuple

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
