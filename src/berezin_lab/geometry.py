"""Domain model and axis slicing: sections, long-section statistics, moments.

Supported domains are axis-aligned boxes, finite unions of boxes with
pairwise disjoint interiors, planar disks, and a generic callback-backed
class described by its one-dimensional open sections. A box is a one-box
union: its `boxes` is (self,), so every box quantity (sections, volume,
surface, moment, enumeration) has the one kernel of a union, a sum over its
boxes. Boxes and unions carry their slicing axis, because their sliced
bounds depend on the orientation; it is 1-based and defaults to the last
coordinate. A disk has no slicing axis: its sections are the same in every
direction. The generic class is sliced along its last coordinate.

slicing_stats collects the two quantities the corrected bounds consume: the
volume of the subset of the domain whose section through a cross point is
longer than the critical length pi/sqrt(lambda), and the cross-sectional
measure of those long-section points. Both are closed-form for disks; for
boxes, unions, and the generic class they are sums over one family of
(section length, cross weight) pairs, exact for boxes and unions and a
midpoint rule over the bounding-box cross variables for the generic class.
The sliced bound sums over the same family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from numpy.typing import ArrayLike

from .errors import UnsupportedDomainError

__all__ = [
    "Interval",
    "AxisBox",
    "BoxUnion",
    "Disk",
    "GenericSliced",
    "Domain",
    "SlicingStats",
    "critical_length",
    "section_family",
    "sections",
    "slicing_stats",
    "volume",
    "surface",
    "moment_J",
    "generic_wrapper",
]

Interval = tuple[float, float]

# Midpoint nodes per cross dimension, keyed by the number of cross dimensions.
_MIDPOINT_NODES = {0: 1, 1: 4096, 2: 256, 3: 64}


@dataclass(frozen=True)
class AxisBox:
    """Open axis-aligned box: product of (origin_i, origin_i + sides_i)."""

    sides: tuple[float, ...]
    origin: tuple[float, ...] | None = None
    slicing_axis: int | None = None

    def __post_init__(self) -> None:
        sides = tuple(float(s) for s in self.sides)
        if not sides:
            raise ValueError("box needs at least one side")
        if any(not (math.isfinite(s) and s > 0.0) for s in sides):
            raise ValueError(f"box sides must be positive finite reals, got {sides!r}")
        origin = self.origin
        origin = (0.0,) * len(sides) if origin is None else tuple(float(o) for o in origin)
        if len(origin) != len(sides):
            raise ValueError("origin length must match sides length")
        if any(not math.isfinite(o) for o in origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        axis = len(sides) if self.slicing_axis is None else int(self.slicing_axis)
        if not 1 <= axis <= len(sides):
            raise ValueError(f"slicing_axis must lie in [1, {len(sides)}], got {axis}")
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "slicing_axis", axis)

    @property
    def dim(self) -> int:
        return len(self.sides)

    @property
    def boxes(self) -> tuple[AxisBox]:
        """The box as a one-box union."""
        return (self,)


@dataclass(frozen=True)
class Disk:
    """Open planar disk of given radius, centered at the origin."""

    radius: float

    def __post_init__(self) -> None:
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"radius must be positive and finite, got {self.radius!r}")
        object.__setattr__(self, "radius", r)

    @property
    def dim(self) -> int:
        return 2


def _interiors_overlap(a: AxisBox, b: AxisBox) -> bool:
    return all(
        ao < bo + bs and bo < ao + as_
        for ao, as_, bo, bs in zip(a.origin, a.sides, b.origin, b.sides)
    )


def _separated(a: AxisBox, b: AxisBox) -> bool:
    return any(
        ao + as_ < bo or bo + bs < ao
        for ao, as_, bo, bs in zip(a.origin, a.sides, b.origin, b.sides)
    )


@dataclass(frozen=True)
class BoxUnion:
    """Finite union of same-dimension boxes with pairwise disjoint interiors."""

    boxes: tuple[AxisBox, ...]
    slicing_axis: int | None = None

    def __post_init__(self) -> None:
        boxes = tuple(self.boxes)
        if not boxes:
            raise ValueError("union needs at least one box")
        d = boxes[0].dim
        if any(b.dim != d for b in boxes):
            raise ValueError("all boxes in a union must share the dimension")
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _interiors_overlap(boxes[i], boxes[j]):
                    raise ValueError(f"boxes {i} and {j} have overlapping interiors")
        axis = d if self.slicing_axis is None else int(self.slicing_axis)
        if not 1 <= axis <= d:
            raise ValueError(f"slicing_axis must lie in [1, {d}], got {axis}")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "slicing_axis", axis)

    @property
    def dim(self) -> int:
        return self.boxes[0].dim


@dataclass(frozen=True)
class GenericSliced:
    """Domain given only through its open sections along the last coordinate.

    section_fn maps a cross point (dim - 1 floats) to disjoint open
    intervals; they must stay inside the bounding box (contract, unchecked).
    The slicing axis is baked into the parametrization and equals dim.
    """

    dim: int
    section_fn: Callable[[tuple[float, ...]], Sequence[Interval]]
    bounding_box: AxisBox

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise ValueError(f"dim must be a positive integer, got {self.dim!r}")
        if self.bounding_box.dim != self.dim:
            raise ValueError("bounding_box dimension must match dim")


Domain = Union[AxisBox, BoxUnion, Disk, GenericSliced]


@dataclass(frozen=True)
class SlicingStats:
    """Long-section statistics; the fields are arrays when lam is one."""

    vol_omega_lambda: ArrayLike
    d_lambda: ArrayLike


def critical_length(lam: ArrayLike) -> ArrayLike:
    """Section-length threshold pi/sqrt(lambda), elementwise."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    return math.pi / np.sqrt(lam)


def _cross_indices(dim: int, axis: int) -> list[int]:
    return [i for i in range(dim) if i != axis - 1]


def sections(dom: Domain, x_prime: Sequence[float]) -> list[Interval]:
    """Open intervals of the section through the cross point x_prime."""
    xp = tuple(float(v) for v in x_prime)
    if len(xp) != dom.dim - 1:
        raise ValueError(f"expected {dom.dim - 1} cross coordinates, got {len(xp)}")
    if isinstance(dom, (AxisBox, BoxUnion)):
        ax, cross = dom.slicing_axis - 1, _cross_indices(dom.dim, dom.slicing_axis)
        return sorted(
            (b.origin[ax], b.origin[ax] + b.sides[ax])
            for b in dom.boxes
            if all(
                b.origin[j] < v < b.origin[j] + b.sides[j] for j, v in zip(cross, xp)
            )
        )
    if isinstance(dom, Disk):
        u = xp[0]
        if abs(u) < dom.radius:
            c = math.sqrt(dom.radius**2 - u * u)
            return [(-c, c)]
        return []
    if isinstance(dom, GenericSliced):
        return [(float(t0), float(t1)) for t0, t1 in dom.section_fn(xp)]
    raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")


def section_family(dom: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Section lengths along the slicing axis and the cross weight of each.

    A box or union gives one section per box, weighted by its cross area.
    GenericSliced gives every nonempty section through the midpoint nodes of
    its bounding box, weighted by the node's cell measure. A disk's sections
    form a continuous family, which its callers treat in closed form.
    Callers sum over the family along the last axis of (energies, sections)
    arrays, so an energy alone gives the same bits as inside a grid.
    """
    if isinstance(dom, (AxisBox, BoxUnion)):
        ax, cross = dom.slicing_axis - 1, _cross_indices(dom.dim, dom.slicing_axis)
        lengths = [b.sides[ax] for b in dom.boxes]
        weights = [math.prod(b.sides[i] for i in cross) for b in dom.boxes]
    elif isinstance(dom, GenericSliced):
        lengths, weights = [], []
        for xp, w in _midpoint_grid(dom):
            for t0, t1 in dom.section_fn(xp):
                if t1 > t0:
                    lengths.append(t1 - t0)
                    weights.append(w)
    else:
        raise UnsupportedDomainError(
            f"no discrete section family for {type(dom).__name__}"
        )
    return np.array(lengths, dtype=float), np.array(weights, dtype=float)


def slicing_stats(dom: Domain, lam: ArrayLike) -> SlicingStats:
    """Volume of the long-section subset and cross measure of its base.

    Sections count as long only when strictly above the critical length, so
    a box whose slicing side equals it exactly contributes nothing. lam may
    be an array; the statistics then are arrays of the same shape.
    """
    l_crit = critical_length(lam)
    if isinstance(dom, Disk):
        r = dom.radius
        long = 2.0 * r > l_crit
        half = np.minimum(0.5 * l_crit, r)  # l_crit**2 overflows for a subnormal lam
        u_star = np.sqrt(r * r - half * half)
        vol = np.where(long, u_star * l_crit + 2.0 * r * r * np.arcsin(u_star / r), 0.0)
        dl = np.where(long, 2.0 * u_star, 0.0)
    else:
        lengths, weights = section_family(dom)
        long = lengths > l_crit[..., None]
        vol = (weights * np.where(long, lengths, 0.0)).sum(axis=-1)
        dl = (weights * long).sum(axis=-1)
    return SlicingStats(vol[()], dl[()])


def _midpoint_grid(dom: GenericSliced):
    """Midpoint nodes and weights over the bounding-box cross variables."""
    n_cross = dom.dim - 1
    if n_cross not in _MIDPOINT_NODES:
        raise UnsupportedDomainError(f"no quadrature for {n_cross} cross dimensions")
    n = _MIDPOINT_NODES[n_cross]
    if n_cross == 0:
        yield (), 1.0
        return
    bb = dom.bounding_box
    axes = []
    weight = 1.0
    for i in range(n_cross):
        h = bb.sides[i] / n
        start = bb.origin[i] + 0.5 * h
        axes.append([start + j * h for j in range(n)])
        weight *= h
    for xp in itertools.product(*axes):
        yield xp, weight


def volume(dom: Domain) -> float:
    if isinstance(dom, (AxisBox, BoxUnion)):
        return sum(math.prod(b.sides) for b in dom.boxes)
    if isinstance(dom, Disk):
        return math.pi * dom.radius**2
    lengths, weights = section_family(dom)
    return float(np.sum(lengths * weights))


def surface(dom: Domain) -> float:
    """Boundary measure; unions must be separated for the per-box sum to hold."""
    if isinstance(dom, (AxisBox, BoxUnion)):
        if not all(_separated(*pair) for pair in itertools.combinations(dom.boxes, 2)):
            msg = "surface of a union needs pairwise separated boxes"
            raise UnsupportedDomainError(msg)
        return sum(_box_surface(b) for b in dom.boxes)
    if isinstance(dom, Disk):
        return 2.0 * math.pi * dom.radius
    raise UnsupportedDomainError("surface is not available for GenericSliced domains")


def _box_surface(box: AxisBox) -> float:
    total = 0.0
    for i in range(box.dim):
        face = 1.0
        for j in range(box.dim):
            if j != i:
                face *= box.sides[j]
        total += 2.0 * face
    return total


def moment_J(dom: Domain) -> float:
    """Second moment of the domain about its centroid.

    A box is a one-box union. The union moment is the parallel-axis theorem
    in pairwise form, sum_i v_i |s_i|^2/12 + sum_{i<j} v_i v_j |c_i - c_j|^2 / V
    for box volumes v_i, sides s_i and centres c_i: there is no centroid to
    round, and each centre gap is a difference of origins plus half a
    difference of sides, so the moment is translation-invariant, and a box's
    is exactly prod(sides) * sum(sides^2) / 12.
    """
    if isinstance(dom, Disk):
        return 0.5 * math.pi * dom.radius**4
    if isinstance(dom, (AxisBox, BoxUnion)):
        vols = [math.prod(b.sides) for b in dom.boxes]
        own = sum(
            v * sum(s * s for s in b.sides) / 12.0 for v, b in zip(vols, dom.boxes)
        )
        gaps = sum(
            vols[i] * vols[j] * sum(
                ((ao - bo) + 0.5 * (as_ - bs)) ** 2
                for ao, as_, bo, bs in zip(a.origin, a.sides, b.origin, b.sides)
            )
            for (i, a), (j, b) in itertools.combinations(enumerate(dom.boxes), 2)
        )
        return own + gaps / sum(vols)
    if isinstance(dom, GenericSliced):
        m0 = 0.0
        m1 = [0.0] * dom.dim
        m2 = 0.0
        for xp, w in _midpoint_grid(dom):
            for t0, t1 in dom.section_fn(xp):
                length = t1 - t0
                m0 += length * w
                for i, v in enumerate(xp):
                    m1[i] += v * length * w
                m1[-1] += 0.5 * (t1 * t1 - t0 * t0) * w
                cross2 = sum(v * v for v in xp)
                m2 += (cross2 * length + (t1**3 - t0**3) / 3.0) * w
        if m0 <= 0.0:
            raise ValueError("domain has zero measure under quadrature")
        return m2 - sum(c * c for c in m1) / m0
    raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")


def _bounding_box_cross_first(dom: Domain) -> AxisBox:
    """Bounding box with the slicing coordinate moved last."""
    if isinstance(dom, Disk):
        r = dom.radius
        return AxisBox(sides=(2.0 * r, 2.0 * r), origin=(-r, -r))
    if not isinstance(dom, (AxisBox, BoxUnion)):
        raise UnsupportedDomainError("cannot wrap this domain class")
    axis, d = dom.slicing_axis, dom.dim
    lo = [min(b.origin[i] for b in dom.boxes) for i in range(d)]
    hi = [max(b.origin[i] + b.sides[i] for b in dom.boxes) for i in range(d)]
    order = _cross_indices(d, axis) + [axis - 1]
    sides = tuple(hi[i] - lo[i] for i in order)
    origin = tuple(lo[i] for i in order)
    return AxisBox(sides=sides, origin=origin)


def generic_wrapper(dom: Domain) -> GenericSliced:
    """Wrap an exactly handled domain as a GenericSliced (for cross-checks)."""
    if isinstance(dom, GenericSliced):
        return dom
    bb = _bounding_box_cross_first(dom)
    return GenericSliced(
        dim=dom.dim,
        section_fn=lambda xp: sections(dom, xp),
        bounding_box=bb,
    )
