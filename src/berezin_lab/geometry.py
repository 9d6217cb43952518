"""Domain model and axis slicing: long-section statistics, volumes, moments.

Supported domains are axis-aligned boxes, finite unions of boxes with
pairwise disjoint interiors, and planar disks: the domains whose spectra are
enumerated exactly, so each one can reach a verdict. A box is a one-box
union: its `boxes` is (self,), so every box quantity (section family,
volume, surface, moment, enumeration) has the one kernel of a union, a sum
over its boxes. Boxes and unions carry their slicing axis, because their
sliced bounds depend on the orientation; it is 1-based and defaults to the
last coordinate. A disk has no slicing axis: its sections are the same in
every direction.

slicing_stats collects the two quantities the corrected bounds consume: the
volume of the subset of the domain whose section through a cross point is
longer than the critical length pi/sqrt(lambda), and the cross-sectional
measure of those long-section points. Both are closed-form for disks; for
boxes and unions they are exact sums over one family of (section length,
cross weight) pairs, one per box. The sliced bound sums over the same family.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.typing import ArrayLike

from .errors import NumericFailure, UnsupportedDomainError

__all__ = [
    "AxisBox",
    "BoxUnion",
    "Disk",
    "Domain",
    "SlicingStats",
    "critical_length",
    "section_family",
    "slicing_stats",
    "volume",
    "surface",
    "moment_J",
]


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


Domain = Union[AxisBox, BoxUnion, Disk]


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


def section_family(dom: Domain) -> tuple[np.ndarray, np.ndarray]:
    """Section lengths along the slicing axis and the cross weight of each.

    A box or union gives one section per box, weighted by its cross area. A
    disk's sections form a continuous family, which its callers treat in
    closed form. Callers sum over the family along the last axis of
    (energies, sections) arrays, so an energy alone gives the same bits as
    inside a grid.
    """
    if not isinstance(dom, (AxisBox, BoxUnion)):
        raise UnsupportedDomainError(
            f"no discrete section family for {type(dom).__name__}"
        )
    ax = dom.slicing_axis - 1
    cross = [i for i in range(dom.dim) if i != ax]
    lengths = [b.sides[ax] for b in dom.boxes]
    weights = [math.prod(b.sides[i] for i in cross) for b in dom.boxes]
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


def volume(dom: Domain) -> float:
    """Lebesgue measure; NumericFailure if it underflows to 0 or overflows."""
    if isinstance(dom, (AxisBox, BoxUnion)):
        vol = sum(math.prod(b.sides) for b in dom.boxes)
    elif isinstance(dom, Disk):
        try:
            vol = math.pi * dom.radius**2
        except OverflowError:
            vol = math.inf
    else:
        raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")
    if not (math.isfinite(vol) and vol > 0.0):
        raise NumericFailure(f"volume of {dom!r} is {vol!r}, not a positive finite float")
    return vol


def surface(dom: Domain) -> float:
    """Boundary measure; unions must be separated for the per-box sum to hold."""
    if isinstance(dom, (AxisBox, BoxUnion)):
        if not all(_separated(*pair) for pair in itertools.combinations(dom.boxes, 2)):
            msg = "surface of a union needs pairwise separated boxes"
            raise UnsupportedDomainError(msg)
        return sum(_box_surface(b) for b in dom.boxes)
    if isinstance(dom, Disk):
        return 2.0 * math.pi * dom.radius
    raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")


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
    raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")

