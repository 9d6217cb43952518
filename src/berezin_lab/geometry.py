"""Domain model and axis slicing: long-section statistics, volumes, moments.

Supported domains are axis-aligned boxes, finite unions of boxes with
pairwise disjoint interiors, and planar disks: the domains whose spectra are
enumerated exactly, so each one can reach a verdict. A box is a one-box
union: its `boxes` is (self,), so every box quantity (section measure,
surface, moment, enumeration) has the one kernel of a union, a sum
over its boxes. Boxes and unions carry their slicing axis, because their
sliced bounds depend on the orientation; it is 1-based and defaults to the
last coordinate. A disk has no slicing axis: its sections are the same in
every direction.

Everything the corrected bounds take from a domain depends only on mu, the
cross measure pushed forward to the length of each section along the slicing
axis. section_measure gives it in one of two forms: atoms (one section length
and the box's cross area per box) for boxes and unions, and the disk's
density. Each form gives the tails M1(s) = int_{t>s} t dmu and
M0(s) = mu((s, inf)): slicing_stats is (M1, M0) at the critical length
pi/sqrt(lambda), the volume of the long-section subset and the cross measure
of its base, and the volume is M1(0). The sliced bound integrates lattice
sums against mu: exactly over atoms, and through the disk's
G_e(s) = int_{t>s} (1 - (s/t)^2)^e dmu at s = j l_crit.
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
    "SectionAtoms",
    "DiskSections",
    "section_measure",
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


# 48 Gauss-Legendre nodes mapped to [0, pi/2] once; reused by every disk
# evaluation.
_gl_x, _gl_w = np.polynomial.legendre.leggauss(48)
_gl_phi = 0.25 * math.pi * (_gl_x + 1.0)
_gl_wphi = 0.25 * math.pi * _gl_w
_gl_cos = np.cos(_gl_phi)
_gl_cos2 = _gl_cos**2
_gl_sin2 = np.sin(_gl_phi) ** 2


def critical_length(lam: ArrayLike) -> ArrayLike:
    """Section-length threshold pi/sqrt(lambda), elementwise."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    return math.pi / np.sqrt(lam)


@dataclass(frozen=True)
class SectionAtoms:
    """mu as atoms: per box, its side along the slicing axis and cross area."""

    lengths: np.ndarray
    weights: np.ndarray

    def tail(self, s: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(M1(s), M0(s)), summed along the last axis of (energies, sections)
        arrays, so an energy alone gives the same bits as inside a grid."""
        long = self.lengths > np.asarray(s)[..., None]
        m1 = (self.weights * np.where(long, self.lengths, 0.0)).sum(axis=-1)
        return m1, (self.weights * long).sum(axis=-1)


@dataclass(frozen=True)
class DiskSections:
    """mu of the disk: density t/(2 sqrt(R^2 - t^2/4)) on (0, 2R)."""

    radius: float

    def tail(self, s: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(u* s + 2 R^2 arcsin(u*/R), 2 u*) with u* = sqrt(R^2 - s^2/4)."""
        r = self.radius
        long = 2.0 * r > s
        half = np.minimum(0.5 * s, r)  # s**2 overflows for a subnormal lam
        u_star = np.sqrt(r * r - half * half)
        m1 = np.where(long, u_star * s + 2.0 * r * r * np.arcsin(u_star / r), 0.0)
        return m1, np.where(long, 2.0 * u_star, 0.0)

    def lattice_terms(self, e: float, l_crit: float) -> np.ndarray:
        """G_e(j l_crit) for each j >= 1 with j l_crit <= 2R: twice the cross
        integral over u > 0, by Gauss-Legendre in a smoothing substitution."""
        r_dom = self.radius
        jmax = int(math.floor(2.0 * r_dom / l_crit))
        js = np.arange(1, jmax + 1, dtype=float)
        uj2 = r_dom * r_dom - (0.5 * js * l_crit) ** 2
        np.maximum(uj2, 0.0, out=uj2)
        uj = np.sqrt(uj2)
        num = uj2[:, None] * _gl_cos2[None, :]
        den = r_dom * r_dom - uj2[:, None] * _gl_sin2[None, :]
        integrand = (num / den) ** e * _gl_cos[None, :]
        return 2.0 * uj * (integrand @ _gl_wphi)


def _in_floats(what: str, value: float, dom: object) -> float:
    """value, or NumericFailure naming the quantity that left the floats."""
    if not (math.isfinite(value) and value > 0.0):
        raise NumericFailure(
            f"{what} of {dom!r} is {float(value)!r}, not a positive finite float"
        )
    return value


def section_measure(dom: Domain) -> SectionAtoms | DiskSections:
    """mu, the cross measure pushed forward to section length: one atom per
    box (NumericFailure names a box whose cross area leaves the floats), or
    the disk's density."""
    if isinstance(dom, Disk):
        return DiskSections(dom.radius)
    if not isinstance(dom, (AxisBox, BoxUnion)):
        raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")
    ax = dom.slicing_axis - 1
    lengths = np.array([b.sides[ax] for b in dom.boxes])
    weights = [_in_floats("cross weight", _cross(b, ax), b) for b in dom.boxes]
    return SectionAtoms(lengths, np.array(weights))


def slicing_stats(dom: Domain, lam: ArrayLike) -> SlicingStats:
    """Volume of the long-section subset and cross measure of its base: the
    tails (M1, M0) at the critical length, which a section must exceed
    strictly to count as long. lam may be an array; so are the statistics.
    """
    vol, dl = section_measure(dom).tail(critical_length(lam))
    return SlicingStats(vol[()], dl[()])


def volume(dom: Domain) -> float:
    """Lebesgue measure M1(0); NumericFailure if it underflows to 0 or overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        vol = float(section_measure(dom).tail(0.0)[0])
    # An overflowing R^2 makes a disk's M1(0) inf * 0 = NaN: its volume is inf.
    return _in_floats("volume", math.inf if math.isnan(vol) else vol, dom)


def surface(dom: Domain) -> float:
    """Boundary measure; unions must be separated for the per-box sum to hold."""
    if isinstance(dom, (AxisBox, BoxUnion)):
        if not all(_separated(*pair) for pair in itertools.combinations(dom.boxes, 2)):
            msg = "surface of a union needs pairwise separated boxes"
            raise UnsupportedDomainError(msg)
        faces = (sum(2.0 * _cross(b, i) for i in range(b.dim)) for b in dom.boxes)
        return _in_floats("surface", sum(faces), dom)
    if isinstance(dom, Disk):
        return _in_floats("surface", 2.0 * math.pi * dom.radius, dom)
    raise UnsupportedDomainError(f"unknown domain class {type(dom).__name__}")


def _cross(box: AxisBox, i: int) -> float:
    """Area of the box's face across axis i: the product of its other sides."""
    return math.prod(box.sides[:i] + box.sides[i + 1 :])


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

