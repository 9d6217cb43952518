"""Domain families and axis slicing: long-section statistics, volumes, moments.

Supported domains are axis-aligned boxes, finite unions of boxes with
pairwise disjoint interiors, and planar disks, whose spectra are enumerated
exactly. Each family is declared here once, as its classes' methods and
attributes (listed in `errors.Domain`) and its branch of the text grammar,
and every other module reads that declaration: spectra, bounds, harness and
the command line name no domain class. A box is a one-box union: its `boxes`
is (self,), so it has the box family's methods, each a sum over the boxes.
Boxes and unions carry their slicing axis, 1-based and by default the last
coordinate; a disk has none, as its sections are the same in every direction.

Domains are given as text: "box:1x2", "disk:0.75",
"union:box(1x1)@(0,0)+box(2x0.5)@(1,0)". A box or a union may be followed
by ";axis=<i>" to slice along coordinate i instead of the last one; a disk
takes no axis, since its sliced quantities do not depend on the direction.
parse_domain reads that form and each family's `render` writes it.

Everything the corrected bounds take from a domain depends only on mu, the
cross measure pushed forward to the length of each section along the slicing
axis. section_measure gives it in one of two forms: atoms (one section length
and the box's cross area per box) for boxes and unions, and the disk's
density. Each form gives the tails M1(s) = int_{t>s} t dmu and
M0(s) = mu((s, inf)): slicing_stats is (M1, M0) at the critical length
pi/sqrt(lambda), the volume of the long-section subset and the cross measure
of its base, and the volume is M1(0). Each form's lattice_integral gives
the integral of lattice sums against mu that the sliced bound needs:
exactly over atoms, and through the disk's G_e(s) = int_{t>s}
(1 - (s/t)^2)^e dmu at s = j l_crit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import re
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    Domain, DomainParseError, NumericFailure, Record, UnsupportedDomainError, check_domain,
)
from .remainder import _check_lattice_limit, lattice_sum
from .spectra import _box_eigenvalues, _check_limit, _disk_eigenvalues

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "AxisBox",
    "BoxUnion",
    "Disk",
    "Domain",
    "parse_domain",
    "render_domain",
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


def _join(values: tuple[float, ...], sep: str) -> str:
    return sep.join(repr(v) for v in values)


def _axis(d: int, axis: int | None) -> int:
    axis = d if axis is None else int(axis)
    if not 1 <= axis <= d:
        raise ValueError(f"slicing_axis must lie in [1, {d}], got {axis}")
    return axis


class _BoxFamily(Domain):
    """Boxes and unions, through `boxes` and `slicing_axis`. Polya (1961) holds
    for a box, which tiles, and for a union: N and eta add over its boxes."""

    __slots__ = ()
    polya_theorem = True
    eigenvalues_per_entry = 1

    @property
    def dim(self) -> int:
        return len(self.boxes[0].sides)

    def render(self) -> str:
        if self.boxes[0] is self and not any(self.origin):  # a box at the origin
            text = f"box:{_join(self.sides, 'x')}"
        else:  # only the union grammar places a box
            parts = (f"box({_join(b.sides, 'x')})@({_join(b.origin, ',')})" for b in self.boxes)
            text = "union:" + "+".join(parts)
        return text if self.slicing_axis == self.dim else f"{text};axis={self.slicing_axis}"

    def eigenvalues(self, cutoff: float) -> np.ndarray:
        parts: list[np.ndarray] = []
        for box in self.boxes:
            parts.append(_box_eigenvalues(box.sides, cutoff))
            _check_limit(sum(p.size for p in parts))
        return np.concatenate(parts)

    def section_measure(self) -> SectionAtoms:
        """One atom per box; NumericFailure names a box whose cross area is no float."""
        ax = self.slicing_axis - 1
        lengths = np.array([b.sides[ax] for b in self.boxes])
        weights = [_in_floats("cross weight", _cross(b, ax), b) for b in self.boxes]
        return SectionAtoms(lengths, np.array(weights))

    def surface(self) -> float:
        """The sum over the boxes, which must be pairwise separated for it to hold."""
        if not all(_separated(*pair) for pair in itertools.combinations(self.boxes, 2)):
            raise UnsupportedDomainError("surface of a union needs pairwise separated boxes")
        faces = (sum(2.0 * _cross(b, i) for i in range(b.dim)) for b in self.boxes)
        return sum(faces)

    def moment_J(self) -> float:
        """The parallel-axis theorem in pairwise form,
        sum_i v_i |s_i|^2/12 + sum_{i<j} v_i v_j |c_i - c_j|^2 / V for box
        volumes v_i, sides s_i and centres c_i: there is no centroid to round,
        and each centre gap is a difference of origins plus half a difference
        of sides, so the moment is translation-invariant, and a box's is
        exactly prod(sides) * sum(sides^2) / 12."""
        vols = [math.prod(b.sides) for b in self.boxes]
        own = sum(v * sum(s * s for s in b.sides) / 12.0 for v, b in zip(vols, self.boxes))
        gaps = sum(
            vols[i] * vols[j] * sum(
                ((ao - bo) + 0.5 * (as_ - bs)) ** 2
                for ao, as_, bo, bs in zip(a.origin, a.sides, b.origin, b.sides)
            )
            for (i, a), (j, b) in itertools.combinations(enumerate(self.boxes), 2)
        )
        return own + gaps / sum(vols)


class AxisBox(_BoxFamily):
    """Open axis-aligned box: product of (origin_i, origin_i + sides_i)."""

    __slots__ = _fields = ("sides", "origin", "slicing_axis")

    def __init__(
        self,
        sides: tuple[float, ...],
        origin: tuple[float, ...] | None = None,
        slicing_axis: int | None = None,
    ) -> None:
        sides = tuple(float(s) for s in sides)
        if not sides:
            raise ValueError("box needs at least one side")
        if any(not (math.isfinite(s) and s > 0.0) for s in sides):
            raise ValueError(f"box sides must be positive finite reals, got {sides!r}")
        origin = (0.0,) * len(sides) if origin is None else tuple(float(o) for o in origin)
        if len(origin) != len(sides):
            raise ValueError("origin length must match sides length")
        if any(not math.isfinite(o) for o in origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        super().__init__(sides, origin, _axis(len(sides), slicing_axis))

    @property
    def boxes(self) -> tuple[AxisBox]:
        """The box as a one-box union."""
        return (self,)


class Disk(Domain):
    """Open planar disk of given radius, centered at the origin. Polya holds
    for it too (Filonov et al. 2023), a theorem that no check reads yet."""

    __slots__ = _fields = ("radius",)
    dim = 2
    polya_theorem = False
    eigenvalues_per_entry = 2  # an entry is a zero, of order m >= 1 for two values

    def __init__(self, radius: float) -> None:
        r = float(radius)
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"radius must be positive and finite, got {radius!r}")
        super().__init__(r)

    def render(self) -> str:
        return f"disk:{self.radius!r}"

    def eigenvalues(self, cutoff: float) -> np.ndarray:
        return _disk_eigenvalues(self.radius, cutoff)

    def section_measure(self) -> DiskSections:
        return DiskSections(self.radius)

    def surface(self) -> float:
        return 2.0 * math.pi * self.radius

    def moment_J(self) -> float:
        return 0.5 * math.pi * self.radius**4


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


class BoxUnion(_BoxFamily):
    """Finite union of same-dimension boxes with pairwise disjoint interiors."""

    __slots__ = _fields = ("boxes", "slicing_axis")

    def __init__(
        self, boxes: tuple[AxisBox, ...], slicing_axis: int | None = None
    ) -> None:
        boxes = tuple(boxes)
        if not boxes:
            raise ValueError("union needs at least one box")
        d = boxes[0].dim
        if any(b.dim != d for b in boxes):
            raise ValueError("all boxes in a union must share the dimension")
        for (i, a), (j, b) in itertools.combinations(enumerate(boxes), 2):
            if _interiors_overlap(a, b):
                raise ValueError(f"boxes {i} and {j} have overlapping interiors")
        super().__init__(boxes, _axis(d, slicing_axis))


_UNION_BOX = re.compile(r"box\(([^()]*)\)@\(([^()]*)\)")


def _parse_number(token: str, what: str, pos: int, positive: bool = True) -> float:
    try:
        v = float(token)
    except ValueError:
        raise DomainParseError(f"could not read {what} from {token!r}", pos) from None
    if not (math.isfinite(v) and (v > 0.0 or not positive)):
        need = "positive and finite" if positive else "finite"
        raise DomainParseError(f"{what} must be {need}, got {token!r}", pos)
    return v


def _parse_list(
    body: str, sep: str, what: str, start: int, positive: bool = True
) -> tuple[float, ...]:
    values = []
    pos = start
    for token in body.split(sep):
        values.append(_parse_number(token, what, pos, positive))
        pos += len(token) + 1
    return tuple(values)


def parse_domain(text: str) -> Domain:
    """Build a domain from its text form; see the module docstring."""
    body = text.strip()
    axis = None
    if ";" in body:
        body, _, tail = body.partition(";")
        opt = re.fullmatch(r"\s*axis=(\d+)\s*", tail)
        if opt is None:
            raise DomainParseError(
                f"unrecognized option {tail!r}, expected axis=<int>", len(body) + 1
            )
        axis = int(opt.group(1))
    kind, sep, rest = body.partition(":")
    if not sep:
        raise DomainParseError("expected <kind>:<parameters>", 0)
    start = len(kind) + 1

    def check_axis(d: int) -> None:
        if axis is not None and not 1 <= axis <= d:
            msg = f"slicing_axis must lie in [1, {d}], got {axis}"
            raise DomainParseError(msg, len(body) + 1)

    if kind == "box":
        sides = _parse_list(rest, "x", "side length", start)
        check_axis(len(sides))
        return AxisBox(sides, slicing_axis=axis)
    if kind == "disk":
        radius = _parse_number(rest, "radius", start)
        if axis is not None:
            msg = "a disk takes no axis: its sections are the same in every direction"
            raise DomainParseError(msg, len(body) + 1)
        return Disk(radius)
    if kind == "union":
        boxes = []
        pos = start
        for part in re.split(r"\+(?=box\()", rest):  # not the + of an exponent
            match = _UNION_BOX.fullmatch(part)
            if match is None:
                raise DomainParseError(
                    f"expected box(<sides>)@(<origin>), got {part!r}", pos
                )
            sides = _parse_list(match.group(1), "x", "side length", pos + 4)
            at = pos + 4 + len(match.group(1)) + 3
            origin = _parse_list(match.group(2), ",", "origin coordinate", at, False)
            if len(origin) != len(sides):
                raise DomainParseError(
                    f"origin has {len(origin)} coordinates for {len(sides)} sides", pos
                )
            boxes.append(AxisBox(sides, origin))
            pos += len(part) + 1
        check_axis(boxes[0].dim)
        try:
            return BoxUnion(tuple(boxes), slicing_axis=axis)
        except ValueError as exc:
            raise DomainParseError(str(exc), start) from None
    raise DomainParseError(f"unknown domain kind {kind!r}", 0)


def render_domain(dom: Domain) -> str:
    """The text form that the domain's family declares: parse_domain's inverse."""
    return dom.render()


class SlicingStats(Record):
    """Long-section statistics; the fields are arrays when lam is one."""

    __slots__ = _fields = ("vol_omega_lambda", "d_lambda")


# The 48-node Gauss-Legendre rule on [-1, 1], numpy's leggauss(48) written
# as literals so that importing geometry imports no numpy.polynomial. Its
# nodes are odd and its weights even about 0, bit for bit, so the 24
# negative nodes, ascending, and their weights give the rule. Mapped to
# [0, pi/2] once; reused by every disk evaluation.
_GL_NEG_X = np.array([
    -0.9987710072524261, -0.9935301722663508, -0.9841245837228269,
    -0.9705915925462473, -0.9529877031604308, -0.9313866907065543,
    -0.9058791367155696, -0.8765720202742479, -0.8435882616243935,
    -0.8070662040294426, -0.7671590325157404, -0.7240341309238146,
    -0.6778723796326639, -0.6288673967765136, -0.5772247260839727,
    -0.523160974722233, -0.4669029047509584, -0.4086864819907167,
    -0.3487558862921607, -0.28736248735545555, -0.22476379039468905,
    -0.1612223560688917, -0.0970046992094627, -0.03238017096286937,
])
_GL_NEG_W = np.array([
    0.0031533460523098414, 0.007327553901276135, 0.011477234579234614,
    0.015579315722943226, 0.019616160457356056, 0.023570760839324047,
    0.027426509708357034, 0.031167227832798097, 0.034777222564770394,
    0.0382413510658305, 0.04154508294346455, 0.04467456085669423,
    0.04761665849249024, 0.0503590355538542, 0.05289018948519344,
    0.05519950369998403, 0.057277292100402916, 0.059114839698395344,
    0.0607044391658936, 0.06203942315989242, 0.06311419228625373,
    0.06392423858464787, 0.06446616443594982, 0.06473769681268365,
])
_gl_x = np.concatenate((_GL_NEG_X, -_GL_NEG_X[::-1]))
_gl_w = np.concatenate((_GL_NEG_W, _GL_NEG_W[::-1]))
_gl_phi = 0.25 * math.pi * (_gl_x + 1.0)
_gl_wphi = 0.25 * math.pi * _gl_w
_gl_cos = np.cos(_gl_phi)
_gl_cos2 = _gl_cos**2
_gl_sin2 = np.sin(_gl_phi) ** 2
# Rows of the disk's integrand per block: 256 x 48 doubles, 96 KiB, stay
# below glibc's 128 KiB mmap threshold, so no temporary is a fresh mapping.
_DISK_BLOCK_ROWS = 256


def critical_length(lam: ArrayLike) -> ArrayLike:
    """Section-length threshold pi/sqrt(lambda), elementwise."""
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam) & (lam > 0.0)):
        raise ValueError(f"lambda must be positive and finite, got {lam!r}")
    return math.pi / np.sqrt(lam)


class SectionAtoms(Record):
    """mu as atoms: per box, its side along the slicing axis and cross area."""

    __slots__ = _fields = ("lengths", "weights")

    def tail(self, s: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(M1(s), M0(s)), summed along the last axis of (energies, sections)
        arrays, so an energy alone gives the same bits as inside a grid."""
        long = self.lengths > np.asarray(s)[..., None]
        m1 = (self.weights * np.where(long, self.lengths, 0.0)).sum(axis=-1)
        return m1, (self.weights * long).sum(axis=-1)

    def lattice_integral(self, e: float, l_crit: np.ndarray) -> np.ndarray:
        """Integral of lattice_sum(e, t / l_crit) against mu at each l_crit:
        the weighted sum over the atoms, along the last axis as in tail."""
        with np.errstate(over="ignore"):  # lattice_sum names an infinite ratio
            ratio = self.lengths / l_crit[..., None]
        terms = self.weights * lattice_sum(e, ratio)
        return terms.sum(axis=-1)


class DiskSections(Record):
    """mu of the disk: density t/(2 sqrt(R^2 - t^2/4)) on (0, 2R)."""

    __slots__ = _fields = ("radius",)

    def tail(self, s: ArrayLike) -> tuple[ArrayLike, ArrayLike]:
        """(u* s + 2 R^2 arccos(s/(2R)), 2 u*) with u* = sqrt(R^2 - s^2/4);
        arccos(s/(2R)) = arcsin(u*/R), but stays well conditioned as u* -> R."""
        r = self.radius
        long = 2.0 * r > s
        half = np.minimum(0.5 * s, r)  # s**2 overflows for a subnormal lam
        u_star = np.sqrt(r * r - half * half)
        m1 = np.where(long, u_star * s + 2.0 * r * r * np.arccos(half / r), 0.0)
        return m1, np.where(long, 2.0 * u_star, 0.0)

    def lattice_integral(self, e: float, l_crit: np.ndarray) -> np.ndarray:
        """Sum of G_e(j l_crit) over j >= 1 with j l_crit <= 2R at each l_crit:
        each term is twice the cross integral over u > 0, by Gauss-Legendre in
        a smoothing substitution.

        The (energy, j) rows of the whole grid are built and evaluated in
        blocks of whole energies of at most _DISK_BLOCK_ROWS rows, or one
        energy alone, so the memory held is bounded by the block. Each energy
        keeps its own matrix product and sum, which gives the bits of one
        energy evaluated alone. An energy with more lattice indices than the
        enumeration limit raises EnumerationLimitError before any array is built."""
        r_dom = self.radius
        flat = l_crit.ravel()
        ratio = 2.0 * r_dom / flat
        _check_lattice_limit(ratio, "disk lattice integral at 2R/l_crit =")
        jmax = np.floor(ratio).astype(np.intp)
        ends = np.cumsum(jmax).tolist()
        out = np.empty(flat.size)
        i = 0
        while i < flat.size:
            a = ends[i] - int(jmax[i])
            k = max(bisect.bisect_right(ends, a + _DISK_BLOCK_ROWS, i), i + 1)
            rows = jmax[i:k]
            cuts = [t - a for t in ends[i:k]]  # where each energy's rows end
            js = np.arange(1.0, cuts[-1] + 1.0) - np.repeat([0, *cuts[:-1]], rows)
            uj2 = r_dom * r_dom - (0.5 * js * np.repeat(flat[i:k], rows)) ** 2
            np.maximum(uj2, 0.0, out=uj2)
            block = uj2[:, None]
            integrand = (block * _gl_cos2 / (r_dom * r_dom - block * _gl_sin2)) ** e * _gl_cos
            quad = np.empty_like(uj2)
            for s, t in zip([0, *cuts], cuts):
                np.matmul(integrand[s:t], _gl_wphi, out=quad[s:t])
            terms = 2.0 * np.sqrt(uj2) * quad
            out[i:k] = [terms[s:t].sum() for s, t in zip([0, *cuts], cuts)]
            i = k
        return out.reshape(l_crit.shape)


def _in_floats(what: str, value: float, dom: object) -> float:
    """value, or NumericFailure naming the quantity that left the floats."""
    if not (math.isfinite(value) and value > 0.0):
        raise NumericFailure(
            f"{what} of {dom!r} is {float(value)!r}, not a positive finite float"
        )
    return value


def section_measure(dom: Domain) -> SectionAtoms | DiskSections:
    """mu, the cross measure pushed forward to section length: atoms or a density."""
    return check_domain(dom).section_measure()


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
    """Boundary measure; unions must be separated for the per-box sum to hold.
    NumericFailure if it underflows to 0 or overflows."""
    return _in_floats("surface", check_domain(dom).surface(), dom)


def _cross(box: AxisBox, i: int) -> float:
    """Area of the box's face across axis i: the product of its other sides."""
    return math.prod(box.sides[:i] + box.sides[i + 1 :])


def moment_J(dom: Domain) -> float:
    """Second moment of the domain about its centroid; NumericFailure if it
    is no positive float (a float power that overflows reads as inf)."""
    try:
        value = check_domain(dom).moment_J()
    except ArithmeticError:
        value = math.inf
    return _in_floats("moment_J", value, dom)
