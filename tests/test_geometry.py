"""Domain slicing, measures, and moments.

Closed-form slicing statistics are checked against direct numerical
integrals over the cross variable, the second moments against a
midpoint-rule indicator quadrature written out here, and both against the
midpoint oracle of oracles.py, which shares no code with geometry.
"""

import ast
import importlib
import math
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berezin_lab import bounds, cli, geometry, harness, spectra
from berezin_lab.bounds import sliced_bound
from berezin_lab.constants import SemiclassicalParams
from berezin_lab.errors import EnumerationLimitError, NumericFailure, UnsupportedDomainError
from berezin_lab.geometry import (
    AxisBox,
    BoxUnion,
    Disk,
    critical_length,
    moment_J,
    section_measure,
    slicing_stats,
    surface,
    volume,
)
from berezin_lab.harness import asymptotic_diagnostics
from berezin_lab.spectra import enumerate_spectrum
from oracles import disk_lattice_integral_reference, midpoint_oracle, oracle_sections


def disk_long_stats_oracle(radius, lam, n=2_000_001):
    # direct midpoint integral over the cross variable u
    l_crit = critical_length(lam)
    u = np.linspace(-radius, radius, n)
    u = 0.5 * (u[1:] + u[:-1])
    w = 2.0 * radius / (n - 1)
    length = 2.0 * np.sqrt(np.clip(radius * radius - u * u, 0.0, None))
    long = length > l_crit
    return float(np.sum(length[long]) * w), float(np.count_nonzero(long) * w)


def moment_oracle_box_grid(boxes, n=2000):
    # midpoint indicator quadrature over the union's bounding box
    lo = np.array([min(b.origin[i] for b in boxes) for i in range(2)])
    hi = np.array([max(b.origin[i] + b.sides[i] for b in boxes) for i in range(2)])
    xs = np.linspace(lo[0], hi[0], n + 1)
    ys = np.linspace(lo[1], hi[1], n + 1)
    xs = 0.5 * (xs[1:] + xs[:-1])
    ys = 0.5 * (ys[1:] + ys[:-1])
    w = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (n * n)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    inside = np.zeros_like(xg, dtype=bool)
    for b in boxes:
        inside |= (
            (xg > b.origin[0])
            & (xg < b.origin[0] + b.sides[0])
            & (yg > b.origin[1])
            & (yg < b.origin[1] + b.sides[1])
        )
    m0 = float(np.sum(inside) * w)
    cx = float(np.sum(xg[inside]) * w) / m0
    cy = float(np.sum(yg[inside]) * w) / m0
    return float(np.sum((xg[inside] - cx) ** 2 + (yg[inside] - cy) ** 2) * w)


def test_critical_length_values():
    assert critical_length(math.pi**2) == pytest.approx(1.0, rel=1e-15)
    assert critical_length(4.0 * math.pi**2) == pytest.approx(0.5, rel=1e-15)
    assert critical_length(1.0) == pytest.approx(math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        critical_length(0.0)
    with pytest.raises(ValueError):
        critical_length(-4.0)
    with pytest.raises(ValueError):
        critical_length(math.inf)


# The test_sections_* cases check the midpoint oracle's section function.
def test_sections_box():
    box = AxisBox((1.0, 2.0))
    assert oracle_sections(box, (0.5,)) == [(0.0, 2.0)]
    assert oracle_sections(box, (0.0,)) == []  # boundary cross points excluded
    assert oracle_sections(box, (1.0,)) == []
    assert oracle_sections(box, (-0.3,)) == []


def test_sections_box_other_axis():
    box = AxisBox((1.0, 2.0), slicing_axis=1)
    assert oracle_sections(box, (1.3,)) == [(0.0, 1.0)]
    assert oracle_sections(box, (2.0,)) == []


def test_sections_disk():
    disk = Disk(1.0)
    (lo, hi) = oracle_sections(disk, (0.0,))[0]
    assert (lo, hi) == pytest.approx((-1.0, 1.0), abs=1e-15)
    (lo, hi) = oracle_sections(disk, (0.6,))[0]
    assert hi == pytest.approx(0.8, rel=1e-15)
    assert oracle_sections(disk, (1.0,)) == []
    assert oracle_sections(disk, (2.0,)) == []


def test_sections_union_sorted():
    union = BoxUnion(
        (AxisBox((1.0, 1.0), origin=(0.0, 2.0)), AxisBox((1.0, 1.0))),
    )
    assert oracle_sections(union, (0.5,)) == [(0.0, 1.0), (2.0, 3.0)]


def test_sections_cross_arity():
    with pytest.raises(ValueError):
        oracle_sections(AxisBox((1.0, 1.0)), (0.5, 0.5))


def test_oracles_import_nothing_from_the_checked_modules():
    # The midpoint oracle checks geometry, bounds and remainder, so it may
    # not import any name that one of them defines, directly or re-exported.
    checked = ("berezin_lab.geometry", "berezin_lab.bounds", "berezin_lab.remainder")
    path = Path(__file__).resolve().parent / "oracles.py"
    imports = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imports += [(a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports += [(node.module, a.name) for a in node.names]
    assert ("berezin_lab.spectra", "riesz_mean") in imports
    for module, name in imports:
        if module.split(".")[0] != "berezin_lab":
            continue
        obj = importlib.import_module(module)
        if name is not None:
            obj = getattr(obj, name)
        home = getattr(obj, "__module__", None) or obj.__name__
        assert home != "berezin_lab", f"{module} {name} opens the whole package"
        assert not home.startswith(checked), f"{module} {name} comes from {home}"


def test_gauss_legendre_literals_are_numpys_rule_bit_for_bit():
    # the disk's lattice terms read the 48-node rule from literals, so that
    # importing geometry imports no numpy.polynomial
    x, w = np.polynomial.legendre.leggauss(48)
    assert geometry._gl_x.tobytes() == x.tobytes()
    assert geometry._gl_w.tobytes() == w.tobytes()


# Grids of l_crit for the disk's lattice integral: one energy, energies whose
# sections are all too short to count (jmax = 0), dense and sparse geometric
# grids, an energy with more rows than a block holds, a 2-d grid, no energy.
_DISK_GRIDS = {
    "scalar": np.array(math.pi / math.sqrt(37.5)),
    "no-long-section": math.pi / np.sqrt([0.5, 1.0, 2.0, 3.0]),
    "dense-to-2e4": math.pi / np.sqrt(np.geomspace(0.01, 2e4, 777)),
    "sparse-to-1e6": math.pi / np.sqrt(np.geomspace(1.0, 1e6, 50)),
    "lambda-1e8": np.array([math.pi / 1e4]),
    "2-d": math.pi / np.sqrt(np.geomspace(1.0, 1e4, 24)).reshape(4, 6),
    "empty": np.array([]),
}


@pytest.mark.parametrize("grid", list(_DISK_GRIDS))
@pytest.mark.parametrize("e", [2.0, 2.5, 3.0])
@pytest.mark.parametrize("radius", [0.3, 1.0, 7.5, 40.0])
def test_disk_lattice_integral_is_the_per_energy_loop_bit_for_bit(radius, e, grid):
    # blocks across the grid give each energy the bits it has alone
    l_crit = _DISK_GRIDS[grid]
    got = geometry.DiskSections(radius).lattice_integral(e, l_crit)
    want = disk_lattice_integral_reference(radius, e, l_crit)
    assert got.shape == want.shape == l_crit.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [1e30, 1e300])
def test_disk_lattice_integral_refuses_past_the_enumeration_limit(lam):
    # 2R/l_crit is 6.4e14 and 6.4e149 lattice indices: refused, as lattice_sum
    # refuses, before any array is built (not a MemoryError or a ValueError)
    l_crit = np.array([math.pi / math.sqrt(lam)])
    with pytest.raises(EnumerationLimitError, match="limit of 2000000 lattice indices"):
        geometry.DiskSections(1.0).lattice_integral(2.0, l_crit)


def test_disk_lattice_integral_limit_counts_one_energys_indices(monkeypatch):
    # floor(2R/l_crit) indices per energy, not the grid's total, against the limit
    monkeypatch.setattr(geometry, "ENUMERATION_LIMIT", 10)
    disk = geometry.DiskSections(1.0)
    assert disk.lattice_integral(2.0, np.full(5, 2.0 / 10.99)).shape == (5,)
    with pytest.raises(EnumerationLimitError, match="2R/l_crit = 11 "):
        disk.lattice_integral(2.0, np.array([1.0, 2.0 / 11.0]))


def test_disk_lattice_integral_memory_is_bounded_by_its_block():
    # the (energy, j) rows are built block by block: 20,000 energies up to 2e4,
    # about 351,000 rows, peak near 1.6 MiB (16 MiB with the rows of the whole
    # grid built at once); what stays grows only with the energies
    l_crit = math.pi / np.sqrt(np.geomspace(1.0, 2e4, 20_000))
    tracemalloc.start()
    try:
        geometry.DiskSections(1.0).lattice_integral(2.0, l_crit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_slicing_stats_square():
    sq = AxisBox((1.0, 1.0))
    st = slicing_stats(sq, 2.0 * math.pi**2)
    assert (st.vol_omega_lambda, st.d_lambda) == (1.0, 1.0)
    st = slicing_stats(sq, 0.25 * math.pi**2)
    assert (st.vol_omega_lambda, st.d_lambda) == (0.0, 0.0)
    # equality with the critical length does not count as long
    st = slicing_stats(sq, math.pi**2)
    assert (st.vol_omega_lambda, st.d_lambda) == (0.0, 0.0)
    # exact for every domain: there is no quadrature to choose
    with pytest.raises(TypeError):
        slicing_stats(sq, 100.0, quad_points=64)


def test_slicing_stats_interval():
    st = slicing_stats(AxisBox((2.0,)), 4.0)
    assert (st.vol_omega_lambda, st.d_lambda) == (2.0, 1.0)
    st = slicing_stats(AxisBox((1.0,)), 4.0)
    assert (st.vol_omega_lambda, st.d_lambda) == (0.0, 0.0)


def test_slicing_stats_sliced_box_example():
    # 10 x 0.51 box, slicing along the short side, lambda = 4 pi^2
    box = AxisBox((10.0, 0.51))
    st = slicing_stats(box, 4.0 * math.pi**2)
    assert st.d_lambda == pytest.approx(10.0, rel=1e-15)
    assert st.vol_omega_lambda == pytest.approx(5.1, rel=1e-15)


def test_slicing_stats_disk_closed_form():
    for radius in (1.0, 2.5):
        for lam in (30.0, 100.0, 987.0):
            st = slicing_stats(Disk(radius), lam)
            l_crit = critical_length(lam)
            expected_d = 2.0 * math.sqrt(radius**2 - 0.25 * l_crit**2)
            assert st.d_lambda == pytest.approx(expected_d, rel=1e-14)
            vol_num, d_num = disk_long_stats_oracle(radius, lam)
            assert st.vol_omega_lambda == pytest.approx(vol_num, abs=5e-6)
            assert st.d_lambda == pytest.approx(d_num, abs=5e-6)


def test_slicing_stats_disk_below_threshold():
    st = slicing_stats(Disk(1.0), 2.0)  # l_crit = pi/sqrt(2) > 2R? no: 2.22 > 2
    assert (st.vol_omega_lambda, st.d_lambda) == (0.0, 0.0)


def test_slicing_monotone_in_lambda():
    rng = np.random.default_rng(555)
    domains = [
        AxisBox((1.0, 1.0)),
        AxisBox((3.0, 0.4)),
        Disk(1.3),
        BoxUnion((AxisBox((1.0, 2.0)), AxisBox((0.5, 0.5), origin=(4.0, 0.0)))),
    ]
    for dom in domains:
        lams = np.sort(np.exp(rng.uniform(0.0, 9.0, 20)))
        stats = [slicing_stats(dom, float(l)) for l in lams]
        vols = [s.vol_omega_lambda for s in stats]
        dls = [s.d_lambda for s in stats]
        assert all(b >= a for a, b in zip(vols, vols[1:]))
        assert all(b >= a for a, b in zip(dls, dls[1:]))
        assert all(v <= volume(dom) + 1e-12 for v in vols)
        # for lambda this large every section is long
        big = slicing_stats(dom, 1e8)
        assert big.vol_omega_lambda == pytest.approx(volume(dom), rel=1e-9)


def test_long_subset_volume_dominates_strip():
    # vol(Omega_lambda) >= l_crit * d_lambda on random unions
    rng = np.random.default_rng(90210)
    for _ in range(100):
        count = int(rng.integers(1, 5))
        boxes = []
        x0 = 0.0
        for _ in range(count):
            w = float(rng.uniform(0.3, 3.0))
            h = float(rng.uniform(0.3, 3.0))
            y0 = float(rng.uniform(-1.0, 1.0))
            boxes.append(AxisBox((w, h), origin=(x0, y0)))
            x0 += w + float(rng.uniform(0.05, 0.5))
        dom = BoxUnion(tuple(boxes))
        for lam in np.exp(rng.uniform(0.0, math.log(1e4), 10)):
            st = slicing_stats(dom, float(lam))
            assert st.vol_omega_lambda >= critical_length(float(lam)) * st.d_lambda - 1e-12


@st.composite
def _sliced_domains(draw):
    """Boxes (d = 2, 3, any axis), unions of up to four boxes, and disks."""
    side = st.floats(1e-3, 1e3)
    kind = draw(st.sampled_from(["box", "union", "disk"]))
    if kind == "disk":
        return Disk(draw(side))
    d = draw(st.integers(2, 3))
    axis = draw(st.integers(1, d))
    if kind == "box":
        sides = draw(st.lists(side, min_size=d, max_size=d))
        return AxisBox(tuple(sides), slicing_axis=axis)
    boxes, start = [], 0.0
    cells = st.lists(side, min_size=d, max_size=d)
    for sides in draw(st.lists(cells, min_size=1, max_size=4)):
        # side by side along the first axis, so the interiors are disjoint
        boxes.append(AxisBox(tuple(sides), (start,) + (0.0,) * (d - 1)))
        start += sides[0]
    return BoxUnion(tuple(boxes), slicing_axis=axis)


@settings(max_examples=150, deadline=None)
@given(dom=_sliced_domains())
@example(dom=AxisBox((0.889, 3.21, 1.12), slicing_axis=2))
def test_section_measure_properties(dom):
    # the statistics the corrected bound relies on, over energies from "no
    # section is long" to "every section is long"; for a disk, up to
    # l_crit = R / 100, where its closed form is still monotone (see below)
    top = 1e12 if not isinstance(dom, Disk) else (1e2 * math.pi / dom.radius) ** 2
    lam = np.geomspace(1e-2, top, 50)
    st_ = slicing_stats(dom, lam)
    vol, dl = st_.vol_omega_lambda, st_.d_lambda
    assert (np.diff(vol) >= 0.0).all() and (np.diff(dl) >= 0.0).all()
    assert (vol <= volume(dom)).all()
    # nu_nonneg_cap relies on vol(Omega_Lambda) >= l_crit d(Omega_Lambda)
    assert (vol >= critical_length(lam) * dl).all()
    if not isinstance(dom, Disk):
        lengths = [b.sides[dom.slicing_axis - 1] for b in dom.boxes]
        every_long = critical_length(lam) < min(lengths)
        assert every_long[-1]
        assert (vol[every_long] == volume(dom)).all()


def test_disk_long_section_volume_is_monotone_on_a_dense_grid():
    # around lambda = 1e6, a cutoff that a disk:1 sweep reaches: arcsin(u*/R)
    # amplified the rounding of u*/R by its slope 2R / l_crit, beyond the true
    # change of vol(Omega_Lambda) between neighbouring rows; arccos does not
    lam = np.geomspace(0.99e6, 1.01e6, 2000)
    assert (np.diff(slicing_stats(Disk(1.0), lam).vol_omega_lambda) >= 0.0).all()


@pytest.mark.parametrize("radius", [1.0, 1.3])
@pytest.mark.parametrize("lam", [1e3, 1.5e4, 8e6, 1e10, 1e12])
def test_disk_long_section_volume_matches_mpmath(radius, lam):
    # M1 at the float critical length s, against 40-digit u* s + 2 R^2
    # arccos(s/(2R)): within an ulp of 1, relative, where arcsin(u*/R) was
    # off by 1.3e-15 at 1.5e4 and 8.4e-12 at 1e12 for R = 1
    s = float(critical_length(lam))
    got = slicing_stats(Disk(radius), lam).vol_omega_lambda
    with mpmath.workdps(40):
        r, s = mpmath.mpf(radius), mpmath.mpf(s)
        u = mpmath.sqrt(r * r - s * s / 4)
        ref = u * s + 2 * r * r * mpmath.acos(s / (2 * r))
        assert abs(got - ref) <= 2.0**-52 * ref


_DOMAIN_CLASSES = {"AxisBox", "BoxUnion", "Disk"}


def _names(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name in tree; an import of a class
    counts, renamed or not."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_bounds_names_no_domain_class():
    # bounds reads a domain only through its section measure, and each form
    # of the measure answers for its own lattice integral, so a new domain or
    # a new form needs no branch there
    names = _names(ast.parse(Path(bounds.__file__).read_text()))
    assert {"section_measure", "lattice_integral"} <= names
    assert not names & (_DOMAIN_CLASSES | {"SectionAtoms", "DiskSections", "isinstance"})


@pytest.mark.parametrize("module", [spectra, harness, cli], ids=lambda m: m.__name__)
def test_layers_name_no_domain_class(module):
    # every other layer reads what it asks of a domain from its family's
    # declaration in geometry, the text grammar included, so a new family
    # needs no branch there
    tree = ast.parse(Path(module.__file__).read_text())
    assert not _names(tree) & _DOMAIN_CLASSES
    grammar = ast.parse(Path(geometry.__file__).read_text())
    defined = {n.name for n in grammar.body if isinstance(n, ast.FunctionDef)}
    assert {"parse_domain", "render_domain"} <= defined
    assert not {"parse_domain", "render_domain"} & {
        n.name for n in tree.body if isinstance(n, ast.FunctionDef)
    }


def test_volume_and_surface():
    assert volume(AxisBox((2.0, 1.0))) == pytest.approx(2.0, rel=1e-15)
    assert surface(AxisBox((2.0, 1.0))) == pytest.approx(6.0, rel=1e-15)
    assert volume(AxisBox((1.0, 1.0, 1.0))) == pytest.approx(1.0, rel=1e-15)
    assert surface(AxisBox((1.0, 1.0, 1.0))) == pytest.approx(6.0, rel=1e-15)
    assert volume(Disk(2.0)) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert surface(Disk(2.0)) == pytest.approx(4.0 * math.pi, rel=1e-15)
    union = BoxUnion((AxisBox((1.0, 1.0)), AxisBox((2.0, 1.0), origin=(3.0, 0.0))))
    assert volume(union) == pytest.approx(3.0, rel=1e-15)
    assert surface(union) == pytest.approx(4.0 + 6.0, rel=1e-15)


def test_surface_unavailable_cases():
    touching = BoxUnion((AxisBox((1.0, 1.0)), AxisBox((1.0, 1.0), origin=(1.0, 0.0))))
    assert volume(touching) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(UnsupportedDomainError):
        surface(touching)


class _NotADomain:
    """A dimension, as every domain has, and nothing else."""

    dim = 2


@pytest.mark.parametrize(
    "quantity",
    [
        lambda dom: enumerate_spectrum(dom, 100.0),
        lambda dom: slicing_stats(dom, 100.0),
        lambda dom: sliced_bound(dom, SemiclassicalParams(1.5, 2), 100.0),
        volume,
        surface,
        moment_J,
        lambda dom: asymptotic_diagnostics(dom, 1.5, (50.0, 100.0)),
    ],
    ids=[
        "enumerate_spectrum", "slicing_stats", "sliced_bound", "volume",
        "surface", "moment_J", "asymptotic_diagnostics",
    ],
)
def test_unknown_domain_class_is_rejected(quantity):
    with pytest.raises(UnsupportedDomainError):
        quantity(_NotADomain())


@pytest.mark.parametrize(
    "dom",
    [
        AxisBox((1e-300, 1e-300)),
        BoxUnion((AxisBox((1e-300, 1e-300)), AxisBox((1e-300, 1e-300), (1.0, 0.0)))),
        AxisBox((1e200, 1e200)),
        Disk(1e-200),
        Disk(1e200),
    ],
)
def test_volume_outside_the_floats_is_a_numeric_failure(dom):
    with pytest.raises(NumericFailure, match=r"volume of .* is (0\.0|inf), not a"):
        volume(dom)


def test_moment_box_and_disk():
    assert moment_J(AxisBox((1.0, 1.0))) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert moment_J(AxisBox((2.0, 1.0))) == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert moment_J(Disk(1.0)) == pytest.approx(0.5 * math.pi, rel=1e-15)
    # radial oracle: 2 pi int_0^R r^3 dr
    r = np.linspace(0.0, 1.5, 1_000_001)
    rm = 0.5 * (r[1:] + r[:-1])
    radial = 2.0 * math.pi * float(np.sum(rm**3) * (1.5 / 1_000_000))
    assert moment_J(Disk(1.5)) == pytest.approx(radial, rel=1e-9)


def test_moment_union_parallel_axis():
    union = BoxUnion((AxisBox((1.0, 1.0)), AxisBox((1.0, 1.0), origin=(2.0, 0.0))))
    # two unit squares, centroids one unit from the shared centroid
    assert moment_J(union) == pytest.approx(2.0 / 6.0 + 2.0, rel=1e-14)
    assert moment_J(union) == pytest.approx(
        moment_oracle_box_grid(union.boxes), rel=1e-3
    )
    lopsided = BoxUnion(
        (AxisBox((1.0, 2.0)), AxisBox((0.5, 0.5), origin=(1.5, 1.0)))
    )
    assert moment_J(lopsided) == pytest.approx(
        moment_oracle_box_grid(lopsided.boxes), rel=1e-3
    )


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@st.composite
def _boxes(draw):
    d = draw(st.integers(1, 4))
    sides = draw(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d))
    origin = draw(st.lists(st.floats(-1e10, 1e10), min_size=d, max_size=d))
    return tuple(sides), tuple(origin), draw(st.integers(1, d))


@settings(max_examples=80, deadline=None)
@given(case=_boxes())
@example(case=((1e-3, 1e-3), (1e6, 1e6), 2))
def test_a_box_is_its_one_box_union(case):
    sides, origin, axis = case
    box = AxisBox(sides, origin, slicing_axis=axis)
    union = BoxUnion((AxisBox(sides, origin),), slicing_axis=axis)
    d = box.dim
    assert moment_J(box) == math.prod(sides) * sum(s * s for s in sides) / 12.0
    for quantity in (volume, surface, moment_J):
        assert _bits(quantity(box)) == _bits(quantity(union))
    a, b = section_measure(box), section_measure(union)
    assert _bits(a.lengths) == _bits(b.lengths)
    assert _bits(a.weights) == _bits(b.weights)
    lam = np.geomspace(0.1, 1e3, 7)
    a, b = slicing_stats(box, lam), slicing_stats(union, lam)
    assert _bits(a.vol_omega_lambda) == _bits(b.vol_omega_lambda)
    assert _bits(a.d_lambda) == _bits(b.d_lambda)
    if d >= 2:
        p = SemiclassicalParams(1.5, d)
        assert _bits(sliced_bound(box, p, lam)) == _bits(sliced_bound(union, p, lam))
    # every index n_i is at most sqrt(1 + 1e6^(1/d)): about 1,000 entries at most
    w = [1.0 / (s * s) for s in sides]
    cutoff = math.pi**2 * (sum(w) + 1e6 ** (1.0 / d) * min(w))
    a, b = enumerate_spectrum(box, cutoff), enumerate_spectrum(union, cutoff)
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.multiplicities.tobytes() == b.multiplicities.tobytes()
    assert box.boxes == (box,)


@st.composite
def _dyadic_unions(draw):
    # 2-3 boxes, each in its own unit slot of one axis, so they are disjoint;
    # sides and offsets are multiples of 2^-10 below 4, and the shift is a
    # multiple of 2^20 up to 2^40, so every shifted origin is exact
    d = draw(st.integers(2, 3))
    split = draw(st.integers(0, d - 1))
    grid = st.integers(0, 4 * 1024 - 1)
    boxes = []
    for k in range(draw(st.integers(2, 3))):
        lo = [draw(grid) for _ in range(d)]
        hi = [draw(st.integers(a + 1, 4 * 1024)) for a in lo]
        lo[split] = k * 1024 + draw(st.integers(0, 1023))
        hi[split] = draw(st.integers(lo[split] + 1, (k + 1) * 1024))
        boxes.append(
            (tuple((b - a) / 1024 for a, b in zip(lo, hi)), tuple(a / 1024 for a in lo))
        )
    shift = tuple(draw(st.integers(-(2**20), 2**20)) * 2.0**20 for _ in range(d))
    return tuple(boxes), shift


@settings(max_examples=80, deadline=None)
@given(case=_dyadic_unions())
@example(case=((((1.0, 1.0), (0.0, 0.0)), ((2.0, 1.0), (3.0, 0.0))), (2.0**40, 0.0)))
def test_moment_union_is_translation_invariant(case):
    boxes, shift = case
    here = BoxUnion(tuple(AxisBox(s, o) for s, o in boxes))
    there = BoxUnion(
        tuple(AxisBox(s, tuple(x + t for x, t in zip(o, shift))) for s, o in boxes)
    )
    assert moment_J(there) == pytest.approx(moment_J(here), rel=1e-14, abs=0.0)


def test_generic_wrapper_matches_exact_stats():
    # the midpoint oracle against the exact statistics, volume and moment
    domains = [
        AxisBox((2.0, 1.0)),
        BoxUnion((AxisBox((1.0, 1.0)), AxisBox((1.0, 0.7), origin=(2.0, 0.1)))),
        Disk(1.0),
    ]
    for dom in domains:
        for lam in (40.0, 400.0):
            exact = slicing_stats(dom, lam)
            approx = midpoint_oracle(dom, 1.5, lam)
            assert approx.volume == pytest.approx(volume(dom), rel=1e-3)
            assert approx.moment == pytest.approx(moment_J(dom), rel=1e-3)
            assert approx.vol_omega_lambda == pytest.approx(
                exact.vol_omega_lambda, rel=1e-3, abs=1e-12
            )
            assert approx.d_lambda == pytest.approx(exact.d_lambda, rel=1e-3, abs=1e-12)


def test_wrapper_respects_slicing_axis():
    # the midpoint oracle slices along the domain's own axis
    tall = AxisBox((1.0, 2.0), slicing_axis=1)
    st = slicing_stats(tall, 40.0)
    approx = midpoint_oracle(tall, 1.5, 40.0)
    assert approx.vol_omega_lambda == pytest.approx(st.vol_omega_lambda, rel=1e-6)
    assert approx.d_lambda == pytest.approx(st.d_lambda, rel=1e-6)


def test_axis_choice_is_geometric_not_positional():
    # slicing a 2 x 1 box along axis 1 equals slicing a 1 x 2 box along axis 2
    a = slicing_stats(AxisBox((2.0, 1.0), slicing_axis=1), 50.0)
    b = slicing_stats(AxisBox((1.0, 2.0), slicing_axis=2), 50.0)
    assert a.vol_omega_lambda == b.vol_omega_lambda
    assert a.d_lambda == b.d_lambda


def test_constructor_validation():
    with pytest.raises(ValueError):
        AxisBox(())
    with pytest.raises(ValueError):
        AxisBox((1.0, -2.0))
    with pytest.raises(ValueError):
        AxisBox((1.0,), origin=(0.0, 0.0))
    with pytest.raises(ValueError):
        AxisBox((1.0, 1.0), slicing_axis=3)
    with pytest.raises(ValueError):
        Disk(0.0)
    with pytest.raises(TypeError):  # a disk has no slicing axis
        Disk(1.0, slicing_axis=1)
    with pytest.raises(ValueError):
        BoxUnion(())
    with pytest.raises(ValueError):
        BoxUnion((AxisBox((1.0, 1.0)), AxisBox((1.0, 1.0), origin=(0.5, 0.5))))
    with pytest.raises(ValueError):
        BoxUnion((AxisBox((1.0, 1.0)), AxisBox((1.0,), origin=(5.0,))))
