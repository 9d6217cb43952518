"""Exact spectra for boxes, unions, and disks.

The box oracle below enumerates lattice tuples directly with nested loops
and no merging, so it exercises none of the production code paths. Disk
values are cross-checked against an (m, k) scan in mpmath arithmetic. The
array merge, the array box walk and the buffered Riesz mean are checked, bit
for bit, against the tuple merge, the recursive walk and the per-energy
expression they replaced, kept below verbatim as references.
"""

import functools
import io
import itertools
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from berezin_lab import harness, spectra
from berezin_lab.errors import CutoffExceededError, EnumerationLimitError
from berezin_lab.geometry import AxisBox, BoxUnion, Disk
from berezin_lab.harness import sweep_riesz, sweep_sums
from berezin_lab.specfun import bessel_zeros_below
from berezin_lab.spectra import Spectrum, counting, enumerate_spectrum, riesz_mean
from oracles import riesz_integral_check

# frozen in test_specfun.py from the series-bisection oracle
J0_ZERO_1 = 2.404825557695773


def box_eigenvalues_oracle(sides, cutoff):
    bounds = [int(math.ceil(a * math.sqrt(cutoff) / math.pi)) + 1 for a in sides]
    out = []
    for ns in itertools.product(*(range(1, b + 1) for b in bounds)):
        lam = math.pi**2 * sum((n / a) ** 2 for n, a in zip(ns, sides))
        if lam < cutoff:
            out.append(lam)
    return np.sort(np.array(out))


def box_walk_reference(sides, cutoff, limit):
    """The recursive walk that spectra._box_eigenvalues replaced, verbatim but
    for its limit, which it takes as an argument and checks itself."""
    d = len(sides)
    inv2 = [1.0 / (a * a) for a in sides]
    # Minimal contribution of the not-yet-assigned indices, for pruning.
    tail = [sum(inv2[j + 1 :]) for j in range(d)]
    budget = cutoff / math.pi**2 * (1.0 + 1e-12)
    pi2 = math.pi**2
    out = []

    def rec(i, acc):
        w = inv2[i]
        n = 1
        if i == d - 1:
            # val grows with n, so nothing past the first val >= cutoff is kept.
            while (val := pi2 * (acc + n * n * w)) < cutoff:
                out.append(val)
                if len(out) > limit:
                    raise EnumerationLimitError(f"more than {limit} entries")
                n += 1
        else:
            while acc + n * n * w + tail[i] <= budget:
                rec(i + 1, acc + n * n * w)
                n += 1

    rec(0, 0.0)
    return np.array(out, dtype=float)


def merge_reference(pairs):
    """The tuple merge that spectra._merge replaced, verbatim."""
    out = []
    for v, m in sorted(pairs):
        if out and v - out[-1][0] <= 1e-9 * abs(v):
            out[-1][1] += m
        else:
            out.append([v, m])
    return tuple((float(v), int(m)) for v, m in out)


def riesz_mean_reference(spec, sigma, lam):
    """The per-energy expression that spectra.riesz_mean replaced, verbatim,
    on a 1-D float grid."""
    ev, mult = spec.eigenvalues, spec.multiplicities
    ends = np.searchsorted(ev, lam, side="left")
    return np.array(
        [np.sum(mult[:i] * (x - ev[:i]) ** sigma) for x, i in zip(lam.flat, ends.flat)]
    )


def merge_record_reference(pairs, count=math.inf):
    """The same walk, counting values joined to a first value that differs,
    among the `count` lowest values with multiplicity."""
    joins, max_gap, anchor, position = 0, 0.0, None, 0
    for v, m in sorted(pairs):
        if anchor is not None and v - anchor <= 1e-9 * abs(v):
            below = max(0, min(m, count - position))
            if v != anchor and below:
                joins += below
                max_gap = max(max_gap, (v - anchor) / v)
        else:
            anchor = v
        position += m
    return joins, max_gap


def disk_eigenvalues_oracle(radius, cutoff, dps=20):
    mpmath.mp.dps = dps
    z_max = mpmath.sqrt(cutoff) * radius
    out = []
    m = 0
    while mpmath.besseljzero(m, 1) < z_max:
        k = 1
        while True:
            z = mpmath.besseljzero(m, k)
            if z >= z_max:
                break
            lam = float((z / radius) ** 2)
            out.extend([lam] if m == 0 else [lam, lam])
            k += 1
        m += 1
    return np.sort(np.array(out))


def test_unit_square_low_eigenvalues():
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    pi2 = math.pi**2
    assert spec.eigenvalues[0] == pytest.approx(2.0 * pi2, rel=1e-14)
    assert spec.multiplicities[0] == 1
    assert spec.eigenvalues[1] == pytest.approx(5.0 * pi2, rel=1e-14)
    assert spec.multiplicities[1] == 2
    assert counting(spec, 2.0 * pi2) == 0  # strict counting at an eigenvalue
    assert counting(spec, 2.0 * pi2 + 1e-9) == 1
    assert counting(spec, 50.0) == len(box_eigenvalues_oracle((1.0, 1.0), 50.0))


def test_interval_spectrum():
    spec = enumerate_spectrum(AxisBox((math.pi,)), 150.0)
    for k, lam in enumerate(spec.expanded, start=1):
        assert lam == pytest.approx(float(k * k), rel=1e-14)
    spec = enumerate_spectrum(AxisBox((0.5,)), 500.0)
    assert spec.eigenvalues[0] == pytest.approx(4.0 * math.pi**2, rel=1e-14)


def test_box_spectra_match_oracle():
    for sides in ((1.0, 1.0), (2.0, 1.0), (math.pi, 1.0), (1.0, 1.0, 1.0)):
        spec = enumerate_spectrum(AxisBox(sides), 2000.0)
        oracle = box_eigenvalues_oracle(sides, 2000.0)
        assert spec.total_count == len(oracle)
        np.testing.assert_allclose(spec.expanded, oracle, rtol=1e-12)


def test_disk_ground_state():
    spec = enumerate_spectrum(Disk(1.0), 50.0)
    assert spec.eigenvalues[0] == pytest.approx(J0_ZERO_1**2, rel=1e-12)
    assert spec.multiplicities[0] == 1
    # first nonradial mode is doubly degenerate
    assert spec.multiplicities[1] == 2
    spec2 = enumerate_spectrum(Disk(2.0), 50.0)
    assert spec2.eigenvalues[0] == pytest.approx(J0_ZERO_1**2 / 4.0, rel=1e-12)


def test_disk_spectrum_matches_mpmath_scan():
    spec = enumerate_spectrum(Disk(1.0), 2000.0)
    oracle = disk_eigenvalues_oracle(1.0, 2000.0)
    assert spec.total_count == len(oracle)
    np.testing.assert_allclose(spec.expanded, oracle, rtol=1e-11)


def test_disk_spectrum_matches_scipy_at_high_cutoff():
    special = pytest.importorskip("scipy.special")
    cutoff = 5e4
    z_max = math.sqrt(cutoff)
    oracle = []
    for m in range(int(z_max) + 1):
        zs = special.jn_zeros(m, int(z_max / math.pi) + 2)
        assert zs[-1] > z_max
        lam = zs[zs < z_max] ** 2
        oracle.extend(np.repeat(lam, 1 if m == 0 else 2))
    spec = enumerate_spectrum(Disk(1.0), cutoff)
    assert spec.total_count == len(oracle)
    np.testing.assert_allclose(spec.expanded, np.sort(oracle), rtol=5e-15, atol=0.0)


def test_disk_enumeration_limit_is_bounded_work(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match="would exceed"):
        enumerate_spectrum(Disk(1.0), 1e9)
    assert time.perf_counter() - start < 2.0
    # raised before the scan from the inscribed square's lattice count ...
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", 100)
    with pytest.raises(EnumerationLimitError, match="would exceed"):
        enumerate_spectrum(Disk(1.0), 1e4)
    # ... or after it, when that lower bound is below the limit but the count is not
    monkeypatch.undo()
    assert len(enumerate_spectrum(Disk(1.0), 2000.0).values) == 246
    # the limit counts distinct zeros, not values repeated by multiplicity
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", 246)
    assert enumerate_spectrum(Disk(1.0), 2000.0).total_count > 246
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", 245)
    with pytest.raises(EnumerationLimitError, match="exceeded"):
        enumerate_spectrum(Disk(1.0), 2000.0)


def test_spectrum_structural_invariants():
    for dom in (AxisBox((1.0, 1.0)), Disk(1.0)):
        spec = enumerate_spectrum(dom, 500.0)
        ev = spec.eigenvalues
        assert np.all(np.diff(ev) > 0.0)
        assert np.all(spec.multiplicities >= 1)
        assert spec.cumulative_counts[-1] == spec.total_count
        assert len(spec.expanded) == spec.total_count
        assert np.all(ev < 500.0)


def test_riesz_mean_at_sigma_zero_is_counting():
    spec = enumerate_spectrum(AxisBox((1.5, 1.0)), 800.0)
    rng = np.random.default_rng(31)
    for lam in 800.0 * rng.random(100):
        lam = float(lam)
        assert riesz_mean(spec, 0.0, lam) == float(counting(spec, lam))


def test_grid_queries_match_pointwise():
    spec = enumerate_spectrum(AxisBox((2.0, 1.0)), 5e3)
    # unsorted, and with eigenvalues themselves, where counting is strict
    lams = np.concatenate([np.geomspace(5e3, 1.0, 150), spec.eigenvalues[:40]])
    counts = counting(spec, lams)
    means = riesz_mean(spec, 1.5, lams)
    assert counts.shape == means.shape == lams.shape
    for lam, n, s in zip(lams.tolist(), counts.tolist(), means.tolist()):
        assert n == counting(spec, lam) == np.count_nonzero(spec.expanded < lam)
        assert s == riesz_mean(spec, 1.5, lam)
        assert s == pytest.approx(
            float(np.sum(np.clip(lam - spec.expanded, 0.0, None) ** 1.5)), rel=1e-12
        )


def test_riesz_mean_square_closed_value():
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    pi2 = math.pi**2
    # only the ground state lies strictly below 5 pi^2
    assert riesz_mean(spec, 1.0, 5.0 * pi2) == pytest.approx(3.0 * pi2, rel=1e-14)


def test_riesz_mean_monotone_in_lambda():
    spec = enumerate_spectrum(Disk(1.0), 400.0)
    vals = [riesz_mean(spec, 1.5, float(l)) for l in np.linspace(1.0, 399.0, 300)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


_side = st.floats(0.4, 2.0)


@functools.lru_cache(maxsize=None)
def _integral_spectrum(dom):
    return enumerate_spectrum(dom, 800.0 if dom.dim == 2 else 300.0)


@settings(max_examples=80, deadline=None)
@given(
    dom=st.one_of(
        st.tuples(_side, _side).map(AxisBox),
        st.tuples(_side, _side, _side).map(AxisBox),
        st.tuples(_side, _side, _side, _side).map(
            lambda s: BoxUnion((AxisBox(s[:2]), AxisBox(s[2:], origin=(s[0], 0.0))))
        ),
        st.just(Disk(0.8)),
    ),
    sigma=st.floats(1.0, 4.0),
    frac=st.floats(0.01, 1.0),
)
@example(dom=AxisBox((1.0, 1.0)), sigma=1.5, frac=0.125)
@example(dom=AxisBox((2.0, 1.0)), sigma=1.0, frac=0.375)
@example(dom=Disk(0.8), sigma=2.0, frac=0.25)
def test_riesz_integral_identity(dom, sigma, frac):
    # random boxes (d = 2, 3), two-box unions and one disk
    spec = _integral_spectrum(dom)
    assert riesz_integral_check(spec, sigma, frac * spec.cutoff) <= 1e-12


def test_weyl_ratio_improves_with_lambda():
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 1.1e5)
    phase = lambda lam: lam / (4.0 * math.pi)
    r_lo = counting(spec, 1e3) / phase(1e3)
    r_hi = counting(spec, 1e5) / phase(1e5)
    assert 0.8 <= r_hi <= 1.0
    assert abs(r_hi - 1.0) < abs(r_lo - 1.0)


def test_eigenvalues_scale_as_inverse_square():
    base = enumerate_spectrum(AxisBox((1.0, 2.0)), 400.0)
    for t in (0.5, 3.0):
        scaled = enumerate_spectrum(AxisBox((t, 2.0 * t)), 400.0 / t**2)
        assert scaled.total_count == base.total_count
        np.testing.assert_allclose(scaled.expanded, base.expanded / t**2, rtol=1e-12)


def test_query_beyond_cutoff_rejected():
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    with pytest.raises(CutoffExceededError):
        counting(spec, 100.0 + 1e-6)
    with pytest.raises(CutoffExceededError):
        riesz_mean(spec, 1.0, 200.0)
    assert counting(spec, 100.0) == spec.total_count  # the cutoff itself is fine


def test_enumeration_guards(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(spectra, "ENUMERATION_LIMIT", 10)
        with pytest.raises(EnumerationLimitError):
            enumerate_spectrum(AxisBox((1.0, 1.0)), 1e4)
    with pytest.raises(ValueError):
        enumerate_spectrum(AxisBox((1.0, 1.0)), -5.0)


def test_enumeration_limit_counts_the_whole_union(monkeypatch):
    a = AxisBox((1.0, 1.0))
    b = AxisBox((1.0, 1.0), origin=(2.0, 0.0))
    n = enumerate_spectrum(a, 2000.0).total_count  # entries, one per lattice point
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", n)
    enumerate_spectrum(a, 2000.0)
    # each member is within the limit, the union is not
    with pytest.raises(EnumerationLimitError, match="exceeded"):
        enumerate_spectrum(BoxUnion((a, b)), 2000.0)
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", n - 1)
    with pytest.raises(EnumerationLimitError, match="exceeded"):
        enumerate_spectrum(a, 2000.0)
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", 2 * n)
    union = enumerate_spectrum(BoxUnion((a, b)), 2000.0)
    assert union.total_count == 2 * n


def test_spectrum_arrays_are_read_only():
    spec = enumerate_spectrum(AxisBox((2.0, 1.0)), 500.0)
    arrays = (spec.eigenvalues, spec.multiplicities, spec.cumulative_counts, spec.expanded)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    assert spec.eigenvalues.dtype == np.float64
    assert spec.multiplicities.dtype == np.int64
    assert spec.values == tuple(
        zip(spec.eigenvalues.tolist(), spec.multiplicities.tolist())
    )
    # built from writable arrays, the spectrum is read-only and the inputs are not
    ev, mult = np.array([1.0, 2.0]), np.array([1, 2])
    built = Spectrum(3.0, ev, mult, [], [])
    assert not built.eigenvalues.flags.writeable
    ev[0] = 0.5
    assert built.eigenvalues[0] == 0.5 and ev.flags.writeable


def test_disk_values_are_numpy_squares():
    # numpy's vectorised square differs from Python's ** (C pow) in the last
    # bit of a few of these values; tests/golden/ pins those bits.
    radius, cutoff = 1.3, 1.2e4
    z_max = radius * math.sqrt(cutoff) * (1.0 + 1e-12)
    zeros = bessel_zeros_below(list(range(math.floor(z_max) + 1)), z_max)
    flat = [z for zs in zeros for z in zs]
    lams = np.square(np.array(flat) / radius)
    expected = np.sort(lams[lams < cutoff])
    spec = enumerate_spectrum(Disk(radius), cutoff)
    assert spec.eigenvalues.tobytes() == expected.tobytes()
    # the rule is visible: Python's ** differs from it in some last bit
    assert not np.array_equal(lams, [(z / radius) ** 2 for z in flat])


# One cluster member: offset from the base in units of 1e-9 relative, then
# this many ulps, and a multiplicity.
_near = st.tuples(
    st.floats(0.0, 3.0) | st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.integers(-2, 2),
    st.sampled_from([1, 2]),
)
_clusters = st.lists(
    st.tuples(st.floats(1e-3, 1e7), st.lists(_near, min_size=1, max_size=8)),
    max_size=12,
)


def _cluster_values(clusters):
    pairs = []
    for base, members in clusters:
        for offset, ulps, mult in members:
            v = base * (1.0 + offset * 1e-9)
            for _ in range(abs(ulps)):
                v = float(np.nextafter(v, math.copysign(math.inf, ulps)))
            pairs.append((v, mult))
    return pairs


@settings(max_examples=200, deadline=None)
@given(clusters=_clusters, data=st.data())
@example(clusters=[], data=None)  # empty input
@example(clusters=[(1.0, [(0.0, 0, 1), (0.6, 0, 2), (1.2, 0, 1), (1.8, 0, 2)])], data=None)
def test_merge_matches_tuple_reference(clusters, data):
    pairs = _cluster_values(clusters)
    if data is not None:
        pairs = data.draw(st.permutations(pairs))
    vals = np.array([v for v, _ in pairs], dtype=float)
    mult = np.array([m for _, m in pairs], dtype=np.int64)
    spec = Spectrum(1.0, *spectra._merge(np.repeat(vals, mult)))
    ref = merge_reference(pairs)
    assert spec.eigenvalues.tobytes() == np.array([v for v, _ in ref], dtype=float).tobytes()
    assert spec.multiplicities.tolist() == [m for _, m in ref]
    assert spec.merge_record() == merge_record_reference(pairs)
    count = data.draw(st.integers(0, spec.total_count)) if data else 0
    assert spec.merge_record(count) == merge_record_reference(pairs, count)


def test_union_of_equal_boxes_doubles_every_value():
    box = AxisBox((1.3, 0.7))
    union = BoxUnion((box, AxisBox((1.3, 0.7), origin=(5.0, -3.0))))
    one, two = enumerate_spectrum(box, 4e3), enumerate_spectrum(union, 4e3)
    assert two.eigenvalues.tobytes() == one.eigenvalues.tobytes()
    assert two.multiplicities.tolist() == (2 * one.multiplicities).tolist()
    assert (two.merge_joins, two.merge_max_gap) == (0, 0.0)


def test_disk_orders_above_zero_count_twice():
    # no two orders share a zero (Bourget), so each entry is one (m, k)
    radius, cutoff = 1.0, 900.0
    z_max = radius * math.sqrt(cutoff) * (1.0 + 1e-12)
    zeros = bessel_zeros_below(list(range(math.floor(z_max) + 1)), z_max)
    pairs = sorted(
        (lam, 1 if m == 0 else 2)
        for m, zs in enumerate(zeros)
        for lam in np.square(np.asarray(zs) / radius).tolist()
        if lam < cutoff
    )
    assert any(m > 0 and len(zs) for m, zs in enumerate(zeros))
    spec = enumerate_spectrum(Disk(radius), cutoff)
    assert spec.values == tuple(pairs)
    assert (spec.merge_joins, spec.merge_max_gap) == (0, 0.0)
    raw = spectra._disk_eigenvalues(radius, cutoff)
    assert np.sort(raw).tobytes() == spec.expanded.tobytes()


def test_merge_record():
    # 2x1: coincident eigenvalues are bit-equal, so nothing is recorded
    spec = enumerate_spectrum(AxisBox((2.0, 1.0)), 1e5)
    assert (spec.merge_joins, spec.merge_max_gap) == (0, 0.0)
    assert spec.total_count > len(spec.eigenvalues)
    # near sqrt(2): distinct eigenvalues within 1e-9, in runs wider than 1e-9
    sides, cutoff = (1.41421356, 1.0), 2e5
    spec = enumerate_spectrum(AxisBox(sides), cutoff)
    raw = spectra._box_eigenvalues(sides, cutoff)
    pairs = [(v, 1) for v in raw.tolist()]
    assert spec.values == merge_reference(pairs)
    assert (spec.merge_joins, spec.merge_max_gap) == merge_record_reference(pairs)
    assert spec.merge_joins > 1000 and 1e-10 < spec.merge_max_gap <= 1e-9
    # the sweeps report the record of the spectrum they read
    dom = AxisBox(sides)
    rep = sweep_riesz(dom, 1.5, (1e3, cutoff))
    assert rep.metadata["merge_joins"] == spec.merge_joins
    assert rep.metadata["merge_max_gap"] == spec.merge_max_gap
    rep = sweep_sums(dom, 2.0, (1, 20000))
    spec = enumerate_spectrum(dom, rep.metadata["cutoff_used"])
    joins, gap = spec.merge_record(20000)  # of the eigenvalues the rows read
    assert rep.metadata["merge_joins"] == joins > 0
    assert rep.metadata["merge_max_gap"] == gap
    assert not any(c.startswith("merge") for c in rep.columns)


def test_sums_merge_record_does_not_move_with_the_cutoff(monkeypatch):
    # The rows read the n_max lowest eigenvalues; enumerating far above them
    # adds joins the record must leave out, and moves no CSV byte.
    dom = AxisBox((1.41421356, 1.0))
    rep = sweep_sums(dom, 2.0, (1, 20000))
    far_above = lambda d, cutoff: enumerate_spectrum(d, 3.0 * cutoff)
    monkeypatch.setattr(harness, "enumerate_spectrum", far_above)
    far = sweep_sums(dom, 2.0, (1, 20000))
    assert far.metadata["cutoff_used"] > rep.metadata["cutoff_used"]
    record = [rep.metadata[k] for k in ("merge_joins", "merge_max_gap")]
    assert [far.metadata[k] for k in ("merge_joins", "merge_max_gap")] == record
    assert record[0] > 0
    one = sweep_sums(AxisBox((1e3, 1e3, 1.0)), 1.0, (1,))
    assert (one.metadata["merge_joins"], one.metadata["merge_max_gap"]) == (0, 0.0)
    far_csv, rep_csv = io.StringIO(), io.StringIO()
    far.to_csv(far_csv)
    rep.to_csv(rep_csv)
    assert far_csv.getvalue() == rep_csv.getvalue()


@st.composite
def _boxes(draw, min_d=1, max_d=4):
    """Sides in [0.05, 5] and a cutoff up to 1e5 with at most about 30,000
    entries, by the Weyl count omega_d |box| cutoff^(d/2) / (2 pi)^d."""
    d = draw(st.integers(min_d, max_d))
    sides = tuple(draw(st.floats(0.05, 5.0)) for _ in range(d))
    ball = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    top = min(1e5, 2 * math.pi * (3e4 / (ball * math.prod(sides))) ** (2 / d))
    return sides, 10 ** draw(st.floats(0.0, math.log10(top)))


@settings(max_examples=150, deadline=None)
@given(box=_boxes())
@example(box=((2.0, 1.0), 1e6))  # the box-sweep benchmark box
@example(box=((1.41421356, 1.0), 2e5))  # distinct values closer than 1e-9
@example(box=((1.7, 0.31, 1.13), 3e4))
@example(box=((1.0, 1.0), 2 * math.pi**2))  # empty: the ground state is the cutoff
@example(box=((1e-150, 1.0), 1e4))  # empty: one side's weight is 1e300
def test_box_walk_matches_recursive_reference(box):
    sides, cutoff = box
    limit = spectra.ENUMERATION_LIMIT
    walk = spectra._box_eigenvalues(sides, cutoff)
    assert walk.dtype == np.float64
    assert walk.tobytes() == box_walk_reference(sides, cutoff, limit).tobytes()


@st.composite
def _small_spectra(draw):
    """A box, a union of two or three boxes with equal sides (so their values
    coincide), or a small disk, each with at most about 30,000 entries."""
    kind = draw(st.sampled_from(["box", "union", "disk"]))
    if kind == "disk":
        return enumerate_spectrum(Disk(draw(st.floats(0.3, 2.0))), draw(st.floats(10.0, 3e3)))
    sides, cutoff = draw(_boxes(max_d=3))
    if kind == "box":
        return enumerate_spectrum(AxisBox(sides), cutoff)
    copies = draw(st.integers(2, 3))
    gap = 2.0 * max(sides)
    boxes = [AxisBox(sides, origin=(k * gap,) + (0.0,) * (len(sides) - 1)) for k in range(copies)]
    return enumerate_spectrum(BoxUnion(tuple(boxes)), cutoff / copies)


@st.composite
def _riesz_grids(draw, spec):
    """Unsorted energies: one below the first eigenvalue, some eigenvalues
    themselves, some in between, and the cutoff."""
    ev, cutoff = spec.eigenvalues.tolist(), spec.cutoff
    first = ev[0] if ev else cutoff
    grid = [first * draw(st.floats(0.0, 1.0, exclude_max=True)), cutoff]
    if ev:
        grid += draw(st.lists(st.sampled_from(ev), max_size=8))
    grid += draw(st.lists(st.floats(first, cutoff), max_size=24))
    return np.array(draw(st.permutations(grid)), dtype=float)


# numpy's ** takes its own path for some exponents (an int 2 squares, 0.5 is a
# square root), so each value of sigma comes both as an int and as a float.
_RIESZ_SIGMAS = (0.5, 1, 1.0, 1.5, 2, 2.0, 2.5, 3, 3.0, 4, 4.0, 7.3)


@settings(max_examples=80, deadline=None)
@given(spec=_small_spectra(), data=st.data())
def test_riesz_mean_matches_per_energy_reference_bitwise(spec, data):
    grid = data.draw(_riesz_grids(spec))
    for sigma in _RIESZ_SIGMAS:
        means = np.asarray(riesz_mean(spec, sigma, grid))
        assert means.tobytes() == riesz_mean_reference(spec, sigma, grid).tobytes()
        # the buffer is shared between energies: a lone energy has it fresh
        for x, s in zip(grid.tolist(), means.tolist()):
            assert np.asarray(riesz_mean(spec, sigma, x)).tobytes() == np.float64(s).tobytes()


def _tight_cutoff(sides, indices):
    """pi^2 times the sum of n_i^2 / a_i^2 at `indices`, added as the walk adds
    it: that lattice point sits on the cutoff, not below it, and the recursion
    keeps its prefixes anyway, inside its 1e-12 slack."""
    acc = 0.0
    for n, a in zip(indices, sides):
        acc = acc + n * n * (1.0 / (a * a))
    return math.pi**2 * acc


@pytest.mark.parametrize(
    "sides, cutoff",
    [
        ((1.0,), _tight_cutoff((1.0,), (3,))),
        # 10 prefixes n_1 = 1..10 are kept by the recursion, 9 lead to entries
        ((10.0, 0.1), _tight_cutoff((10.0, 0.1), (10, 1))),
        ((1.0, 1.0, 1.0), _tight_cutoff((1.0, 1.0, 1.0), (5, 1, 1))),
        ((1.3, 0.7, 1.1, 0.9), 900.0),
    ],
)
def test_box_walk_limit_is_exact(sides, cutoff, monkeypatch):
    ref = box_walk_reference(sides, cutoff, spectra.ENUMERATION_LIMIT)
    count = ref.size
    assert count > 0
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", count)
    assert spectra._box_eigenvalues(sides, cutoff).tobytes() == ref.tobytes()
    monkeypatch.setattr(spectra, "ENUMERATION_LIMIT", count - 1)
    with pytest.raises(EnumerationLimitError, match=f"the limit of {count - 1} entries"):
        spectra._box_eigenvalues(sides, cutoff)
    with pytest.raises(EnumerationLimitError):
        box_walk_reference(sides, cutoff, count - 1)


@settings(max_examples=60, deadline=None)
@given(box=_boxes(min_d=2), data=st.data())
@example(box=((2.0, 1.0), 2e4), data=None)
@example(box=((1.7, 0.31, 1.13), 3e4), data=None)
def test_box_spectrum_is_invariant_under_side_permutation(box, data):
    sides, cutoff = box
    perm = tuple(reversed(sides)) if data is None else data.draw(st.permutations(sides))
    spec = enumerate_spectrum(AxisBox(sides), cutoff)
    other = enumerate_spectrum(AxisBox(tuple(perm)), cutoff)
    assert other.total_count == spec.total_count
    np.testing.assert_allclose(other.expanded, spec.expanded, rtol=1e-14, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    sides=st.lists(
        st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0)), min_size=1, max_size=3
    ),
    cutoff=st.floats(20.0, 3e3),
)
@example(sides=[(1.0, 1.0), (math.pi, 1.0)], cutoff=2e3)
@example(sides=[(1.0, 1.0), (1.0, 1.0)], cutoff=2e3)  # every value doubled
@example(sides=[(2.0, 1.0), (1.0, 2.0), (math.pi, 1.0)], cutoff=1e3)
def test_union_spectrum_is_multiset_union(sides, cutoff):
    boxes, x = [], 0.0
    for a, b in sides:  # side by side along the first axis, disjoint
        boxes.append(AxisBox((a, b), origin=(x, 0.0)))
        x += a + 1.0
    union = enumerate_spectrum(BoxUnion(tuple(boxes)), cutoff)
    parts = [enumerate_spectrum(box, cutoff) for box in boxes]
    assert union.total_count == sum(p.total_count for p in parts)
    merged = np.sort(np.concatenate([p.expanded for p in parts]))
    # merging moves a value to the first of its entry, by at most the merge gap
    gap = union.merge_max_gap + max(p.merge_max_gap for p in parts)
    np.testing.assert_allclose(union.expanded, merged, rtol=1e-12 + gap, atol=0.0)
