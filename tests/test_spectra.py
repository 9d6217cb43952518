"""Exact spectra for boxes, unions, and disks.

The box oracle below enumerates lattice tuples directly with nested loops
and no merging, so it exercises none of the production code paths. Disk
values are cross-checked against an (m, k) scan in mpmath arithmetic.
"""

import itertools
import math
import time

import mpmath
import numpy as np
import pytest

from berezin_lab.errors import (
    CutoffExceededError,
    EnumerationLimitError,
    InsufficientCutoffError,
    UnsupportedDomainError,
)
from berezin_lab.geometry import AxisBox, BoxUnion, Disk, generic_wrapper
from berezin_lab.spectra import (
    counting,
    eigenvalue_n,
    enumerate_spectrum,
    partial_sum,
    riesz_integral_check,
    riesz_mean,
)

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


def test_union_spectrum_is_multiset_union():
    a = AxisBox((1.0, 1.0))
    b = AxisBox((math.pi, 1.0), origin=(5.0, 0.0))
    cutoff = 2000.0
    spec = enumerate_spectrum(BoxUnion((a, b)), cutoff)
    merged = np.sort(
        np.concatenate(
            [enumerate_spectrum(a, cutoff).expanded, enumerate_spectrum(b, cutoff).expanded]
        )
    )
    assert spec.total_count == len(merged)
    np.testing.assert_allclose(spec.expanded, merged, rtol=1e-12)


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
    np.testing.assert_allclose(spec.expanded, np.sort(oracle), rtol=1e-12, atol=0.0)


def test_disk_enumeration_limit_is_bounded_work():
    start = time.perf_counter()
    with pytest.raises(EnumerationLimitError, match="would exceed"):
        enumerate_spectrum(Disk(1.0), 1e9)
    assert time.perf_counter() - start < 2.0
    # raised before the scan from the inscribed square's lattice count ...
    with pytest.raises(EnumerationLimitError, match="would exceed"):
        enumerate_spectrum(Disk(1.0), 1e4, limit=100)
    # ... or after it, when that lower bound is below the limit but the count is not
    assert len(enumerate_spectrum(Disk(1.0), 2000.0).values) == 246
    with pytest.raises(EnumerationLimitError, match="exceeded"):
        enumerate_spectrum(Disk(1.0), 2000.0, limit=245)


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


def test_partial_sums():
    pi2 = math.pi**2
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 200.0)
    assert partial_sum(spec, 1.0, 1) == pytest.approx(2.0 * pi2, rel=1e-14)
    assert partial_sum(spec, 1.0, 3) == pytest.approx(12.0 * pi2, rel=1e-14)
    interval = enumerate_spectrum(AxisBox((math.pi,)), 100.0)
    assert partial_sum(interval, 2.0, 1) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(InsufficientCutoffError):
        partial_sum(spec, 1.0, 10_000)
    with pytest.raises(ValueError):
        partial_sum(spec, 0.0, 1)
    with pytest.raises(ValueError):
        partial_sum(spec, 1.0, 0)


def test_eigenvalue_n_is_one_based():
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 200.0)
    assert eigenvalue_n(spec, 1) == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert eigenvalue_n(spec, 2) == eigenvalue_n(spec, 3)  # degenerate pair
    with pytest.raises(ValueError):
        eigenvalue_n(spec, 0)


def test_riesz_integral_identity():
    cases = [
        (AxisBox((1.0, 1.0)), 1.5, 100.0),
        (Disk(1.0), 2.0, 200.0),
        (AxisBox((2.0, 1.0)), 1.0, 300.0),
    ]
    for dom, sigma, lam in cases:
        spec = enumerate_spectrum(dom, 2.0 * lam)
        assert riesz_integral_check(spec, sigma, lam) <= 1e-12
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    with pytest.raises(ValueError):
        riesz_integral_check(spec, 0.5, 50.0)


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


def test_enumeration_guards():
    with pytest.raises(EnumerationLimitError):
        enumerate_spectrum(AxisBox((1.0, 1.0)), 1e4, limit=10)
    with pytest.raises(UnsupportedDomainError):
        enumerate_spectrum(generic_wrapper(Disk(1.0)), 100.0)
    with pytest.raises(ValueError):
        enumerate_spectrum(AxisBox((1.0, 1.0)), -5.0)
