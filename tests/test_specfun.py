"""Special-function kernel checks.

The Bessel zero values used across the suite are frozen here. They come
from the bisection oracle below (sign changes of the plain power series),
so the production Taylor-root path is always compared against an
independent construction.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from berezin_lab import specfun
from berezin_lab.specfun import (
    bessel_j,
    bessel_zeros_below,
    beta,
)
from berezin_lab.errors import ConvergenceError, NumericFailure


def series_j(m, x, terms=60):
    # plain ascending power series; reliable for the small x used here
    term = (0.5 * x) ** m / math.factorial(m)
    total = term
    q = 0.25 * x * x
    for k in range(1, terms):
        term *= -q / (k * (k + m))
        total += term
    return total


def bisect_series_zero(m, lo, hi):
    flo = series_j(m, lo)
    assert flo * series_j(m, hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if flo * series_j(m, mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = series_j(m, lo)
    return 0.5 * (lo + hi)


# frozen outputs of bisect_series_zero; see test_bisection_oracle_fixes_zeros
J0_ZERO_1 = 2.404825557695773
J1_ZERO_1 = 3.831705970207512


def kth_zero(m, k):
    # j_{m,k} < (k + m/2) pi here, so the cutoff (k + m + 1) pi holds k zeros
    return bessel_zeros_below(m, (k + m + 1) * math.pi)[k - 1]


def test_bisection_oracle_fixes_zeros():
    assert bisect_series_zero(0, 2.0, 3.0) == pytest.approx(J0_ZERO_1, abs=1e-13)
    assert bisect_series_zero(1, 3.0, 4.5) == pytest.approx(J1_ZERO_1, abs=1e-13)


def test_beta_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
    # hand expansion: G(3)=2, G(1/2)=sqrt(pi), G(7/2)=(15/8)sqrt(pi)
    by_hand = 2.0 * math.sqrt(math.pi) / (15.0 / 8.0 * math.sqrt(math.pi))
    assert by_hand == pytest.approx(16.0 / 15.0, rel=1e-15)
    assert beta(3.0, 0.5) == pytest.approx(16.0 / 15.0, rel=1e-14)


def test_beta_symmetric_exactly():
    rng = np.random.default_rng(4142)
    for a, b in 0.1 + 20.0 * rng.random((50, 2)):
        assert beta(float(a), float(b)) == beta(float(b), float(a))


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta(0.0, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, -1.0)


def test_beta_overflow_is_a_named_numeric_failure():
    with pytest.raises(NumericFailure, match=r"^beta at a=1e\+308, b=0.5 overflows$"):
        beta(1e308, 0.5)
    with pytest.raises(NumericFailure, match=r"^beta at a=1e-320, b=1e-320 overflows$"):
        beta(1e-320, 1e-320)


def test_beta_cancellation_is_a_named_numeric_failure():
    # 4 units of 2^-53 of the log-Gammas' size, 5.33e13, exceed 1e-11; the
    # value itself is off by about 1e-3 relative
    message = (
        "beta at a=1000000000000.0, b=0.5 cancels: log-Gamma terms of size 5.33e+13"
        " leave a relative error bound of 0.024, above 1e-11"
    )
    with pytest.raises(NumericFailure) as info:
        beta(1e12, 0.5)
    assert str(info.value) == message


@pytest.mark.parametrize("a", [506.0, 1001.0, 1500.0])
def test_beta_below_the_cancellation_bound_is_within_it(a):
    # the largest remainder argument, and two past it whose bound is still
    # below 1e-11: the value is within that bound of 30-digit mpmath
    with mpmath.workdps(30):
        expected = mpmath.beta(a, mpmath.mpf(0.5))
        assert abs(beta(a, 0.5) / expected - 1) < 1e-11


def test_bessel_j_small_arguments():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert bessel_j(7, 0.0) == 0.0
    assert abs(bessel_j(0, J0_ZERO_1)) <= 1e-12
    assert abs(bessel_j(1, J1_ZERO_1)) <= 1e-12


def test_bessel_j_against_reference_grid():
    mpmath.mp.dps = 25
    rng = np.random.default_rng(27182)
    orders = (0, 1, 2, 5, 11, 23, 40, 60)
    for m in orders:
        for x in np.concatenate(([0.3, 6.0], 1000.0 * rng.random(12))):
            x = float(x)
            ref = float(mpmath.besselj(m, x))
            assert bessel_j(m, x) == pytest.approx(ref, abs=1e-13)


def test_bessel_j_validates_order():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(True, 1.0)
    with pytest.raises(ValueError):
        bessel_j(1.5, 1.0)


def test_bessel_zero_matches_bisection_oracle():
    assert bessel_zeros_below(0, 3.0)[0] == pytest.approx(J0_ZERO_1, abs=1e-12)
    assert bessel_zeros_below(1, 4.0)[0] == pytest.approx(J1_ZERO_1, abs=1e-12)


def test_bessel_zero_interlacing():
    j01, j02 = bessel_zeros_below(0, 6.0)
    (j11,) = bessel_zeros_below(1, 6.0)
    assert j01 < j11 < j02


def test_zero_residual_and_sign_change():
    for m in (0, 1, 2, 5, 17):
        for k in (1, 2, 7):
            z = kth_zero(m, k)
            assert abs(bessel_j(m, z)) <= 1e-10
            assert bessel_j(m, z - 1e-6) * bessel_j(m, z + 1e-6) < 0.0


def test_zeros_strictly_increasing_full_range():
    # spec of the kernel: ordering holds out to m = 50, k = 100
    for m in range(0, 51):
        upper = float(mpmath.besseljzero(m, 101))
        zs = bessel_zeros_below(m, upper)
        assert len(zs) >= 100
        zs = zs[:100]
        assert all(b > a for a, b in zip(zs, zs[1:]))
        assert zs[0] == pytest.approx(float(mpmath.besseljzero(m, 1)), abs=1e-12)


def test_zeros_below_cutoff_is_consistent():
    zs = bessel_zeros_below(0, 11.0)
    assert len(zs) == 3
    assert zs[0] == pytest.approx(J0_ZERO_1, abs=1e-12)
    assert all(z < 11.0 for z in zs)
    assert bessel_zeros_below(3, 6.0) == []


def test_taylor_root_outside_tolerance_names_the_order(monkeypatch):
    # two passes from the bracket end leave a last step far above 1e-13
    assert len(bessel_zeros_below([0, 1], 2.0 * math.pi)[1]) == 1  # passes untouched
    monkeypatch.setattr(specfun, "_PASSES", 1)
    with pytest.raises(
        ConvergenceError, match="^zero of order 0 not within tolerance after 2 Taylor-root"
    ):
        bessel_zeros_below([0, 1], 2.0 * math.pi)


def fft_size_edges(m, x_lo, x_hi):
    """Pairs of nearby x on both sides of each change of the FFT size that
    bessel_j(m, x) uses: 2 ceil((k + x + 14 (x/2)^(1/3) + 20) / 2) rounded up
    to a power of two, k = max(m, x + 15) + 1."""
    xs = np.linspace(x_lo, x_hi, 20001)
    k = np.maximum(m, xs + 15.0) + 1.0
    n = np.ceil(0.5 * (k + xs + 14.0 * (0.5 * xs) ** (1.0 / 3.0) + 20.0))
    i = np.flatnonzero(np.diff(np.ceil(np.log2(2.0 * n))))
    return np.concatenate((xs[i], xs[i + 1]))


def test_bessel_j_matches_scipy_jv():
    # scipy.special.jv (Zhang and Jin's Fortran) shares no code with the
    # series or the FFT; the points at the FFT-size edges take the coarsest
    # FFT each size has
    rng = np.random.default_rng(1618)
    m = rng.integers(0, 300, 3000)
    x = np.concatenate((6.0 * rng.random(500), [0.0, 6.0, np.nextafter(6.0, 7.0)],
                        400.0 * rng.random(2497)))
    edges = [(k, xe) for k in (0, 3, 57, 250) for xe in fft_size_edges(k, 6.5, 400.0)]
    assert len(edges) >= 16
    m = np.concatenate((m, [k for k, _ in edges])).astype(np.int64)
    x = np.concatenate((x, [xe for _, xe in edges]))
    got = np.array([bessel_j(int(a), float(b)) for a, b in zip(m, x)])
    assert np.abs(got - scipy.special.jv(m, x)).max() <= 2e-14


def test_batched_j_blocks_match(monkeypatch):
    # a column of the FFT table is the same bits alone, inside a batch, and
    # with one FFT per block
    rng = np.random.default_rng(7)
    x = 6.0 + 100.0 * rng.random(400)
    want = specfun._table(x, 0, 50)
    alone = [specfun._table(x[i : i + 1], 0, 50)[:, 0] for i in range(x.size)]
    assert np.array_equal(np.column_stack(alone), want)
    zeros = bessel_zeros_below(list(range(62)), 61.5)
    monkeypatch.setattr(specfun, "_BLOCK", 64)
    assert np.array_equal(specfun._table(x, 0, 50), want)
    # the scan's FFTs and the Taylor roots go in blocks too: one FFT and
    # four roots per block
    assert bessel_zeros_below(list(range(62)), 61.5) == zeros


def test_zeros_match_mpmath_to_a_few_ulps():
    mpmath.mp.dps = 30
    zeros = bessel_zeros_below(list(range(141)), 142.0)
    pairs = [(m, k) for m, zs in enumerate(zeros) for k in range(1, len(zs) + 1)]
    rng = np.random.default_rng(2718)
    for i in rng.choice(len(pairs), 80, replace=False):
        m, k = pairs[i]
        ref = mpmath.besseljzero(m, k)
        assert abs(zeros[m][k - 1] - ref) <= 1e-15 * ref, (m, k)


def test_zeros_cost_one_certificate_fft_column(monkeypatch):
    # Each zero is a Taylor root from the scan's FFT table, so the certificate
    # costs one more FFT: J_m(x_max) for every order from one column.
    sizes = []
    table = specfun._table

    def counting(x, base, top):
        sizes.append(x.size)
        return table(x, base, top)

    monkeypatch.setattr(specfun, "_table", counting)
    zeros = bessel_zeros_below(list(range(142)), math.sqrt(2e4) * (1.0 + 1e-12))
    assert sizes == [143, 1] and sum(map(len, zeros)) == 2485
    sizes.clear()
    assert len(bessel_zeros_below(0, 120.0)) == 38 and sizes == [122, 1]


def test_zeros_at_cutoff_1e6_match_mpmath():
    # a disk:1 sweep to lambda = 1e6 reaches every order up to 1,000, with
    # zeros up to x = 1,000, beyond the other accuracy tests' x < 400
    zeros = bessel_zeros_below(list(range(1001)), 1000.0 * (1.0 + 1e-12))
    pairs = [(m, k) for m, zs in enumerate(zeros) for k in range(len(zs))]
    assert len(pairs) == 124906
    rng = np.random.default_rng(1000)
    with mpmath.workdps(30):
        for i in rng.choice(len(pairs), 120, replace=False):
            m, k = pairs[i]
            z = zeros[m][k]
            ref = mpmath.findroot(lambda x: mpmath.besselj(m, x), mpmath.mpf(z))
            assert abs(z - ref) <= 2e-15 * ref, (m, k + 1)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(0, 300), k=st.integers(1, 60))
@example(m=0, k=1)
@example(m=300, k=1)  # the first zero sits in the turning region, x ~ m
@example(m=300, k=60)
@example(m=238, k=1)  # the worst first zero of orders up to 300: 3.6 ulps
def test_taylor_start_is_within_tolerance_of_the_zero(m, k):
    # The Taylor root is the zero: within five ulps of 1, relative (first
    # zeros near m = 240-300, in the turning region, reach 3.6). The
    # reference is mpmath's 20-digit root of J_m next to the k-th zero from
    # scipy.special.jn_zeros (Zhang and Jin's Fortran): mpmath.besseljzero
    # finds the same root but first isolates every lower zero, which takes
    # seconds per order near m = 300.
    with mpmath.workdps(20):
        guess = float(scipy.special.jn_zeros(m, k)[-1])
        ref = float(mpmath.findroot(lambda x: mpmath.besselj(m, x), guess))
    assert abs(ref - guess) <= 1e-12 * ref  # the same zero
    _, _, _, z = specfun._brackets(np.array([m]), ref + 1.0)
    assert abs(z[k - 1] - ref) <= 5.0 * 2.0**-52 * ref, (m, k)


def test_bessel_zero_is_entry_of_zeros_below():
    # the k-th zero does not depend on how far above it the cutoff lies
    for m, k in ((0, 1), (0, 12), (4, 3), (25, 1), (25, 9), (120, 2)):
        z = kth_zero(m, k)
        assert z == bessel_zeros_below(m, z + 5.0)[k - 1]


def test_all_orders_call_matches_per_order_calls():
    x_max = 61.5
    orders = np.arange(int(x_max) + 1)
    batched = bessel_zeros_below(orders, x_max)
    assert len(batched) == orders.size
    assert batched == [bessel_zeros_below(int(m), x_max) for m in orders]
    assert batched[-1] == []


def test_zeros_below_validates_orders():
    with pytest.raises(ValueError):
        bessel_zeros_below([2, 1], 10.0)
    with pytest.raises(ValueError):
        bessel_zeros_below([0, 0], 10.0)
    with pytest.raises(ValueError):
        bessel_zeros_below([0, 1.5], 10.0)
    with pytest.raises(ValueError):
        bessel_zeros_below([], 10.0)


@pytest.mark.parametrize("drop", [0, 5, -1])
def test_certificate_catches_a_dropped_bracket(monkeypatch, drop):
    scan = specfun._brackets

    def lossy(orders, x_max):
        found = scan(orders, x_max)  # (m, lo, hi, zero)
        i = np.flatnonzero(found[0] == 3)[drop]  # a zero of J_3 goes missing
        return tuple(np.delete(a, i) for a in found)

    orders = np.arange(41)
    assert bessel_zeros_below(orders, 40.0)  # passes untouched
    monkeypatch.setattr(specfun, "_brackets", lossy)
    with pytest.raises(ConvergenceError, match="interlacing"):
        bessel_zeros_below(orders, 40.0)


def test_certificate_catches_a_doubled_zero(monkeypatch):
    scan = specfun._brackets

    def doubled(orders, x_max):
        found = scan(orders, x_max)  # (m, lo, hi, zero)
        i = np.flatnonzero(found[0] == 7)[2]
        return tuple(np.insert(a, i, a[i]) for a in found)

    monkeypatch.setattr(specfun, "_brackets", doubled)
    with pytest.raises(ConvergenceError, match="interlacing"):
        bessel_zeros_below(7, 40.0)


def test_certificate_catches_a_lost_last_zero_of_a_single_order(monkeypatch):
    scan = specfun._brackets

    def lossy(orders, x_max):
        # the last zero below x_max goes missing
        return tuple(a[:-1] for a in scan(orders, x_max))

    assert len(bessel_zeros_below(3, 40.0)) == 11  # passes untouched
    monkeypatch.setattr(specfun, "_brackets", lossy)
    with pytest.raises(ConvergenceError, match="sign"):
        bessel_zeros_below(3, 40.0)


def test_certificate_catches_a_zero_outside_its_bracket(monkeypatch):
    roots = specfun._taylor_roots

    def shifted(*args):
        z = roots(*args)
        z[4] += 1.0  # still more than one from its neighbours, but past its bracket
        return z

    assert len(bessel_zeros_below(3, 40.0)) == 11  # passes untouched
    monkeypatch.setattr(specfun, "_taylor_roots", shifted)
    with pytest.raises(ConvergenceError, match="bracket"):
        bessel_zeros_below(3, 40.0)


def unit_step_brackets(orders, x_max):
    """The unit-step sign scan with J_m from scipy.special.jv, which shares no
    code with the FFT: x = m, m + 1, ..., floor(x_max) + 1, order by order."""
    counts = np.maximum(math.floor(x_max) + 2 - orders, 0)
    m = np.repeat(orders, counts)
    step = np.arange(m.size) - np.repeat(np.cumsum(counts) - counts, counts)
    x = (m + step).astype(float)
    f = scipy.special.jv(m, x)
    x1, x2, f1, f2 = x[:-1], x[1:], f[:-1], f[1:]
    zero = f2 == 0.0
    lo = np.where(zero, x2 - 0.5, x1)
    found = (m[:-1] == m[1:]) & (zero | (f1 * f2 < 0.0)) & (lo < x_max)
    return m[1:][found], lo[found], np.where(zero, x2 + 0.5, x2)[found]


def _all_orders(z_max):
    return np.arange(math.floor(z_max) + 1), z_max


@pytest.mark.parametrize(
    "orders, x_max",
    [
        _all_orders(math.sqrt(2e4) * (1.0 + 1e-12)),
        _all_orders(math.sqrt(3e3) * (1.0 + 1e-12)),  # golden sweep-disk-1
        _all_orders(1.3 * math.sqrt(1.5e4) * (1.0 + 1e-12)),  # golden sweep-disk-1.3
        (np.arange(0, 300, 2), 300.0),  # sparse orders, as for a quarter-disk
        (np.array([0]), 1000.0),
        (np.array([50]), 80.0),
    ],
    ids=["2e4", "sweep-disk-1", "sweep-disk-1.3", "even-orders", "order-0", "order-50"],
)
def test_fft_scan_brackets_match_the_unit_step_scan(orders, x_max):
    got, want = specfun._brackets(orders, x_max), unit_step_brackets(orders, x_max)
    assert got[0].size == want[0].size > 0
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("m, k", [(0, 1), (0, 6), (3, 2), (3, 8)])
def test_sign_certificate_is_inconclusive_at_a_zero(m, k):
    # J_m at its own computed zero is a rounding residue of either sign
    # (negative for (0, 1), positive for (0, 6) and (3, 8)), which says
    # nothing about the parity of the count below it.
    z = kth_zero(m, k)
    assert len(bessel_zeros_below(m, z)) == k - 1
