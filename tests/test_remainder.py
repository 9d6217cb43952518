"""Remainder function and its minimum.

At A = 1 no lattice term is active yet, so f_mu(1) = B(1 + mu, 1/2)/2
exactly. That closed form, the truncated-sum identity, a direct numpy
lattice sum, and the Poisson series of f_mu (through scipy's Bessel J)
serve as oracles for the scanned minimum; mpmath's zeta checks the tail
constant that ends the scan.
"""

import io
import math
import warnings
from contextlib import redirect_stdout

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import berezin_lab.remainder as remainder
from berezin_lab.bounds import improved_rhs, s_classical
from berezin_lab.cli import main
from berezin_lab.constants import SemiclassicalParams, lt_value
from berezin_lab.errors import ConvergenceError, EnumerationLimitError
from berezin_lab.geometry import AxisBox, critical_length, slicing_stats, volume
from berezin_lab.harness import sweep_riesz
from berezin_lab.remainder import (
    epsilon_mu,
    f_mu,
    nu_bounds,
    nu_ceiling,
    nu_nonneg_cap,
)
from berezin_lab.specfun import beta
from berezin_lab.spectra import ENUMERATION_LIMIT
from oracles import lattice_sum_oracle

TOL = remainder._TOL
# epsilon_mu raises below this mu: its tail bound reaches past A = 60.
FLOOR = 1.162


def test_value_at_one_is_half_beta():
    for mu in (0.5, 1.0, 2.0, 5.0):
        assert f_mu(mu, 1.0) == pytest.approx(0.5 * beta(1.0 + mu, 0.5), rel=1e-14)


def test_truncated_sum_identity():
    rng = np.random.default_rng(97)
    for mu in (0.5, 1.5, 2.0, 3.7):
        for a in 1.0 + 99.0 * rng.random(40):
            a = float(a)
            direct = 0.5 * a * beta(1.0 + mu, 0.5) - lattice_sum_oracle(mu, a)
            assert f_mu(mu, a) == pytest.approx(direct, abs=1e-12)


def test_large_argument_limit():
    assert f_mu(2.0, 1e6) == pytest.approx(0.5, abs=1e-3)
    assert abs(f_mu(2.0, 1e4) - 0.5) <= 0.01
    assert abs(f_mu(2.0, 1e5) - 0.5) <= 0.001


def test_lattice_sum_is_elementwise(monkeypatch):
    rng = np.random.default_rng(7)
    r = 0.5 + 80.0 * rng.random(300)
    for e in (1.5, 2.0, 3.25):
        whole = remainder.lattice_sum(e, r)
        assert whole.shape == r.shape
        assert np.array_equal(whole, [remainder.lattice_sum(e, x) for x in r])
        grid = remainder.lattice_sum(e, r.reshape(20, 15))
        assert np.array_equal(grid, whole.reshape(20, 15))
        with monkeypatch.context() as m:
            m.setattr(remainder, "_BLOCK", 500)  # many small blocks
            assert np.array_equal(remainder.lattice_sum(e, r), whole)
        for x, v in zip(r, whole):
            assert v == pytest.approx(lattice_sum_oracle(e, x), rel=1e-13, abs=1e-300)


def test_lattice_sum_index_limit():
    limit = ENUMERATION_LIMIT
    # limit + 0.5 sums exactly `limit` indices; one index more raises
    top = remainder.lattice_sum(1.5, [3.5, limit + 0.5])
    assert top[1] == pytest.approx(lattice_sum_oracle(1.5, limit + 0.5), rel=1e-12)
    for r in (limit + 1.0, 3e12, math.inf, math.nan):
        with pytest.raises(EnumerationLimitError, match=f"limit of {limit} lattice"):
            remainder.lattice_sum(1.5, [3.5, r])


def test_lattice_sum_of_vanishing_length_is_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert remainder.lattice_sum(2.0, [0.0, 1e-170, 1.0, 2.5]).tolist() == [
            0.0, 0.0, 0.0, (1.0 - 0.16) ** 2 + (1.0 - 0.64) ** 2]


def test_lockstep_refinement_matches_single_brackets():
    lo = np.array([1.2, 1.69, 3.0, 7.5])
    hi = lo + np.array([2e-3, 1e-3, 2e-3, 5e-4])

    def fn(t):
        return f_mu(2.0, t)

    x, fx = remainder._golden_min(fn, lo, hi, TOL)
    for k in range(len(lo)):
        xk, fk = remainder._golden_min(fn, lo[k : k + 1], hi[k : k + 1], TOL)
        assert (x[k], fx[k]) == (xk[0], fk[0])


def test_positive_on_sampled_range():
    rng = np.random.default_rng(1234)
    for a in 1.0 + 99.0 * rng.random(1000):
        assert f_mu(2.0, float(a)) > 0.0


def test_argument_validation():
    with pytest.raises(ValueError):
        f_mu(2.0, 0.5)
    with pytest.raises(ValueError):
        f_mu(0.0, 2.0)
    with pytest.raises(ValueError):
        f_mu(-1.0, 2.0)
    with pytest.raises(ValueError):
        f_mu(math.inf, 2.0)


def test_minimum_for_mu_two():
    res = epsilon_mu(2.0)
    assert 1.91 < 4.0 * res.epsilon <= 2.0
    assert f_mu(2.0, res.argmin_a) == pytest.approx(res.epsilon, abs=10.0 * TOL)
    # the minimum sits between the first and second lattice kinks
    assert 1.0 < res.argmin_a < 2.0


def test_minimum_bounded_by_endpoint_value():
    # f_mu(1) is an admissible candidate, so epsilon <= B(1+mu,1/2)/2;
    # combined with positivity this gives the admissible range of 2*epsilon
    for mu in (0.5, 1.0, 2.0, 5.0):
        if mu < FLOOR:
            with pytest.raises(ConvergenceError):
                epsilon_mu(mu)
            continue
        res = epsilon_mu(mu)
        assert 0.0 < res.epsilon <= 0.5 * beta(1.0 + mu, 0.5) + 1e-15
        assert 2.0 * res.epsilon <= min(1.0, beta(1.0 + mu, 0.5)) + 1e-12


def test_minimum_is_global_on_samples():
    rng = np.random.default_rng(777)
    for mu in (1.5, 2.0, 2.5, 3.0):
        eps = epsilon_mu(mu).epsilon
        for a in 1.0 + 59.0 * rng.random(1000):
            assert f_mu(mu, float(a)) >= eps - 1e-12


def test_scan_step_insensitivity(monkeypatch):
    coarse = epsilon_mu(2.25)
    epsilon_mu.cache_clear()
    monkeypatch.setattr(remainder, "_SCAN_STEP", 5e-4)
    try:
        fine = epsilon_mu(2.25)
    finally:
        epsilon_mu.cache_clear()
    assert abs(fine.epsilon - coarse.epsilon) < 10.0 * TOL
    assert abs(fine.argmin_a - coarse.argmin_a) < 1e-6


def test_semiclassical_deficit_dominates_lattice_sums():
    # the defining inequality: sum over the lattice never exceeds the
    # semiclassical term minus the located minimum
    rng = np.random.default_rng(424242)
    below = 0
    for mu in 0.5 + 9.5 * rng.random(25):
        mu = float(mu)
        a = 1.0 + 79.0 * rng.random(400)
        if mu < FLOOR:
            below += 1
            with pytest.raises(ConvergenceError):
                epsilon_mu(mu)
            continue
        eps = epsilon_mu(mu).epsilon
        half = 0.5 * a * beta(1.0 + mu, 0.5)
        sums = np.array([lattice_sum_oracle(mu, float(x)) for x in a])
        assert np.all(sums <= half - eps + 1e-9)
    assert below == 5


def test_closed_form_minimum_at_one():
    # where the argmin is A = 1, epsilon_mu = B(1 + mu, 1/2)/2 in closed form
    closed = ((3.0, 16.0 / 35.0), (3.5, 105.0 * math.pi / 768.0), (4.0, 128.0 / 315.0))
    for mu, exact in closed:
        res = epsilon_mu(mu)
        assert res.argmin_a == 1.0
        assert res.epsilon == pytest.approx(exact, rel=1e-14)


def poisson_f(mu, a, terms=100_000):
    # f_mu(A) = 1/2 - A sum_k g(Ak), g the Fourier transform of (1 - t^2)_+^mu
    from scipy.special import jv

    xi = a * np.arange(1.0, terms + 1.0)
    g = math.gamma(mu + 1.0) * math.sqrt(math.pi) * (math.pi * xi) ** -(mu + 0.5)
    g *= jv(mu + 0.5, 2.0 * math.pi * xi)
    return 0.5 - a * float(np.sum(g[::-1]))


def test_f_mu_matches_the_poisson_series():
    pytest.importorskip("scipy")
    for mu in (2.0, 2.5, 3.0, 4.0):
        for a in (1.3, 1.7, 2.5, 7.2):
            # for mu >= 2 the sum moves by under 1e-15 from 1e5 to 1e6 terms
            assert f_mu(mu, a) == pytest.approx(poisson_f(mu, a), abs=1e-13)


def test_tail_constant_dominates_the_zeta_bound():
    # |f_mu(A) - 1/2| <= Gamma(mu+1) pi^-mu zeta(mu+1/2) A^-(mu-1/2); the code
    # replaces zeta(s) by s/(s-1), which must not be smaller
    for mu in (0.51, 0.75, 1.0, 1.162, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 40.0, 300.0):
        zeta_bound = mpmath.gamma(mu + 1) * mpmath.pi ** -mu * mpmath.zeta(mu + 0.5)
        assert remainder._log_tail_constant(mu) >= float(mpmath.log(zeta_bound))


def tail_constant(mu):
    return math.exp(remainder._log_tail_constant(mu))


def test_tail_bound_holds_on_samples():
    rng = np.random.default_rng(2024)
    a = np.concatenate([[1.0, 2.0, 60.0], 1.0 + 399.0 * rng.random(2000)])
    for mu in (1.2, 2.0, 3.0, 5.0, 8.0):
        bound = tail_constant(mu) * a ** -(mu - 0.5)
        # rounding in the computed f_mu: up to about 1e-12 at A <= 400
        assert np.all(abs(f_mu(mu, a) - 0.5) <= bound + 1e-11)


def test_tail_bound_sets_the_scan_range(monkeypatch):
    for mu, upper in ((2.0, 7.0), (2.5, 5.0), (3.0, 3.0), (4.0, 2.0)):
        res = epsilon_mu(mu)
        a0 = (tail_constant(mu) / (0.5 - res.epsilon)) ** (1.0 / (mu - 0.5))
        assert res.scan_upper == upper == max(2.0, math.ceil(a0))
    epsilon_mu.cache_clear()
    real = remainder._log_tail_constant
    try:
        # a ten times larger constant reaches 10^(2/3) times further
        monkeypatch.setattr(
            remainder, "_log_tail_constant", lambda mu: real(mu) + math.log(10.0)
        )
        assert epsilon_mu(2.0).scan_upper == 30.0
        epsilon_mu.cache_clear()
        monkeypatch.setattr(
            remainder, "_log_tail_constant", lambda mu: real(mu) + math.log(1e3)
        )
        with pytest.raises(ConvergenceError, match=r"mu=2.0 .*A0=636"):
            epsilon_mu(2.0)
    finally:
        epsilon_mu.cache_clear()


def test_scan_finds_a_dip_inside_the_range(monkeypatch):
    real_sum = remainder.lattice_sum

    def dipped(e, r):
        # a larger lattice sum is a smaller remainder f_mu
        out = real_sum(e, r)
        return np.where((np.asarray(r) > 5.5) & (np.asarray(r) < 5.6), out + 1.0, out)

    epsilon_mu.cache_clear()
    monkeypatch.setattr(remainder, "lattice_sum", dipped)
    try:
        res = epsilon_mu(2.0)
    finally:
        epsilon_mu.cache_clear()
    assert 5.5 < res.argmin_a < 5.6
    assert res.epsilon < 0.0


@pytest.mark.parametrize(
    "mu, pinned",
    [
        (1.2, ("0x1.d129cb63cb908p-2", "0x1.80064968a3a6cp+0", "0x1.8000000000000p+5")),
        (1.5, ("0x1.ddceb66d16a17p-2", "0x1.946d2393e5fa2p+0", "0x1.e000000000000p+3")),
        (2.0, ("0x1.ea78fe4820258p-2", "0x1.b2d3d992b0d32p+0", "0x1.c000000000000p+2")),
        (2.5, ("0x1.f1cf165689057p-2", "0x1.cde877c11a9d4p+0", "0x1.4000000000000p+2")),
        (3.7, ("0x1.addb9b7a1f44ep-2", "0x1.0000000000000p+0", "0x1.0000000000000p+1")),
        (10.0, ("0x1.14bf15e76d043p-2", "0x1.0000000000000p+0", "0x1.0000000000000p+1")),
        (100.0, ("0x1.69a4f492a2e69p-4", "0x1.0000000000000p+0", "0x1.a000000000000p+3")),
        (500.0, ("0x1.446eb98cf4bd4p-5", "0x1.0000000000000p+0", "0x1.e000000000000p+5")),
    ],
)
def test_minimum_is_pinned_bit_for_bit(mu, pinned):
    # epsilon, argmin_a and scan_upper as float.hex, recorded from the search
    # that called f_mu with its checks for every scan segment and golden step
    res = epsilon_mu(mu)
    assert (res.epsilon.hex(), res.argmin_a.hex(), res.scan_upper.hex()) == pinned


def test_ends_of_the_certified_range():
    assert epsilon_mu(1.163).scan_upper == 60.0
    assert epsilon_mu(505.4).scan_upper == 60.0
    for mu in (1.161, 1.0, 0.5, 0.4, 505.6, 1000.0):
        with pytest.raises(ConvergenceError, match=f"mu={mu}"):
            epsilon_mu(mu)


def test_epsilon_argument_validation():
    with pytest.raises(ValueError):
        epsilon_mu(0.0)
    with pytest.raises(ValueError):
        epsilon_mu(-1.0)


def test_nu_bounds_planar_three_halves():
    lower, upper = nu_bounds(1.5, 2)
    assert lower == pytest.approx(4.0 * epsilon_mu(2.0).epsilon, rel=1e-15)
    assert lower > 1.91
    assert upper == 2.0  # B(3, 1/2) = 16/15 > 1, so the cap at 1 binds


def test_nu_bounds_ordering():
    for sigma in (1.5, 2.0, 3.0):
        for dim in (2, 3, 4):
            lower, upper = nu_bounds(sigma, dim)
            assert 0.0 < lower <= upper


def test_nu_bounds_validation():
    with pytest.raises(ValueError):
        nu_bounds(1.0, 2)
    with pytest.raises(ValueError):
        nu_bounds(1.5, 1)
    with pytest.raises(ValueError):
        nu_bounds(1.5, 2.0)


@pytest.mark.parametrize("sigma, dim", [(1.5, 2), (2.0, 2), (3.0, 3), (2.5, 4)])
def test_nu_caps_pinned(sigma, dim):
    mu = sigma + 0.5 * (dim - 1)
    # the ceiling is 4 min(f_mu(1), lim f_mu), and the epsilon command prints it
    assert nu_ceiling(mu) == min(4.0 * f_mu(mu, 1.0), 2.0)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["epsilon", "--sigma", str(sigma), "--dim", str(dim)]) == 0
    lines = dict(line.split(" = ", 1) for line in out.getvalue().splitlines())
    upper = nu_bounds(sigma, dim)[1]
    assert float(lines["admissible_upper"]) == upper == nu_ceiling(mu)
    assert float(lines["nu_upper"]) == upper
    # the nonnegativity cap: pi L_{sigma,d} = L_{sigma,d-1} * cap / 4
    cap = nu_nonneg_cap(mu)
    assert cap == pytest.approx(
        2.0 * math.gamma(1.0 + mu) * math.sqrt(math.pi) / math.gamma(mu + 1.5), rel=1e-14
    )
    assert math.pi * lt_value(sigma, dim) == pytest.approx(
        lt_value(sigma, dim - 1) * cap / 4.0, rel=1e-13
    )
    box = AxisBox((3.0,) + (1.0,) * (dim - 1))
    rep = sweep_riesz(box, sigma, (50.0,))
    assert rep.metadata["nu_nonneg_cap"] == cap


@settings(max_examples=60, deadline=None)
@given(
    sigma=st.floats(1.5, 4.0),
    cross=st.lists(st.floats(0.5, 20.0), min_size=1, max_size=2),
    lam=st.floats(1.0, 1e4),
    t=st.floats(1e-9, 3.0),
)
def test_improved_rhs_nonnegative_up_to_the_cap(sigma, cross, lam, t):
    # thin boxes sliced along a side just above pi/sqrt(lam)
    p = SemiclassicalParams(sigma, len(cross) + 1)
    cap = nu_nonneg_cap(sigma + 0.5 * len(cross))

    def rhs(side, nu):
        box = AxisBox((*cross, side))
        stats = slicing_stats(box, lam)
        value = improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=stats.vol_omega_lambda,
            d_lambda=stats.d_lambda,
            nu=nu,
        )
        return value / s_classical(p, volume(box), lam)

    l_crit = critical_length(lam)
    assert rhs(l_crit * (1.0 + t), cap) >= -1e-12
    # the cap is tight: slightly above it, a side slightly above l_crit goes negative
    assert rhs(l_crit * (1.0 + 1e-9), cap * (1.0 + 1e-6)) < 0.0
