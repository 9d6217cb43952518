"""Remainder function and its minimum.

At A = 1 no lattice term is active yet, so f_mu(1) = B(1 + mu, 1/2)/2
exactly. That closed form, the truncated-sum identity, and a direct numpy
lattice sum serve as oracles for the scanned minimum.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import berezin_lab.remainder as remainder
from berezin_lab.bounds import improved_rhs, s_classical
from berezin_lab.cli import main
from berezin_lab.constants import SemiclassicalParams, lt_value
from berezin_lab.errors import TailGuardError
from berezin_lab.geometry import AxisBox, critical_length, slicing_stats, volume
from berezin_lab.harness import SweepConfig, sweep_riesz
from berezin_lab.remainder import (
    DEFAULT_TOL,
    epsilon_mu,
    f_mu,
    nu_bounds,
    nu_ceiling,
    nu_nonneg_cap,
)
from berezin_lab.specfun import beta


def lattice_sum_oracle(mu, a):
    k = np.arange(1.0, math.floor(a) + 1.0)
    return float(np.sum(np.clip(1.0 - (k / a) ** 2, 0.0, None) ** mu))


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


def test_lockstep_refinement_matches_single_brackets():
    lo = np.array([1.2, 1.69, 3.0, 7.5])
    hi = lo + np.array([2e-3, 1e-3, 2e-3, 5e-4])

    def fn(t):
        return f_mu(2.0, t)

    x, fx = remainder._golden_min(fn, lo, hi, DEFAULT_TOL)
    for k in range(len(lo)):
        xk, fk = remainder._golden_min(fn, lo[k : k + 1], hi[k : k + 1], DEFAULT_TOL)
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
    assert f_mu(2.0, res.argmin_a) == pytest.approx(res.epsilon, abs=10.0 * DEFAULT_TOL)
    # the minimum sits between the first and second lattice kinks
    assert 1.0 < res.argmin_a < 2.0


def test_minimum_bounded_by_endpoint_value():
    # f_mu(1) is an admissible candidate, so epsilon <= B(1+mu,1/2)/2;
    # combined with positivity this gives the admissible range of 2*epsilon
    for mu in (0.5, 1.0, 2.0, 5.0):
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
    assert abs(fine.epsilon - coarse.epsilon) < 10.0 * DEFAULT_TOL
    assert abs(fine.argmin_a - coarse.argmin_a) < 1e-6


def test_semiclassical_deficit_dominates_lattice_sums():
    # the defining inequality: sum over the lattice never exceeds the
    # semiclassical term minus the located minimum
    rng = np.random.default_rng(424242)
    for mu in 0.5 + 9.5 * rng.random(25):
        mu = float(mu)
        eps = epsilon_mu(mu).epsilon
        a = 1.0 + 79.0 * rng.random(400)
        half = 0.5 * a * beta(1.0 + mu, 0.5)
        sums = np.array([lattice_sum_oracle(mu, float(x)) for x in a])
        assert np.all(sums <= half - eps + 1e-9)


def test_tail_guard_detects_late_dip(monkeypatch):
    real_sum = remainder.lattice_sum

    def dipped(e, r):
        # a larger lattice sum is a smaller remainder f_mu
        out = real_sum(e, r)
        return np.where(np.asarray(r) > 8.0, out + 1.0, out)

    epsilon_mu.cache_clear()
    monkeypatch.setattr(remainder, "lattice_sum", dipped)
    try:
        with pytest.raises(TailGuardError):
            epsilon_mu(2.0, 8.0)
    finally:
        epsilon_mu.cache_clear()


def test_epsilon_argument_validation():
    with pytest.raises(ValueError):
        epsilon_mu(2.0, 1.5)
    with pytest.raises(ValueError):
        epsilon_mu(2.0, 60.0, 0.0)
    with pytest.raises(ValueError):
        epsilon_mu(0.0)


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
    rep = sweep_riesz(SweepConfig(domain=box, sigma=sigma, lambda_grid=(50.0,)))
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
