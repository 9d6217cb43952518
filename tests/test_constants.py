"""Semiclassical constant checks.

The low-dimension reference values are hand expansions of
Gamma(1 + sigma) / ((4 pi)^(d/2) Gamma(1 + sigma + d/2)) and are written
out as closed forms in pi, so they do not depend on the module under test.
"""

import math

import mpmath
import numpy as np
import pytest

from berezin_lab.constants import (
    SemiclassicalParams,
    c_const,
    lt_value,
    polya_counting_factor,
)
from berezin_lab.errors import NumericFailure
from berezin_lab.specfun import beta
from oracles import dimension_reduction_residual


# (sigma, dim) -> Gamma ratio expanded by hand
HAND_VALUES = {
    (0.0, 2): 1.0 / (4.0 * math.pi),  # G(1)/G(2) = 1
    (1.0, 2): 1.0 / (8.0 * math.pi),  # G(2)/G(3) = 1/2
    (1.5, 2): 2.0 / (5.0 * 4.0 * math.pi),  # G(5/2)/G(7/2) = 2/5
    (0.0, 1): 1.0 / math.pi,  # G(1)/G(3/2) / sqrt(4 pi) = 2/sqrt(pi)/2sqrt(pi)
    (1.5, 1): 3.0 / 16.0,  # G(5/2) = (3/4)sqrt(pi), G(3) = 2, sqrt(4 pi) = 2 sqrt(pi)
    (1.0, 3): 1.0 / (15.0 * math.pi**2),  # G(7/2) = (15/8)sqrt(pi)
}


def test_hand_expanded_leading_coefficients():
    for (sigma, dim), expected in HAND_VALUES.items():
        assert lt_value(sigma, dim) == pytest.approx(expected, rel=1e-14)


def test_lt_value_dimension_zero_is_one():
    for sigma in (0.0, 0.5, 1.0, 2.0, 7.5):
        assert lt_value(sigma, 0) == pytest.approx(1.0, rel=1e-15)


def _lt_mpmath(sigma, dim):
    return mpmath.gamma(sigma + 1) / (
        (4 * mpmath.pi) ** (mpmath.mpf(dim) / 2) * mpmath.gamma(1 + sigma + dim / 2)
    )


def test_lt_value_where_gamma_overflows():
    # Gamma(501) and Gamma(301) overflow a double; the log-Gamma form stays
    # in range
    for sigma, dim in ((500.0, 3), (300.0, 4)):
        expected = float(_lt_mpmath(sigma, dim))
        assert lt_value(sigma, dim) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "sigma, size, bound",
    [(1e6, "2.56e+07", "1.1e-08"), (1e12, "5.33e+13", "0.024"), (1e16, "7.17e+17", "3.2e+02")],
)
def test_lt_value_whose_log_gammas_cancel_is_a_named_numeric_failure(sigma, size, bound):
    # lt_value(1e6, 2) would be off by 1.2e-9 relative, (1e12, 2) by 1.9e-3,
    # and (1e16, 2) would be 1.0 for a true 8e-18
    with pytest.raises(NumericFailure) as info:
        lt_value(sigma, 2)
    assert str(info.value) == (
        f"lt_value at sigma={sigma!r}, d=2 cancels: log-Gamma terms of size {size}"
        f" leave a relative error bound of {bound}, above 1e-11"
    )


@pytest.mark.parametrize("sigma, dim", [(1600.0, 2), (1000.0, 3), (500.0, 3)])
def test_lt_value_below_the_cancellation_bound_is_within_it(sigma, dim):
    # the log-Gammas' bound is below 1e-11, and so is the error against mpmath
    with mpmath.workdps(30):
        expected = _lt_mpmath(mpmath.mpf(sigma), dim)
        assert abs(lt_value(sigma, dim) / expected - 1) < 1e-11


@pytest.mark.parametrize(
    "sigma, dim, how",
    [(2.5, 400, "underflows to 0"), (0.0, 1500, "underflows to 0"), (1e308, 2, "overflows")],
)
def test_lt_value_outside_the_floats_is_a_named_numeric_failure(sigma, dim, how):
    # L is about 1e-600 at (2.5, 400); log-Gamma overflows at sigma = 1e308
    if how.startswith("under"):
        assert float(_lt_mpmath(sigma, dim)) == 0.0
    with pytest.raises(NumericFailure) as info:
        lt_value(sigma, dim)
    assert str(info.value) == f"lt_value at sigma={float(sigma)!r}, d={dim} {how}"


def test_unit_ball_volumes():
    # (2 pi)^d lt_value(0, d) is the volume of the unit ball: 2, pi, 4 pi/3
    for d, ball in ((1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)):
        assert lt_value(0.0, d) * (2.0 * math.pi) ** d == pytest.approx(ball, rel=1e-14)


def test_counting_constant_is_scaled_ball_volume():
    # lt_value at sigma = 0 equals vol(B_d) / (2 pi)^d
    for d in range(1, 7):
        ball = math.pi ** (0.5 * d) / math.gamma(1.0 + 0.5 * d)
        assert lt_value(0.0, d) == pytest.approx(ball / (2.0 * math.pi) ** d, rel=1e-13)


def test_dimension_reduction_identity_core_grid():
    for sigma in (1.0, 1.5, 2.0, 3.0, 5.0):
        for dim in range(2, 7):
            assert dimension_reduction_residual(sigma, dim) <= 1e-12


def test_dimension_reduction_identity_spot_values():
    for sigma, dim in ((1.5, 2), (2.0, 3), (1.0, 5)):
        assert dimension_reduction_residual(sigma, dim) <= 1e-14


def test_beta_relation_to_counting_coefficient():
    # L_{sigma,d} = sigma * B(sigma, 1 + d/2) * L_{0,d} for sigma > 0
    rng = np.random.default_rng(314159)
    for _ in range(100):
        sigma = float(rng.uniform(1e-3, 10.0))
        d = int(rng.integers(1, 9))
        lhs = lt_value(sigma, d)
        rhs = sigma * beta(sigma, 1.0 + 0.5 * d) * lt_value(0.0, d)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lt_value_decreasing_in_sigma():
    sigmas = np.linspace(0.0, 12.0, 200)
    for d in (1, 2, 3, 6):
        vals = [lt_value(float(s), d) for s in sigmas]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_c_const_agrees_with_published_alternate_form():
    # d/(2s+d) * L0^(-2s/d) versus 2s/d * L0^(-2s/d) * B(2s/d, 2)
    rng = np.random.default_rng(2718)
    for _ in range(100):
        sigma = float(rng.uniform(0.05, 8.0))
        d = int(rng.integers(1, 8))
        p = SemiclassicalParams(sigma=sigma, dim=d)
        base = lt_value(0.0, d)
        alt = (
            2.0 * sigma / d * base ** (-2.0 * sigma / d) * beta(2.0 * sigma / d, 2.0)
        )
        assert c_const(p) == pytest.approx(alt, rel=1e-12)


def test_c_const_requires_positive_sigma():
    with pytest.raises(ValueError):
        c_const(SemiclassicalParams(sigma=0.0, dim=2))


def test_polya_counting_factor():
    assert polya_counting_factor(2) == pytest.approx(2.0, rel=1e-15)
    assert polya_counting_factor(1) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    vals = [polya_counting_factor(d) for d in range(1, 40)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert all(1.0 <= v < math.e for v in vals)


def test_params_validation():
    with pytest.raises(ValueError):
        SemiclassicalParams(sigma=-1.0, dim=2)
    with pytest.raises(ValueError):
        SemiclassicalParams(sigma=math.nan, dim=2)
    with pytest.raises(ValueError):
        SemiclassicalParams(sigma=1.0, dim=0)
    with pytest.raises(ValueError):
        SemiclassicalParams(sigma=1.0, dim=2.0)
    with pytest.raises(ValueError):
        lt_value(1.0, -1)
    with pytest.raises(ValueError):
        lt_value(-0.5, 2)
