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
    dimension_reduction_identity_residual,
    lt_value,
    polya_counting_factor,
    rho_lower,
    unit_ball_volume,
)
from berezin_lab.specfun import beta


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


def test_lt_value_where_gamma_overflows():
    # Gamma(501) overflows a double; the log-Gamma form stays in range
    for sigma, dim in ((500.0, 3), (2.5, 400)):
        expected = mpmath.gamma(sigma + 1) / (
            (4 * mpmath.pi) ** (mpmath.mpf(dim) / 2) * mpmath.gamma(1 + sigma + dim / 2)
        )
        assert lt_value(sigma, dim) == pytest.approx(float(expected), rel=1e-12)


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-14)


def test_counting_constant_is_scaled_ball_volume():
    # lt_value at sigma = 0 equals vol(B_d) / (2 pi)^d
    for d in range(1, 7):
        expected = unit_ball_volume(d) / (2.0 * math.pi) ** d
        assert lt_value(0.0, d) == pytest.approx(expected, rel=1e-13)


def test_dimension_reduction_identity_core_grid():
    for sigma in (1.0, 1.5, 2.0, 3.0, 5.0):
        for dim in range(2, 7):
            p = SemiclassicalParams(sigma=sigma, dim=dim)
            assert dimension_reduction_identity_residual(p) <= 1e-12


def test_dimension_reduction_identity_spot_values():
    for sigma, dim in ((1.5, 2), (2.0, 3), (1.0, 5)):
        p = SemiclassicalParams(sigma=sigma, dim=dim)
        assert dimension_reduction_identity_residual(p) <= 1e-14


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


def test_rho_lower_values():
    for d in (1, 2, 3, 10):
        assert rho_lower(SemiclassicalParams(sigma=1.0, dim=d)) == pytest.approx(
            1.0, rel=1e-14
        )
    assert rho_lower(SemiclassicalParams(sigma=2.0, dim=2)) == pytest.approx(
        0.75, rel=1e-14
    )
    for sigma in (1.0, 1.5, 2.0, 4.0):
        for d in (1, 2, 3, 5):
            assert rho_lower(SemiclassicalParams(sigma=sigma, dim=d)) <= 1.0 + 1e-15


def test_rho_lower_requires_sigma_at_least_one():
    with pytest.raises(ValueError):
        rho_lower(SemiclassicalParams(sigma=0.5, dim=2))


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


def test_dimension_reduction_requires_dim_two():
    with pytest.raises(ValueError):
        dimension_reduction_identity_residual(SemiclassicalParams(sigma=1.0, dim=1))
