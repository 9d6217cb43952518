"""Right-hand sides: classical terms, corrected bounds, sums.

Closed forms are spot-checked against hand-expanded constants; the sliced
bound against its single-term closed form on a square and against the
midpoint oracle of oracles.py on a disk; the corrected bound against a thin-rectangle
closed form that isolates the boundary term.
"""

import math

import numpy as np
import pytest

import berezin_lab.remainder as remainder
from berezin_lab.bounds import (
    boundary_term,
    eigenvalue_lower,
    improved_rhs,
    li_yau_rhs,
    melas_rhs,
    phase_space_eta,
    s_classical,
    sliced_bound,
    sum_classical,
    two_term_riesz,
    two_term_sum,
)
from berezin_lab.constants import SemiclassicalParams, lt_value
from berezin_lab.geometry import (
    AxisBox,
    BoxUnion,
    Disk,
    critical_length,
    moment_J,
    slicing_stats,
    surface,
    volume,
)
from berezin_lab.remainder import epsilon_mu
from berezin_lab.spectra import enumerate_spectrum, riesz_mean
from berezin_lab.specfun import beta
from oracles import midpoint_oracle


def test_phase_space_eta_values():
    assert phase_space_eta(2, 1.0, 10.0) == pytest.approx(10.0 / (4.0 * math.pi), rel=1e-14)
    assert phase_space_eta(2, 1.0, 0.0) == 0.0
    assert phase_space_eta(1, math.pi, 1.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        phase_space_eta(2, 0.0, 10.0)
    with pytest.raises(ValueError):
        phase_space_eta(2, 1.0, -1.0)


def test_s_classical_values():
    p = SemiclassicalParams(1.5, 2)
    assert s_classical(p, 3.0, 0.0) == 0.0
    assert s_classical(p, 3.0, 7.0) == pytest.approx(
        lt_value(1.5, 2) * 3.0 * 7.0**2.5, rel=1e-14
    )
    p0 = SemiclassicalParams(0.0, 3)
    assert s_classical(p0, 2.0, 9.0) == pytest.approx(
        phase_space_eta(3, 2.0, 9.0), rel=1e-14
    )


def test_sum_classical_values():
    p = SemiclassicalParams(1.0, 2)
    assert sum_classical(p, 1.0, 1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    # doubling n multiplies by 2^(1 + 2 sigma / d)
    for sigma, d in ((1.0, 2), (2.0, 3)):
        ps = SemiclassicalParams(sigma, d)
        ratio = sum_classical(ps, 1.0, 512) / sum_classical(ps, 1.0, 256)
        assert ratio == pytest.approx(2.0 ** (1.0 + 2.0 * sigma / d), rel=1e-13)
    # scaling the domain by t scales the sum bound by t^(-2 sigma)
    for t in (0.5, 2.0):
        scaled = sum_classical(p, t**2 * 1.0, 77)
        assert scaled == pytest.approx(t**-2.0 * sum_classical(p, 1.0, 77), rel=1e-13)
    with pytest.raises(ValueError):
        sum_classical(SemiclassicalParams(0.0, 2), 1.0, 5)
    with pytest.raises(ValueError):
        sum_classical(p, 1.0, 0)


def test_li_yau_is_first_power_sum_bound():
    for d, vol, n in ((2, 1.0, 10), (3, 2.0, 100)):
        assert li_yau_rhs(d, vol, n) == sum_classical(SemiclassicalParams(1.0, d), vol, n)
    # exponent in n
    r = li_yau_rhs(2, 1.0, 1024) / li_yau_rhs(2, 1.0, 512)
    assert r == pytest.approx(4.0, rel=1e-13)


def test_melas_correction():
    j = moment_J(AxisBox((1.0, 1.0)))
    assert j == pytest.approx(1.0 / 6.0, rel=1e-15)
    for n in (1, 10, 250):
        got = melas_rhs(2, 1.0, j, n, 0.25)
        assert got == pytest.approx(li_yau_rhs(2, 1.0, n) + 0.25 * 6.0 * n, rel=1e-13)
    assert melas_rhs(2, 1.0, j, 10, 0.0) == pytest.approx(li_yau_rhs(2, 1.0, 10), rel=1e-15)
    with pytest.raises(ValueError):
        melas_rhs(2, 1.0, j, 10, None)
    # vol / J scales as t^(-2), like an eigenvalue
    box = AxisBox((2.0, 3.0))
    t = 5.0
    big = AxisBox((2.0 * t, 3.0 * t))
    assert volume(big) / moment_J(big) == pytest.approx(
        (volume(box) / moment_J(box)) / t**2, rel=1e-13
    )


def test_eigenvalue_lower_bound():
    assert eigenvalue_lower(2, 1.0, 1) == pytest.approx(2.0 * math.pi, rel=1e-14)
    r = eigenvalue_lower(2, 1.0, 400) / eigenvalue_lower(2, 1.0, 100)
    assert r == pytest.approx(4.0, rel=1e-13)
    spec = enumerate_spectrum(AxisBox((1.0, 1.0)), 3000.0)
    for n in (1, 7, 50, 200):
        assert eigenvalue_lower(2, 1.0, n) <= spec.expanded[n - 1] * (1.0 + 1e-12)


def test_boundary_term_square_counting_form():
    # sigma = 0: the Weyl term minus the boundary term is the two-term counting
    lam = 300.0
    got = phase_space_eta(2, 1.0, lam) - boundary_term(0.25, 0.0, 2, 4.0, lam)
    assert got == pytest.approx(lam / (4.0 * math.pi) - math.sqrt(lam) / math.pi, rel=1e-13)
    assert got < phase_space_eta(2, 1.0, lam)


def test_two_term_riesz_interval_form():
    # d = 1: boundary term is half of (endpoint count) * lambda^sigma
    p = SemiclassicalParams(1.0, 1)
    for lam in (10.0, 1234.5):
        got = two_term_riesz(p, math.pi, 2.0, lam)
        assert got == pytest.approx(2.0 / 3.0 * lam**1.5 - 0.5 * lam, rel=1e-13)


@pytest.mark.parametrize(
    "dom, log_vol, log_surf",
    [
        # log |Omega| and log |dOmega| of radius 1e120 and of sides 1e120
        (Disk(1e120), math.log(math.pi * 1e240), math.log(2 * math.pi * 1e120)),
        (AxisBox((1e120, 1e120)), math.log(1e240), math.log(4e120)),
    ],
    ids=["disk-1e120", "box-1e120x1e120"],
)
def test_two_term_sum_of_a_huge_domain_is_its_closed_form(dom, log_vol, log_surf):
    # sigma = 1, d = 2: 2 pi n^2 / |Omega| plus (2/(3 pi)) (8 pi)^1.5 / 6
    # |dOmega| |Omega|^-1.5 n^1.5, each near 1e-240 although |Omega|^1.5
    # overflows a float; the closed form is evaluated in logs
    n = np.arange(1, 4)
    first = np.exp(math.log(2 * math.pi) + 2 * np.log(n) - log_vol)
    log_coef = math.log(2 / (3 * math.pi)) + 1.5 * math.log(8 * math.pi) - math.log(6)
    second = np.exp(log_coef + log_surf - 1.5 * log_vol + 1.5 * np.log(n))
    got = two_term_sum(SemiclassicalParams(1.0, 2), volume(dom), surface(dom), n)
    np.testing.assert_allclose(got, first + second, rtol=1e-12)


def test_two_term_orderings():
    p = SemiclassicalParams(1.5, 2)
    assert two_term_riesz(p, 1.0, 4.0, 100.0) < s_classical(p, 1.0, 100.0)
    assert two_term_sum(p, 1.0, 4.0, 100) > sum_classical(p, 1.0, 100)
    with pytest.raises(ValueError):
        two_term_riesz(SemiclassicalParams(0.0, 2), 1.0, 4.0, 10.0)
    with pytest.raises(ValueError):
        two_term_sum(p, 1.0, 4.0, 0)


def test_two_term_sum_requires_positive_sigma():
    # sigma = 0 is a valid SemiclassicalParams, so only two_term_sum refuses it
    with pytest.raises(ValueError, match=r"^two_term_sum requires sigma > 0$"):
        two_term_sum(SemiclassicalParams(0.0, 2), 1.0, 4.0, [1, 2])


def test_improved_rhs_degenerate_and_reduction():
    p = SemiclassicalParams(1.5, 2)
    zero = improved_rhs(params=p, lam=50.0, vol_omega_lambda=0.0, d_lambda=0.0, nu=1.9)
    assert zero == 0.0
    # nu = 0 with the full volume reduces to the one-term classical bound
    for lam in (30.0, 500.0):
        full = improved_rhs(params=p, lam=lam, vol_omega_lambda=2.0, d_lambda=1.0, nu=0.0)
        assert full == s_classical(p, 2.0, lam)


def test_improved_rhs_below_classical_on_square():
    p = SemiclassicalParams(1.5, 2)
    lam = 2.0 * math.pi**2
    nu = 4.0 * epsilon_mu(2.0).epsilon
    st = slicing_stats(AxisBox((1.0, 1.0)), lam)
    got = improved_rhs(
        params=p,
        lam=lam,
        vol_omega_lambda=st.vol_omega_lambda,
        d_lambda=st.d_lambda,
        nu=nu,
    )
    assert got < s_classical(p, 1.0, lam)


def test_improved_rhs_thin_rectangle_closed_form():
    # w x h box sliced along the short side: the bound factors through
    # (h - (nu / cap) * l_crit) with cap = 2 B(1/2, 1 + sigma + 1/2)
    w = 10.0
    sigma = 1.5
    p = SemiclassicalParams(sigma, 2)
    cap = 2.0 * beta(0.5, 1.0 + sigma + 0.5)
    lam = 4.0 * math.pi**2
    l_crit = critical_length(lam)
    for h, nu in ((0.51, 1.9), (0.9, cap), (2.0, 0.7)):
        st = slicing_stats(AxisBox((w, h)), lam)
        got = improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=st.vol_omega_lambda,
            d_lambda=st.d_lambda,
            nu=nu,
        )
        closed = lt_value(sigma, 2) * w * lam ** (sigma + 1.0) * (h - nu / cap * l_crit)
        assert got == pytest.approx(closed, rel=1e-12)
    # with nu at the cap the bound tends to zero from above as h sinks to l_crit
    h = l_crit * (1.0 + 1e-9)
    st = slicing_stats(AxisBox((w, h)), lam)
    tiny = improved_rhs(
        params=p,
        lam=lam,
        vol_omega_lambda=st.vol_omega_lambda,
        d_lambda=st.d_lambda,
        nu=cap,
    )
    assert 0.0 < tiny < 1e-7 * s_classical(p, w * h, lam)


def test_improved_rhs_guards():
    inputs = dict(lam=50.0, vol_omega_lambda=1.0, d_lambda=1.0, nu=1.0)
    # every input is a required keyword
    with pytest.raises(TypeError):
        improved_rhs(params=SemiclassicalParams(1.5, 2), lam=50.0, nu=1.0)
    with pytest.raises(TypeError):
        improved_rhs(SemiclassicalParams(1.5, 2), **inputs)
    with pytest.raises(ValueError):
        improved_rhs(**{**inputs, "params": SemiclassicalParams(1.5, 2), "nu": math.nan})


def test_improved_rhs_is_a_formula_at_any_sigma():
    # no range of sigma or dim is stated here: the harness owns where the
    # chain is a theorem
    p = SemiclassicalParams(1.0, 2)
    lam, vol_l, d_l, nu = 70.0, 0.8, 0.9, 1.3
    got = improved_rhs(params=p, lam=lam, vol_omega_lambda=vol_l, d_lambda=d_l, nu=nu)
    weyl = lt_value(1.0, 2) * vol_l * lam**2.0
    assert got == pytest.approx(weyl - boundary_term(nu / 4, 1.0, 2, d_l, lam), rel=1e-15)
    assert np.isfinite(
        improved_rhs(params=SemiclassicalParams(0.5, 1), lam=lam, vol_omega_lambda=vol_l,
                     d_lambda=d_l, nu=nu)
    )


def test_sliced_bound_square_closed_form():
    p = SemiclassicalParams(1.5, 2)
    sq = AxisBox((1.0, 1.0))
    assert sliced_bound(sq, p, 0.5 * math.pi**2) == 0.0
    for lam in (1.5 * math.pi**2, 3.9 * math.pi**2):
        closed = (
            lt_value(1.5, 1)
            * lam**2.0
            * (1.0 - math.pi**2 / lam) ** 2.0
        )
        assert sliced_bound(sq, p, lam) == pytest.approx(closed, rel=1e-13)


def test_sliced_bound_square_closed_form_below_three_halves():
    # sigma = 1: e = 3/2, and one lattice term for pi^2 < lam < 4 pi^2
    p = SemiclassicalParams(1.0, 2)
    sq = AxisBox((1.0, 1.0))
    for lam in (1.5 * math.pi**2, 3.9 * math.pi**2):
        closed = lt_value(1.0, 1) * lam**1.5 * (1.0 - math.pi**2 / lam) ** 1.5
        assert sliced_bound(sq, p, lam) == pytest.approx(closed, rel=1e-13)


def test_sliced_bound_width_linearity_and_union():
    p = SemiclassicalParams(2.0, 2)
    lam = 123.0
    unit = sliced_bound(AxisBox((1.0, 1.0)), p, lam)
    assert sliced_bound(AxisBox((3.5, 1.0)), p, lam) == pytest.approx(
        3.5 * unit, rel=1e-13
    )
    union = BoxUnion((AxisBox((1.0, 1.0)), AxisBox((2.5, 1.0), origin=(4.0, 0.0))))
    assert sliced_bound(union, p, lam) == pytest.approx(3.5 * unit, rel=1e-13)


def test_sliced_bound_axis_is_geometric():
    p = SemiclassicalParams(1.5, 2)
    lam = 77.0
    a = sliced_bound(AxisBox((2.0, 1.0), slicing_axis=1), p, lam)
    b = sliced_bound(AxisBox((1.0, 2.0)), p, lam)
    assert a == pytest.approx(b, rel=1e-15)


def test_sliced_bound_monotone_in_lambda():
    p = SemiclassicalParams(1.5, 2)
    vals = [sliced_bound(AxisBox((1.0, 1.0)), p, float(l)) for l in np.linspace(5.0, 500.0, 120)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sliced_bound_disk_matches_midpoint_fallback():
    p = SemiclassicalParams(1.5, 2)
    disk = Disk(1.0)
    for lam in (40.0, 400.0, 4000.0):
        exact = sliced_bound(disk, p, lam)
        approx = midpoint_oracle(disk, 1.5, lam, nodes=8192).sliced_bound
        assert approx == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("block", [None, 5])
def test_grid_evaluation_matches_pointwise(block, monkeypatch):
    # a whole grid in one call gives the same bits as one call per energy,
    # also when the lattice sums are taken in many blocks
    if block is not None:
        monkeypatch.setattr(remainder, "_BLOCK", block)
    lams = np.geomspace(1.0, 2e4, 120)
    p = SemiclassicalParams(1.5, 2)
    union = BoxUnion(
        (
            AxisBox((1.0, 1.0), (0.0, 0.0)),
            AxisBox((2.0, 0.5), (1.0, 0.0)),
            AxisBox((0.3, 0.7), (0.0, 1.0)),
        )
    )
    for dom in (AxisBox((3.0, 1.0)), union, Disk(1.0)):
        grid = sliced_bound(dom, p, lams)
        assert np.array_equal(grid, [sliced_bound(dom, p, lam) for lam in lams])
        st = slicing_stats(dom, lams)
        for lam, vol_l, d_l in zip(lams, st.vol_omega_lambda, st.d_lambda):
            one = slicing_stats(dom, lam)
            assert (vol_l, d_l) == (one.vol_omega_lambda, one.d_lambda)
    n = np.arange(1, 300)
    assert np.array_equal(
        two_term_sum(p, 2.0, 6.0, n), [two_term_sum(p, 2.0, 6.0, k) for k in n]
    )
    assert np.array_equal(
        s_classical(p, 2.0, lams), [s_classical(p, 2.0, lam) for lam in lams]
    )


def test_sliced_bound_validation():
    with pytest.raises(ValueError):
        sliced_bound(AxisBox((1.0, 1.0)), SemiclassicalParams(1.5, 3), 50.0)
    with pytest.raises(ValueError):
        sliced_bound(AxisBox((1.0, 1.0)), SemiclassicalParams(1.5, 2), 0.0)
    # the lattice sums need e = sigma + (d - 1)/2 > 0: only sigma = 0 in 1-d fails
    with pytest.raises(ValueError, match="sigma"):
        sliced_bound(AxisBox((1.0,)), SemiclassicalParams(0.0, 1), 50.0)
    assert sliced_bound(AxisBox((1.0,)), SemiclassicalParams(0.5, 1), 50.0) > 0.0


def test_sandwich_chain_on_square():
    p = SemiclassicalParams(1.5, 2)
    sq = AxisBox((1.0, 1.0))
    spec = enumerate_spectrum(sq, 1100.0)
    nu = 4.0 * epsilon_mu(2.0).epsilon
    for lam in (50.0, 200.0, 1000.0):
        s = riesz_mean(spec, 1.5, lam)
        sliced = sliced_bound(sq, p, lam)
        st = slicing_stats(sq, lam)
        improved = improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=st.vol_omega_lambda,
            d_lambda=st.d_lambda,
            nu=nu,
        )
        classical = s_classical(p, 1.0, lam)
        eps = 1e-9 * max(1.0, classical)
        assert s <= sliced + eps
        assert sliced <= improved + eps
        assert improved <= classical + eps
