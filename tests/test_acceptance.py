"""Acceptance suite: one test per shipping criterion, one printed line each.

Run with -s to see the per-criterion lines. Oracles are re-implemented on
the test side (lattice loops, mpmath series bisection, large midpoint rules,
the counting-function integral in oracles.py) so a criterion never
certifies code against itself.
"""

import io
import itertools
import math
import time
from contextlib import contextmanager, redirect_stdout

import mpmath
import numpy as np

from berezin_lab.bounds import improved_rhs, phase_space_eta
from berezin_lab.cli import main
from berezin_lab.constants import (
    SemiclassicalParams,
    dimension_reduction_identity_residual,
)
from berezin_lab.geometry import (
    AxisBox,
    BoxUnion,
    Disk,
    critical_length,
    generic_wrapper,
    slicing_stats,
)
from berezin_lab.harness import SweepConfig, asymptotic_diagnostics, sweep_riesz, sweep_sums
from berezin_lab.remainder import epsilon_mu
from berezin_lab.specfun import bessel_zero, beta
from berezin_lab.spectra import counting, enumerate_spectrum
from berezin_lab.bounds import sliced_bound
from oracles import riesz_integral_check


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] FAIL - {desc}")
        raise
    print(f"[acceptance {num:02d}] PASS - {desc}")


BOXES = (AxisBox((1.0, 1.0)), AxisBox((2.0, 1.0)), AxisBox((math.pi, 1.0)))
TWO_SQUARES = BoxUnion((AxisBox((1.0, 1.0)), AxisBox((1.0, 1.0), origin=(2.0, 0.0))))


def random_union(rng):
    boxes = []
    x0 = 0.0
    for _ in range(int(rng.integers(1, 5))):
        w = float(rng.uniform(0.3, 3.0))
        h = float(rng.uniform(0.3, 3.0))
        y0 = float(rng.uniform(-1.0, 1.0))
        boxes.append(AxisBox((w, h), origin=(x0, y0)))
        x0 += w + float(rng.uniform(0.05, 0.5))
    return BoxUnion(tuple(boxes))


def test_criterion_01_remainder_minimum():
    with criterion(1, "4*epsilon_2 lies in (1.91, 2.0], computed in under 5s"):
        epsilon_mu.cache_clear()
        t0 = time.perf_counter()
        res = epsilon_mu(2.0)
        elapsed = time.perf_counter() - t0
        assert 1.91 < 4.0 * res.epsilon <= 2.0
        assert elapsed < 5.0


def test_criterion_02_dimension_reduction_identity():
    with criterion(2, "dimension-reduction identity residual at most 1e-12"):
        for sigma in (1.0, 1.5, 2.0, 3.0, 5.0):
            for dim in range(2, 7):
                p = SemiclassicalParams(sigma, dim)
                assert dimension_reduction_identity_residual(p) <= 1e-12


def test_criterion_03_unit_square_chain():
    with criterion(3, "unit-square bound chain holds on 200 energies in under 30s"):
        grid = tuple(np.geomspace(1.0, 5e4, 200))
        t0 = time.perf_counter()
        rep = sweep_riesz(
            SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.5, lambda_grid=grid)
        )
        elapsed = time.perf_counter() - t0
        assert len(rep.rows) == 200
        assert rep.all_passed, rep.summary()
        assert elapsed < 30.0


def test_criterion_04_chain_across_domains():
    with criterion(4, "bound chain holds on a box, a union, and a disk"):
        box_grid = tuple(np.geomspace(1.0, 5e4, 120))
        disk_grid = tuple(np.geomspace(1.0, 1e4, 100))
        cases = [
            (AxisBox((2.0, 1.0)), box_grid),
            (TWO_SQUARES, box_grid),
            (Disk(1.0), disk_grid),
        ]
        for dom, grid in cases:
            for sigma in (1.5, 2.0):
                rep = sweep_riesz(
                    SweepConfig(domain=dom, sigma=sigma, lambda_grid=grid)
                )
                assert rep.all_passed, rep.summary()


def test_criterion_05_geometry_invariant_and_nonnegativity():
    with criterion(5, "long-section volume dominates the strip; corrected bound stays nonnegative"):
        rng = np.random.default_rng(20240405)
        for _ in range(100):
            dom = random_union(rng)
            lams = np.exp(rng.uniform(0.0, math.log(1e4), 10))
            for lam in lams:
                lam = float(lam)
                st = slicing_stats(dom, lam)
                assert st.vol_omega_lambda >= critical_length(lam) * st.d_lambda - 1e-12
                for sigma in (1.5, 2.0):
                    cap = 2.0 * beta(0.5, 1.0 + sigma + 0.5)
                    for nu in (cap, float(rng.uniform(0.0, cap))):
                        val = improved_rhs(
                            params=SemiclassicalParams(sigma, 2),
                            lam=lam,
                            vol_omega_lambda=st.vol_omega_lambda,
                            d_lambda=st.d_lambda,
                            nu=nu,
                        )
                        assert val >= -1e-9 * max(1.0, abs(val))


def test_criterion_06_two_term_convergence():
    with criterion(6, "Riesz means approach the two-term expansion at high energy"):
        rep = asymptotic_diagnostics(AxisBox((1.0, 1.0)), 1.5, (4e2, 4e4))
        r_lo, r_hi = (row["ratio_main"] for row in rep.rows)
        assert 0.9 <= r_hi <= 1.0
        assert abs(r_hi - 1.0) < abs(r_lo - 1.0)
        second = rep.rows[-1]["ratio_second"]
        assert 0.8 <= second <= 1.2


def test_criterion_07_sum_bounds_and_polya():
    with criterion(7, "Li-Yau, eigenvalue-lower, Polya, and Hoelder checks on tiling boxes"):
        full = tuple(range(1, 10_001))
        for dom in BOXES:
            rep = sweep_sums(SweepConfig(domain=dom, sigma=1.0, n_grid=full))
            assert rep.all_passed, rep.summary()
            # Polya in sharp discrete form: right limits of the counting jumps
            spec = enumerate_spectrum(dom, 1e5)
            vol = math.prod(dom.sides)
            eta = vol / (4.0 * math.pi) * spec.eigenvalues
            assert np.all(spec.cumulative_counts <= eta * (1.0 + 1e-12))
            assert counting(spec, 1e5) <= phase_space_eta(2, vol, 1e5)
        short = tuple(range(1, 1_001))
        for sigma in (1.5, 2.0, 3.0):
            rep = sweep_sums(
                SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=sigma, n_grid=short)
            )
            assert rep.all_passed, rep.summary()


def series_zero_mp(m, k):
    # bisection on the ascending power series in mpmath arithmetic
    mpmath.mp.dps = 40

    def j_series(x):
        x = mpmath.mpf(x)
        term = (x / 2) ** m / mpmath.factorial(m)
        total = term
        q = x * x / 4
        for i in range(1, 160):
            term *= -q / (i * (i + m))
            total += term
        return total

    zeros_found = 0
    prev_x = mpmath.mpf(m) if m > 0 else mpmath.mpf("0.1")
    prev_f = j_series(prev_x)
    x = prev_x
    while True:
        x = x + mpmath.mpf("0.5")
        f = j_series(x)
        if f * prev_f < 0:
            zeros_found += 1
            if zeros_found == k:
                lo, hi = prev_x, x
                flo = prev_f
                for _ in range(80):
                    mid = (lo + hi) / 2
                    fm = j_series(mid)
                    if fm * flo <= 0:
                        hi = mid
                    else:
                        lo, flo = mid, fm
                return float((lo + hi) / 2)
        prev_x, prev_f = x, f


def test_criterion_08_spectra_against_independent_oracles():
    with criterion(8, "spectra and zeros match lattice loops, mpmath scans, and series bisection"):
        # box lattice loop
        for dom in BOXES:
            spec = enumerate_spectrum(dom, 2000.0)
            bounds = [int(math.ceil(a * math.sqrt(2000.0) / math.pi)) + 1 for a in dom.sides]
            oracle = sorted(
                math.pi**2 * sum((n / a) ** 2 for n, a in zip(ns, dom.sides))
                for ns in itertools.product(*(range(1, b + 1) for b in bounds))
                if math.pi**2 * sum((n / a) ** 2 for n, a in zip(ns, dom.sides)) < 2000.0
            )
            assert spec.total_count == len(oracle)
            np.testing.assert_allclose(spec.expanded, np.array(oracle), rtol=1e-12)

        # disk (m, k) scan in mpmath arithmetic
        mpmath.mp.dps = 20
        spec = enumerate_spectrum(Disk(1.0), 2000.0)
        vals = []
        m = 0
        while mpmath.besseljzero(m, 1) < mpmath.sqrt(2000.0):
            k = 1
            while True:
                z = mpmath.besseljzero(m, k)
                if z * z >= 2000.0:
                    break
                vals.extend([float(z * z)] * (1 if m == 0 else 2))
                k += 1
            m += 1
        vals = np.sort(np.array(vals))
        assert spec.total_count == len(vals)
        np.testing.assert_allclose(spec.expanded, vals, rtol=1e-11)

        # zeros against series bisection
        for m in (0, 1, 2, 3, 10):
            for k in (1, 2, 3, 4, 5):
                assert abs(bessel_zero(m, k) - series_zero_mp(m, k)) <= 1e-10

        # Riesz means against the counting-function integral
        rng = np.random.default_rng(7777)
        pool = [AxisBox((1.0, 1.0)), AxisBox((2.0, 1.0)), TWO_SQUARES, Disk(1.0)]
        specs = [enumerate_spectrum(dom, 2000.0) for dom in pool]
        for _ in range(50):
            spec = specs[int(rng.integers(0, len(specs)))]
            sigma = float(rng.uniform(1.0, 3.0))
            lam = float(rng.uniform(10.0, 1999.0))
            assert riesz_integral_check(spec, sigma, lam) <= 1e-12


def test_criterion_09_callback_domains_agree():
    with criterion(9, "callback-backed slicing agrees with closed forms"):
        p = SemiclassicalParams(1.5, 2)
        for dom in (AxisBox((2.0, 1.0)), TWO_SQUARES, Disk(1.0)):
            wrapped = generic_wrapper(dom)
            for lam in (40.0, 400.0, 4000.0):
                exact_st = slicing_stats(dom, lam)
                approx_st = slicing_stats(wrapped, lam)
                assert abs(
                    approx_st.vol_omega_lambda - exact_st.vol_omega_lambda
                ) <= 1e-3 * max(1e-9, exact_st.vol_omega_lambda)
                assert abs(approx_st.d_lambda - exact_st.d_lambda) <= 1e-3 * max(
                    1e-9, exact_st.d_lambda
                )
                exact_sb = sliced_bound(dom, p, lam)
                approx_sb = sliced_bound(wrapped, p, lam)
                assert abs(approx_sb - exact_sb) <= 1e-3 * max(1e-9, exact_sb)

        # disk cross measure against a 2^23-node midpoint rule
        n = 2**23
        for lam in (100.0, 987.654):
            l_crit = critical_length(lam)
            edges = np.linspace(-1.0, 1.0, n + 1)
            u = 0.5 * (edges[1:] + edges[:-1])
            w = 2.0 / n
            length = 2.0 * np.sqrt(np.clip(1.0 - u * u, 0.0, None))
            d_num = float(np.count_nonzero(length > l_crit) * w)
            st = slicing_stats(Disk(1.0), lam)
            assert abs(st.d_lambda - d_num) <= 1e-6


def test_criterion_10_deterministic_csv(tmp_path):
    with criterion(10, "sweep CSV output is byte-identical across runs and paths"):
        texts = []
        for run in ("a", "b"):
            dest = tmp_path / f"sweep_{run}.csv"
            with redirect_stdout(io.StringIO()) as quiet:
                rc = main(
                    [
                        "sweep",
                        "--domain",
                        "box:1x1",
                        "--sigma",
                        "1.5",
                        "--lambda-max",
                        "5e3",
                        "--points",
                        "50",
                        "--csv",
                        str(dest),
                    ]
                )
            assert rc == 0
            assert "VERDICT: PASS" in quiet.getvalue()
            texts.append(dest.read_bytes())
        assert texts[0] == texts[1]

        # the library path agrees byte for byte as well
        grid = tuple(np.geomspace(1.0, 5e3, 50))
        rep = sweep_riesz(
            SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.5, lambda_grid=grid)
        )
        buf = io.StringIO()
        rep.to_csv(buf)
        assert buf.getvalue().encode() == texts[0]
