"""Sweep reports: row contents, verdicts, determinism, serialization.

Row values are recomputed here with direct calls into the bound and
spectra modules, so a sweep cannot drift away from the functions it is
supposed to orchestrate.
"""

import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest

import berezin_lab.harness as harness
from berezin_lab.bounds import (
    improved_rhs,
    li_yau_rhs,
    phase_space_eta,
    s_classical,
    sliced_bound,
    two_term_riesz,
)
from berezin_lab.cli import main
from berezin_lab.constants import SemiclassicalParams
from berezin_lab.errors import InsufficientCutoffError, UnsupportedDomainError
from berezin_lab.geometry import AxisBox, Disk, generic_wrapper, slicing_stats
from berezin_lab.harness import (
    ASYMP_CHECKS,
    ASYMP_COLUMNS,
    RIESZ_CHECKS,
    RIESZ_COLUMNS,
    SUMS_CHECKS,
    SUMS_COLUMNS,
    BoundReport,
    SweepConfig,
    asymptotic_diagnostics,
    sweep_riesz,
    sweep_sums,
)
from berezin_lab.remainder import epsilon_mu
from berezin_lab.spectra import counting, enumerate_spectrum, riesz_mean
from berezin_lab.version import TOOL_VERSION


def test_column_contracts():
    assert RIESZ_COLUMNS == (
        "lambda",
        "n",
        "riesz_mean",
        "eta",
        "s_classical",
        "sliced_bound",
        "improved_rhs",
        "two_term_riesz",
        "vol_omega_lambda",
        "d_lambda",
    )
    assert RIESZ_CHECKS == (
        "s_le_sliced",
        "sliced_le_improved",
        "improved_le_classical",
        "berezin",
        "polya",
        "improved_nonneg",
    )
    assert SUMS_COLUMNS == (
        "n_index",
        "lambda_n",
        "s1",
        "s_sigma",
        "s_classical_sigma",
        "li_yau_rhs",
        "melas_rhs",
        "eigenvalue_lower",
        "two_term_sum",
    )
    assert SUMS_CHECKS == ("li_yau", "lambda_lower", "melas", "holder_upper")
    assert ASYMP_COLUMNS == (
        "lambda",
        "riesz_mean",
        "s_classical",
        "ratio_main",
        "ratio_second",
    )
    assert ASYMP_CHECKS == ("berezin",)


def test_riesz_rows_match_direct_evaluation():
    sq = AxisBox((1.0, 1.0))
    grid = (15.0, 2.0 * math.pi**2, 100.0)
    rep = sweep_riesz(SweepConfig(domain=sq, sigma=1.5, lambda_grid=grid))
    assert rep.kind == "riesz"
    assert rep.all_passed
    assert rep.metadata["nu_mode"] == "default-from-remainder-minimum"
    nu = rep.metadata["nu"]
    assert nu == pytest.approx(4.0 * epsilon_mu(2.0).epsilon, rel=1e-15)
    assert rep.metadata["domain"] == repr(sq)
    assert rep.metadata["epsilon_mu"] == 2.0

    p = SemiclassicalParams(1.5, 2)
    spec = enumerate_spectrum(sq, grid[-1])
    for row, lam in zip(rep.rows, grid):
        assert row["lambda"] == lam
        assert row["n"] == counting(spec, lam)
        assert row["riesz_mean"] == pytest.approx(riesz_mean(spec, 1.5, lam), rel=1e-15)
        assert row["eta"] == pytest.approx(phase_space_eta(2, 1.0, lam), rel=1e-15)
        assert row["s_classical"] == pytest.approx(s_classical(p, 1.0, lam), rel=1e-15)
        assert row["sliced_bound"] == pytest.approx(sliced_bound(sq, p, lam), rel=1e-15)
        st = slicing_stats(sq, lam)
        assert row["vol_omega_lambda"] == st.vol_omega_lambda
        assert row["d_lambda"] == st.d_lambda
        expected_improved = improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=st.vol_omega_lambda,
            d_lambda=st.d_lambda,
            nu=nu,
        )
        assert row["improved_rhs"] == pytest.approx(expected_improved, rel=1e-15)
        assert row["two_term_riesz"] == pytest.approx(
            two_term_riesz(p, 1.0, 4.0, lam), rel=1e-15
        )


def test_riesz_low_lambda_rows_pass_trivially():
    rep = sweep_riesz(
        SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.5, lambda_grid=(1.0, 5.0))
    )
    assert rep.all_passed
    for row in rep.rows:
        assert row["riesz_mean"] == 0.0
        assert row["sliced_bound"] == 0.0
        assert row["improved_rhs"] == 0.0
        assert row["n"] == 0


def test_riesz_disk_has_no_polya_verdict():
    rep = sweep_riesz(
        SweepConfig(domain=Disk(1.0), sigma=1.5, lambda_grid=(50.0, 100.0))
    )
    assert rep.all_passed
    for row in rep.rows:
        assert row["polya"] == "n/a"
        assert math.isnan(row["polya_margin"])


def test_riesz_below_three_halves_skips_sliced_chain():
    rep = sweep_riesz(
        SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.0, lambda_grid=(50.0, 100.0))
    )
    assert rep.metadata["nu_mode"] == "n/a"
    assert rep.all_passed
    for row in rep.rows:
        assert math.isnan(row["sliced_bound"])
        assert row["s_le_sliced"] == "n/a"
        assert row["berezin"] == "pass"


def test_riesz_exploratory_overweight_fails():
    # nu slightly above the guaranteed upper value breaks the middle link
    rep = sweep_riesz(
        SweepConfig(
            domain=AxisBox((10.0, 0.85)),
            sigma=1.5,
            lambda_grid=(4.0 * math.pi**2,),
            nu=2.1,
        )
    )
    assert rep.metadata["nu_mode"] == "explicit"
    assert not rep.all_passed
    fails = rep.failures()
    assert len(fails) == 1
    idx, name, margin = fails[0]
    assert (idx, name) == (0, "sliced_le_improved")
    assert margin < 0.0
    assert rep.rows[0]["sliced_le_improved"] == "fail"
    assert "VERDICT: FAIL" in rep.summary()


def test_riesz_axis_choice_is_geometric():
    a = sweep_riesz(
        SweepConfig(
            domain=AxisBox((2.0, 1.0), slicing_axis=1),
            sigma=1.5,
            lambda_grid=(60.0, 180.0),
        )
    )
    b = sweep_riesz(
        SweepConfig(domain=AxisBox((1.0, 2.0)), sigma=1.5, lambda_grid=(60.0, 180.0))
    )
    for ra, rb in zip(a.rows, b.rows):
        for c in RIESZ_COLUMNS:
            va, vb = ra[c], rb[c]
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb


def test_csv_identical_across_runs(tmp_path):
    grid = tuple(np.geomspace(1.0, 5e3, 40))
    outs = []
    for _ in range(2):
        rep = sweep_riesz(
            SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.5, lambda_grid=grid)
        )
        buf = io.StringIO()
        rep.to_csv(buf)
        outs.append(buf.getvalue())
    assert outs[0] == outs[1]

    dest = tmp_path / "sweep.csv"
    with redirect_stdout(io.StringIO()):
        rc = main(
            ["sweep", "--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "5e3",
             "--points", "40", "--csv", str(dest)]
        )
    assert rc == 0
    assert dest.read_text() == outs[0]


def test_csv_format():
    rep = sweep_riesz(
        SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.0, lambda_grid=(50.0,))
    )
    buf = io.StringIO()
    rep.to_csv(buf)
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == f"# berezin-lab v{TOOL_VERSION}"
    assert lines[1].split(",")[: len(RIESZ_COLUMNS)] == list(RIESZ_COLUMNS)
    assert len(lines) == 2 + len(rep.rows)
    assert text.endswith("\n")
    cells = lines[2].split(",")
    cols = lines[1].split(",")
    # sigma = 1 leaves the sliced chain empty: nan serializes to nothing
    assert cells[cols.index("sliced_bound")] == ""
    assert cells[cols.index("n")] == str(rep.rows[0]["n"])
    lam_cell = cells[cols.index("lambda")]
    assert lam_cell == "50"
    s_cell = cells[cols.index("s_classical")]
    assert float(s_cell) == rep.rows[0]["s_classical"]
    assert len(s_cell.split(".")[-1]) > 10  # full precision survives


def test_sums_rows_interval():
    rep = sweep_sums(
        SweepConfig(domain=AxisBox((math.pi,)), sigma=1.0, n_grid=(1, 2, 5))
    )
    assert rep.kind == "sums"
    assert rep.all_passed
    assert rep.metadata["melas_m"] == "none"
    row = rep.rows[0]
    assert row["n_index"] == 1
    assert row["lambda_n"] == pytest.approx(1.0, rel=1e-13)
    assert row["s1"] == pytest.approx(1.0, rel=1e-13)
    assert row["li_yau_rhs"] == pytest.approx(1.0 / 3.0, rel=1e-13)
    assert row["melas"] == "n/a"
    assert row["holder_upper"] == "n/a"  # needs sigma > 1
    assert rep.rows[2]["s1"] == pytest.approx(sum(k * k for k in range(1, 6)), rel=1e-12)


def test_sums_square_partial_sums_are_one_based():
    rep = sweep_sums(
        SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=2.0, n_grid=(1, 2, 3))
    )
    pi2 = math.pi**2
    lam_n, s1, s_sigma = (rep.columns[k] for k in ("lambda_n", "s1", "s_sigma"))
    assert lam_n[0] == pytest.approx(2.0 * pi2, rel=1e-14)
    assert lam_n[1] == lam_n[2]  # degenerate pair
    assert s1[0] == pytest.approx(2.0 * pi2, rel=1e-14)
    assert s1[2] == pytest.approx(12.0 * pi2, rel=1e-14)
    assert s_sigma[2] == pytest.approx((4.0 + 25.0 + 25.0) * pi2**2, rel=1e-14)


def test_sums_with_melas_and_holder():
    rep = sweep_sums(
        SweepConfig(
            domain=AxisBox((1.0, 1.0)),
            sigma=2.0,
            n_grid=(1, 10, 100),
            melas_m=0.5,
        )
    )
    assert rep.all_passed
    assert rep.metadata["melas_m"] == "0.5 (external constant)"
    sq_moment = 1.0 / 6.0
    for row in rep.rows:
        n = row["n_index"]
        assert row["melas_rhs"] == pytest.approx(
            li_yau_rhs(2, 1.0, n) + 0.5 * n / sq_moment, rel=1e-13
        )
        assert row["melas"] == "pass"
        assert row["holder_upper"] == "pass"
        # Hoelder: s1 <= s_sigma^(1/sigma) * n^(1/conjugate)
        rhs = row["s_sigma"] ** 0.5 * n**0.5
        assert row["s1"] <= rhs * (1.0 + 1e-12)


def test_sums_sigma_zero_rows():
    rep = sweep_sums(SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=0.0, n_grid=(3,)))
    row = rep.rows[0]
    assert math.isnan(row["s_sigma"])
    assert math.isnan(row["s_classical_sigma"])
    assert row["li_yau"] == "pass"
    assert row["lambda_lower"] == "pass"


def test_sweep_config_validation():
    sq = AxisBox((1.0, 1.0))
    with pytest.raises(ValueError):
        SweepConfig(domain=sq, sigma=-1.0, lambda_grid=(1.0,))
    with pytest.raises(ValueError):
        SweepConfig(domain=sq, sigma=1.0, lambda_grid=())
    with pytest.raises(ValueError):
        SweepConfig(domain=sq, sigma=1.0, lambda_grid=(2.0, 1.0))
    with pytest.raises(ValueError):
        SweepConfig(domain=sq, sigma=1.0, lambda_grid=(1.0,), slack=0.0)
    with pytest.raises(ValueError):
        SweepConfig(domain=sq, sigma=1.0, n_grid=(5, 5))
    with pytest.raises(ValueError):
        sweep_riesz(SweepConfig(domain=sq, sigma=1.0, n_grid=(5,)))
    with pytest.raises(ValueError):
        sweep_sums(SweepConfig(domain=sq, sigma=1.0, lambda_grid=(5.0,)))


def test_asymptotics_report():
    rep = asymptotic_diagnostics(AxisBox((1.0, 1.0)), 1.5, (4e2, 4e3, 4e4))
    assert rep.kind == "asymptotics"
    assert rep.metadata["ratio_main_monotone_verdict"] == "pass"
    assert rep.all_passed
    ratios = [row["ratio_main"] for row in rep.rows]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)
    assert abs(rep.metadata["ratio_second_last"] - 1.0) < abs(
        rep.metadata["ratio_second_first"] - 1.0
    )
    assert rep.metadata["domain"] == repr(AxisBox((1.0, 1.0)))


def test_asymptotics_validation():
    sq = AxisBox((1.0, 1.0))
    with pytest.raises(ValueError):
        asymptotic_diagnostics(sq, 1.5, (100.0,))
    with pytest.raises(ValueError):
        asymptotic_diagnostics(sq, 1.5, (100.0, 50.0))
    with pytest.raises(ValueError):
        asymptotic_diagnostics(sq, 0.0, (50.0, 100.0))
    with pytest.raises(UnsupportedDomainError):
        asymptotic_diagnostics(generic_wrapper(sq), 1.5, (50.0, 100.0))


def test_spectrum_for_count_retries_until_enough():
    spec = harness._spectrum_for_count(AxisBox((10.0, 0.05)), 100)
    assert spec.total_count >= 100


def test_spectrum_for_count_gives_up(monkeypatch):
    small = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    monkeypatch.setattr(harness, "enumerate_spectrum", lambda dom, lam: small)
    with pytest.raises(InsufficientCutoffError):
        harness._spectrum_for_count(AxisBox((1.0, 1.0)), 10_000)


def test_report_summary_content():
    rep = sweep_riesz(
        SweepConfig(domain=AxisBox((1.0, 1.0)), sigma=1.5, lambda_grid=(50.0, 100.0))
    )
    text = rep.summary()
    assert text.startswith(f"berezin-lab v{TOOL_VERSION} riesz report")
    assert "VERDICT: PASS" in text
    assert "check s_le_sliced: pass=2" in text
    assert "rows: 2" in text


def test_report_failures_include_metadata_verdicts():
    rep = BoundReport(
        kind="riesz",
        columns={"lambda": np.empty(0)},
        checks=(),
        metadata={"ratio_main_monotone_verdict": "fail"},
    )
    fails = rep.failures()
    assert len(fails) == 1
    assert fails[0][0] == -1
    assert fails[0][1] == "ratio_main_monotone_verdict"
    assert not rep.all_passed
    assert "failing metadata check" in rep.summary()
