"""Sweep reports: row contents, verdicts, determinism, serialization.

Row values are recomputed here with direct calls into the bound and
spectra modules, so a sweep cannot drift away from the functions it is
supposed to orchestrate.
"""

import ast
import io
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

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
from berezin_lab.errors import EnumerationLimitError, NumericFailure
from berezin_lab.geometry import AxisBox, Disk, slicing_stats
from berezin_lab.harness import asymptotic_diagnostics, sweep_riesz, sweep_sums
from berezin_lab.remainder import epsilon_mu
from berezin_lab.spectra import Spectrum, counting, enumerate_spectrum, riesz_mean
from berezin_lab.version import TOOL_VERSION


# a live report of each kind whose columns README lists
_README_KINDS = {
    "sweep": ["sweep", "--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "100",
              "--points", "3"],
    "sums": ["sums", "--domain", "box:1x1", "--sigma", "2", "--n-max", "5"],
    "asymptotics": ["asymptotics", "--domain", "box:1x1", "--sigma", "1.5",
                    "--lambda-max", "1e3", "--points", "2"],
}


def test_column_contracts(tmp_path):
    # README documents each report's CSV header: its value columns, then a
    # verdict and a margin column per check
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^- `(\w+)`[^:]*: `([^`]+)`; checks? `([^`]+)`\.", readme, re.M)
    assert [kind for kind, _, _ in listed] == list(_README_KINDS)
    for kind, columns, checks in listed:
        dest = tmp_path / f"{kind}.csv"
        with redirect_stdout(io.StringIO()):
            assert main([*_README_KINDS[kind], "--csv", str(dest)]) == 0
        header = dest.read_text().splitlines()[1].split(",")
        verdicts = [
            col for c in re.split(r",\s+", checks) for col in (c, f"{c}_margin")
        ]
        assert header == re.split(r",\s+", columns) + verdicts, kind


def test_readme_check_table_is_the_check_table():
    # README's table of checks has one row per entry of harness._CHECKS, in
    # column order: its name, the report kinds that share it and its sides
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \| ([a-z, ]+) \| `(\w+)` <= `(\w+)` \|", readme, re.M)
    entries = []
    for checks in harness._CHECKS.values():
        entries += [c for c in checks if c not in entries]
    want = [
        (
            name,
            ", ".join(kind for kind, checks in harness._CHECKS.items() if entry in checks),
            *(side if isinstance(side, str) else f"{side:g}" for side in (lhs, rhs)),
        )
        for entry in entries
        for name, lhs, rhs, _ in [entry]
    ]
    assert listed == want


def test_checks_are_declared_once():
    # every verdict comes from _CHECKS through _report: it alone reads the
    # slack, no function calls a verdict helper of its own, and no report
    # carries a verdict in its metadata
    tree = ast.parse(Path(harness.__file__).read_text())
    readers = {
        name: sorted({
            fn.name
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id == name
        })
        for name in ("_SLACK", "_check_le")
    }
    assert readers == {"_SLACK": ["_report"], "_check_le": []}
    sq = AxisBox((1.0, 1.0))
    reports = (
        sweep_riesz(sq, 1.5, (10.0, 50.0)),
        sweep_riesz(Disk(1.0), 0.5, (10.0, 50.0), nu=1.0),
        sweep_riesz(AxisBox((2.0,)), 1.5, (10.0, 50.0)),
        sweep_sums(sq, 1.0, (1, 5)),
        sweep_sums(Disk(1.0), 2.0, (1, 5), melas_m=0.1),
        asymptotic_diagnostics(sq, 2.0, (50.0, 100.0)),
        asymptotic_diagnostics(Disk(1.0), 1.5, (50.0, 100.0)),
    )
    for rep in reports:
        assert not [key for key in rep.metadata if key.endswith("_verdict")]
        names = tuple(name for name, *_ in harness._CHECKS[rep.kind])
        assert rep.checks == names
        assert list(rep.columns)[-2 * len(names) :] == [
            col for name in names for col in (name, f"{name}_margin")
        ]


# Per report kind: a bound the sweep calls (with the one Riesz order at which
# it gives NaN, if not every call), the first check with it as a side, and a
# sweep of three rows.
_NAN_SIDES = {
    "riesz": (
        ("sliced_bound", None), "s_le_sliced, riesz_mean <= sliced_bound",
        lambda: sweep_riesz(AxisBox((1.0, 1.0)), 1.5, (20.0, 50.0, 100.0)),
    ),
    "sums": (
        ("li_yau_rhs", None), "li_yau, li_yau_rhs <= s1",
        lambda: sweep_sums(AxisBox((2.0, 1.0)), 2.0, (1, 2, 3)),
    ),
    "asymptotics": (
        ("s_classical", None), "berezin, riesz_mean <= s_classical",
        lambda: asymptotic_diagnostics(AxisBox((1.0, 1.0)), 1.5, (50.0, 80.0, 100.0)),
    ),
    # R_{sigma-1} at sigma = 2, a side of the Harrell-Hermi check only
    "asymptotics-monotone": (
        ("riesz_mean", 1.0), "ratio_main_monotone, scaled_riesz_mean <= scaled_lower_mean",
        lambda: asymptotic_diagnostics(AxisBox((1.0, 1.0)), 2.0, (50.0, 80.0, 100.0)),
    ),
}


def _nan_in_row(monkeypatch, bound, row, order=None):
    """Make the harness's `bound` give NaN in one row, at Riesz order `order`
    (its second argument) only if that is given."""
    real = getattr(harness, bound)

    def patched(*args, **kwargs):
        out = np.array(real(*args, **kwargs), dtype=float)
        if order is None or args[1] == order:
            out[row] = math.nan
        return out

    monkeypatch.setattr(harness, bound, patched)


@pytest.mark.parametrize("kind", list(_NAN_SIDES))
def test_a_nan_side_where_a_check_applies_fails_loudly(monkeypatch, kind):
    # a NaN where a check applies is a numeric fault, named, not an n/a verdict
    (bound, order), check, sweep = _NAN_SIDES[kind]
    _nan_in_row(monkeypatch, bound, 1, order)
    with pytest.raises(NumericFailure, match=re.escape(f"check {check}: NaN side in row 1")):
        sweep()


@pytest.mark.parametrize("applies", [False, True])
def test_a_function_side_is_called_only_where_its_check_applies(applies):
    # holder_upper reads the fact holder_rhs and applies for sigma > 1
    calls = []

    def holder_rhs():
        if not applies:
            raise AssertionError("a side of a check that does not apply was computed")
        calls.append(1)
        return np.array([3.0, 4.0])

    values = {"n_index": np.array([1, 2]), "s1": np.array([2.0, 5.0]), "lambda_n": 1.0,
              "li_yau_rhs": 1.0, "eigenvalue_lower": 1.0}
    facts = {"melas_m": None, "holder_rhs": holder_rhs}
    rep = harness._report("sums", AxisBox((1.0, 1.0)), 2.0 if applies else 1.0, values, facts)
    assert len(calls) == applies
    codes, margin = rep.columns["holder_upper"], rep.columns["holder_upper_margin"]
    if applies:
        assert codes.tolist() == [0, 1] and margin.tolist() == [1.0, -1.0]
    else:
        assert codes.tolist() == [2, 2] and np.isnan(margin).all()


@pytest.mark.parametrize("sigma, calls", [(1.5, 1), (2.0, 2)])
def test_asymptotics_computes_the_lower_mean_only_for_its_check(monkeypatch, sigma, calls):
    # R_{sigma-1} is a side of ratio_main_monotone alone, which applies for sigma >= 2
    orders = []

    def counted(spec, order, lam):
        orders.append(order)
        return riesz_mean(spec, order, lam)

    monkeypatch.setattr(harness, "riesz_mean", counted)
    asymptotic_diagnostics(AxisBox((1.0, 1.0)), sigma, (50.0, 100.0))
    assert orders == [sigma, sigma - 1.0][:calls]


def test_a_nan_side_exits_3_naming_the_check_and_row(monkeypatch):
    _nan_in_row(monkeypatch, "sliced_bound", 2)
    out, err = io.StringIO(), io.StringIO()
    argv = ["sweep", "--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "500",
            "--points", "5"]
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 3
    assert out.getvalue() == ""
    assert err.getvalue() == (
        "numeric failure: check s_le_sliced, riesz_mean <= sliced_bound: NaN side in row 2\n"
    )


def test_riesz_rows_match_direct_evaluation():
    sq = AxisBox((1.0, 1.0))
    grid = (15.0, 2.0 * math.pi**2, 100.0)
    rep = sweep_riesz(sq, 1.5, grid)
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
    rep = sweep_riesz(AxisBox((1.0, 1.0)), 1.5, (1.0, 5.0))
    assert rep.all_passed
    for row in rep.rows:
        assert row["riesz_mean"] == 0.0
        assert row["sliced_bound"] == 0.0
        assert row["improved_rhs"] == 0.0
        assert row["n"] == 0


def test_riesz_disk_has_no_polya_verdict():
    rep = sweep_riesz(Disk(1.0), 1.5, (50.0, 100.0))
    assert rep.all_passed
    for row in rep.rows:
        assert row["polya"] == "n/a"
        assert math.isnan(row["polya_margin"])


def test_riesz_below_three_halves_skips_sliced_chain():
    rep = sweep_riesz(AxisBox((1.0, 1.0)), 1.0, (50.0, 100.0))
    assert rep.metadata["nu_mode"] == "n/a"
    assert rep.all_passed
    for row in rep.rows:
        assert math.isnan(row["sliced_bound"])
        assert row["s_le_sliced"] == "n/a"
        assert row["berezin"] == "pass"


def test_improved_nonneg_applies_up_to_the_nu_cap():
    # the corrected bound is nonnegative for weights up to nu_nonneg_cap only
    sq = AxisBox((1.0, 1.0))
    grid = (20.0, 100.0, 500.0)
    cap = sweep_riesz(sq, 1.5, grid).metadata["nu_nonneg_cap"]
    at_cap = sweep_riesz(sq, 1.5, grid, nu=cap)
    assert [row["improved_nonneg"] for row in at_cap.rows] == ["pass"] * 3
    above = sweep_riesz(sq, 1.5, grid, nu=cap * (1.0 + 1e-9))
    assert [row["improved_nonneg"] for row in above.rows] == ["n/a"] * 3
    assert np.isnan(above.columns["improved_nonneg_margin"]).all()


def test_riesz_exploratory_overweight_fails():
    # nu slightly above the guaranteed upper value breaks the middle link
    rep = sweep_riesz(AxisBox((10.0, 0.85)), 1.5, (4.0 * math.pi**2,), nu=2.1)
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
    a = sweep_riesz(AxisBox((2.0, 1.0), slicing_axis=1), 1.5, (60.0, 180.0))
    b = sweep_riesz(AxisBox((1.0, 2.0)), 1.5, (60.0, 180.0))
    assert list(a.columns) == list(b.columns)
    for ra, rb in zip(a.rows, b.rows):
        for c in ra:
            va, vb = ra[c], rb[c]
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb)
            else:
                assert va == vb


def test_csv_identical_across_runs(tmp_path):
    grid = tuple(np.geomspace(1.0, 5e3, 40))
    outs = []
    for _ in range(2):
        rep = sweep_riesz(AxisBox((1.0, 1.0)), 1.5, grid)
        buf = io.BytesIO()
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
    assert dest.read_bytes() == outs[0]


def test_csv_format():
    rep = sweep_riesz(AxisBox((1.0, 1.0)), 1.0, (50.0,))
    buf = io.BytesIO()
    rep.to_csv(buf)
    text = buf.getvalue().decode()
    lines = text.splitlines()
    assert lines[0] == f"# berezin-lab v{TOOL_VERSION}"
    assert lines[1].split(",") == list(rep.columns)
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
    rep = sweep_sums(AxisBox((math.pi,)), 1.0, (1, 2, 5))
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
    rep = sweep_sums(AxisBox((1.0, 1.0)), 2.0, (1, 2, 3))
    pi2 = math.pi**2
    lam_n, s1, s_sigma = (rep.columns[k] for k in ("lambda_n", "s1", "s_sigma"))
    assert lam_n[0] == pytest.approx(2.0 * pi2, rel=1e-14)
    assert lam_n[1] == lam_n[2]  # degenerate pair
    assert s1[0] == pytest.approx(2.0 * pi2, rel=1e-14)
    assert s1[2] == pytest.approx(12.0 * pi2, rel=1e-14)
    assert s_sigma[2] == pytest.approx((4.0 + 25.0 + 25.0) * pi2**2, rel=1e-14)


def test_sums_with_melas_and_holder():
    rep = sweep_sums(AxisBox((1.0, 1.0)), 2.0, (1, 10, 100), melas_m=0.5)
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
    rep = sweep_sums(AxisBox((1.0, 1.0)), 0.0, (3,))
    row = rep.rows[0]
    assert math.isnan(row["s_sigma"])
    assert math.isnan(row["s_classical_sigma"])
    assert row["li_yau"] == "pass"
    assert row["lambda_lower"] == "pass"


def test_sweep_config_validation(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before the inputs were checked")

    monkeypatch.setattr(harness, "enumerate_spectrum", no_enumeration)
    sq = AxisBox((1.0, 1.0))
    cases = [
        (sweep_riesz, -1.0, (1.0,), {}, "sigma must be finite and >= 0, got -1.0"),
        (sweep_riesz, 1.0, (), {}, "lambda_grid must be a non-empty 1-d grid"),
        (sweep_riesz, 1.0, (2.0, 1.0), {}, "lambda_grid must be strictly increasing"),
        (sweep_riesz, 1.0, (1.0, math.inf), {}, "lambda_grid must hold finite values"),
        (sweep_riesz, 1.5, (1.0,), {"nu": math.inf}, "nu must be finite, got inf"),
        (sweep_riesz, 1.5, (1.0,), {"nu": -math.inf}, "nu must be finite, got -inf"),
        (sweep_riesz, 1.5, (1.0,), {"nu": math.nan}, "nu must be finite, got nan"),
        (sweep_sums, 1.0, (5, 5), {}, "n_grid must be strictly increasing"),
        (sweep_sums, 1.0, (1.5, 3.0), {}, "n_grid must hold integers >= 1"),
        (sweep_sums, 1.0, (0, 3), {}, "n_grid must hold integers >= 1"),
        (sweep_sums, 1.0, [[1, 2]], {}, "n_grid must be a non-empty 1-d grid"),
        (sweep_sums, 2.0, (1,), {"melas_m": math.nan}, "melas_m must be finite, got nan"),
        (sweep_sums, 2.0, (1,), {"melas_m": math.inf}, "melas_m must be finite, got inf"),
    ]
    for sweep, sigma, grid, kwargs, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep(sq, sigma, grid, **kwargs)
    # the verdict slack is a module constant, not an argument
    for sweep, grid in ((sweep_riesz, (1.0,)), (sweep_sums, (1,))):
        with pytest.raises(TypeError):
            sweep(sq, 1.5, grid, slack=1e-9)
    with pytest.raises(TypeError):
        asymptotic_diagnostics(sq, 1.5, (1.0, 2.0), slack=1e-9)


def test_sweep_grid_is_a_read_only_copy():
    grid = np.geomspace(1.0, 1e3, 5)
    rep = sweep_riesz(AxisBox((1.0, 1.0)), 1.5, grid)
    assert grid.flags.writeable
    assert not rep.columns["lambda"].flags.writeable
    assert rep.columns["lambda"].tolist() == grid.tolist()
    with pytest.raises(TypeError):
        sweep_riesz(AxisBox((1.0, 1.0)), 1.5, grid, 0.5)  # nu is keyword-only


def test_asymptotics_report():
    rep = asymptotic_diagnostics(AxisBox((1.0, 1.0)), 1.5, (4e2, 4e3, 4e4))
    assert rep.kind == "asymptotics"
    assert rep.checks == ("berezin", "ratio_main_monotone")
    assert rep.columns["ratio_main_monotone"].tolist() == [2, 2, 2]  # n/a: sigma < 2
    assert np.isnan(rep.columns["ratio_main_monotone_margin"]).all()
    assert not [key for key in rep.metadata if key.startswith("ratio_main_monotone")]
    assert rep.all_passed
    ratios = [row["ratio_main"] for row in rep.rows]
    assert all(0.0 < r < 1.0 for r in ratios)
    assert ratios == sorted(ratios)
    assert abs(rep.metadata["ratio_second_last"] - 1.0) < abs(
        rep.metadata["ratio_second_first"] - 1.0
    )
    assert rep.metadata["domain"] == repr(AxisBox((1.0, 1.0)))
    assert "\n  slack: 1e-09\n" in rep.summary()


@pytest.mark.parametrize(
    "domain",
    [AxisBox((1.0, 1.0)), Disk(1.0), AxisBox((2.0, 1.0))],
    ids=["box-1x1", "disk-1", "box-2x1"],
)
def test_asymptotics_monotone_check_skips_rows_below_the_ground_state(domain):
    # a grid from 1 starts below the first eigenvalue, where ratio_main is 0
    rep = asymptotic_diagnostics(domain, 2.0, np.geomspace(1.0, 1e4, 8))
    s, ratio = rep.columns["riesz_mean"], rep.columns["ratio_main"]
    assert s[0] == s[1] == ratio[0] == ratio[1] == 0.0
    rising = ratio[s > 0.0]
    assert rising.size >= 5 and (np.diff(rising) > 0.0).all()
    assert rep.columns["ratio_main_monotone"].tolist() == [0] * 8
    assert rep.all_passed


def test_asymptotics_monotone_check_is_na_on_a_falling_ratio_below_sigma_2():
    # just below the disk's second eigenvalue, (lam - lam_1)^1.5 / lam^2.5
    # falls, because lam_2 / lam_1 = 2.54 exceeds 2.5; the ratio need only
    # rise for sigma >= 2, so the correct spectrum passes
    rep = asymptotic_diagnostics(Disk(1.0), 1.5, (14.5, 14.65))
    assert 0.0 < rep.columns["ratio_main"][1] < rep.columns["ratio_main"][0]
    assert rep.columns["ratio_main_monotone"].tolist() == [2, 2]
    assert rep.all_passed


def test_asymptotics_monotone_check_reads_each_row_of_a_two_point_grid(monkeypatch):
    # the lower point is below the first eigenvalue, so one row has a positive
    # Riesz mean and comparing neighbours would compare nothing
    dom, lam1 = AxisBox((1.0, 1.0)), 2.0 * math.pi**2
    grid = (0.5 * lam1, 10.0 * lam1)
    rep = asymptotic_diagnostics(dom, 2.0, grid)
    assert rep.columns["ratio_main_monotone"].tolist() == [0, 0]
    margin = rep.columns["ratio_main_monotone_margin"]
    assert margin[0] == 0.0 and margin[1] > 0.0  # 0 <= 0 below the ground state
    assert "check ratio_main_monotone: pass=2 fail=0 n/a=0 worst_margin=0 (row 0)" in (
        rep.summary()
    )
    # Its lowest eigenvalue alone gives R_2(z) = (z - lam1)^2, R_1(z) = z - lam1,
    # and sigma z R_1 - (sigma + d/2) R_2 = 2 z (z - lam1) - 3 (z - lam1)^2,
    # which is -63 lam1^2 at z = 10 lam1.
    def lowest(domain, cutoff):
        spec = enumerate_spectrum(domain, cutoff)
        return Spectrum(
            spec.cutoff,
            spec.eigenvalues[:1],
            spec.multiplicities[:1],
            spec.join_positions,
            spec.join_gaps,
        )

    monkeypatch.setattr(harness, "enumerate_spectrum", lowest)
    bad = asymptotic_diagnostics(dom, 2.0, grid)
    assert bad.columns["ratio_main_monotone"].tolist() == [0, 1]
    margin = bad.columns["ratio_main_monotone_margin"]
    assert margin[0] == 0.0
    assert margin[1] == pytest.approx(-63 * lam1**2)
    assert [f[:2] for f in bad.failures()] == [(1, "ratio_main_monotone")]
    assert "\n  worst row [1] ratio_main_monotone: lambda=" in bad.summary()


@pytest.mark.parametrize(
    "domain, sigma",
    [(AxisBox((1.0, 2.0, 0.5)), 2.0), (AxisBox((3.0, 1.0)), 2.5), (Disk(1.0), 3.0)],
    ids=["box-1x2x0.5", "box-3x1", "disk-1"],
)
def test_asymptotics_monotone_check_holds_on_every_row(domain, sigma):
    # Harrell-Hermi: sigma z R_{sigma-1}(z) >= (sigma + d/2) R_sigma(z), sigma >= 2
    rep = asymptotic_diagnostics(domain, sigma, np.geomspace(1.0, 1e4, 600))
    assert (rep.columns["ratio_main_monotone"] == 0).all()
    assert (rep.columns["ratio_main_monotone_margin"] >= 0.0).all()


def test_report_columns_hold_numbers_and_int8_verdict_codes():
    # no object array comes back from any sweep, applicable checks or not
    sq = AxisBox((1.0, 1.0))
    reports = (
        sweep_riesz(sq, 1.5, (10.0, 50.0)),
        sweep_riesz(Disk(1.0), 0.5, (10.0, 50.0)),
        sweep_sums(sq, 2.0, (1, 5)),
        sweep_sums(sq, 0.5, (1, 5), melas_m=0.1),
        asymptotic_diagnostics(sq, 2.0, (50.0, 100.0)),
    )
    for rep in reports:
        assert rep.checks
        for name, col in rep.columns.items():
            if name in rep.checks:
                assert col.dtype == np.int8, name
            else:
                assert col.dtype.kind in "iuf", name


def test_every_report_kind_shares_the_common_metadata(monkeypatch):
    sq = AxisBox((1.0, 1.0))
    monkeypatch.setattr(harness, "_SLACK", 1e-7)
    reports = (
        sweep_riesz(sq, 1.5, (50.0,)),
        sweep_sums(sq, 1.5, (1, 2)),
        asymptotic_diagnostics(sq, 1.5, (50.0, 100.0)),
    )
    for rep in reports:
        base = {k: rep.metadata[k] for k in ("tool_version", "domain", "sigma", "slack")}
        assert base == {
            "tool_version": TOOL_VERSION, "domain": repr(sq), "sigma": 1.5, "slack": 1e-7
        }
        assert rep.metadata["kind"] == rep.kind


def test_asymptotics_validation():
    sq = AxisBox((1.0, 1.0))
    with pytest.raises(ValueError):
        asymptotic_diagnostics(sq, 1.5, (100.0,))
    with pytest.raises(ValueError):
        asymptotic_diagnostics(sq, 1.5, (100.0, 50.0))
    with pytest.raises(ValueError, match="lambda_grid must hold finite values"):
        asymptotic_diagnostics(sq, 1.5, (100.0, math.nan))
    with pytest.raises(ValueError):
        asymptotic_diagnostics(sq, 0.0, (50.0, 100.0))


def test_spectrum_for_count_retries_until_enough():
    spec = harness._spectrum_for_count(AxisBox((10.0, 0.05)), 100)
    assert spec.total_count >= 100


def test_spectrum_for_count_gives_up(monkeypatch):
    # The probe at the largest float decides every real "too few" case, so a
    # search that ends with too few means the enumerator disagrees with it:
    # this stand-in gives a fixed small spectrum at every cutoff.
    small = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    monkeypatch.setattr(harness, "enumerate_spectrum", lambda dom, lam: small)
    with pytest.raises(
        AssertionError, match="^the probe found enough eigenvalues below the largest float$"
    ):
        harness._spectrum_for_count(AxisBox((1.0, 1.0)), 10_000)


def _windowed_enumerator(monkeypatch, enough, too_many):
    """enumerate_spectrum stand-in: enough eigenvalues from cutoff `enough` on,
    EnumerationLimitError from `too_many` on; records the cutoffs tried."""
    none = enumerate_spectrum(AxisBox((1.0, 1.0)), 1.0)
    full = enumerate_spectrum(AxisBox((1.0, 1.0)), 100.0)
    tried = []

    def fake(dom, lam):
        tried.append(lam)
        if lam >= too_many:
            raise EnumerationLimitError("too many entries")
        return full if lam >= enough else none

    monkeypatch.setattr(harness, "enumerate_spectrum", fake)
    return full, tried


def test_spectrum_for_count_bisects_below_the_enumeration_limit(monkeypatch):
    # a window far narrower than one x1.4 step, as a long thin box has just
    # above its first eigenvalue: the cutoffs after an overshoot bisect into it
    full, tried = _windowed_enumerator(monkeypatch, 10.0, 10.001)
    assert harness._spectrum_for_count(AxisBox((1e9, 1.0)), 3) is full
    assert 10.0 <= tried[-1] < 10.001 and len(tried) < 200


def test_spectrum_for_count_raises_the_limit_when_no_window(monkeypatch):
    _, tried = _windowed_enumerator(monkeypatch, 10.0, 10.0)
    with pytest.raises(EnumerationLimitError):
        harness._spectrum_for_count(AxisBox((1e9, 1.0)), 3)
    # about 50 x1.4 steps up from the tiny start, then about 50 halvings of
    # the last step's logarithm down to adjacent floats
    assert len(tried) < 200
    # a start that already exceeds the limit is not retried
    _, tried = _windowed_enumerator(monkeypatch, 10.0, 1e-12)
    with pytest.raises(EnumerationLimitError):
        harness._spectrum_for_count(AxisBox((1e9, 1.0)), 3)
    assert len(tried) == 1


def test_report_summary_content():
    rep = sweep_riesz(AxisBox((1.0, 1.0)), 1.5, (50.0, 100.0))
    text = rep.summary()
    assert text.startswith(f"berezin-lab v{TOOL_VERSION} riesz report")
    assert "VERDICT: PASS" in text
    assert "check s_le_sliced: pass=2" in text
    assert "rows: 2" in text


def test_readme_python_api_runs():
    # the README's example is the API's documentation; it must run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S)
    assert block is not None
    with redirect_stdout(io.StringIO()):
        exec(compile(block.group(1), "README.md", "exec"), {})
