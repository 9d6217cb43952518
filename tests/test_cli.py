"""Command line surface: domain grammar, subcommands, exit codes."""

import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import berezin_lab
from berezin_lab.cli import main, parse_domain, render_domain
from berezin_lab.errors import DomainParseError, UnsupportedDomainError
from berezin_lab.geometry import AxisBox, BoxUnion, Disk, generic_wrapper
from berezin_lab.version import TOOL_VERSION


def test_parse_box():
    dom = parse_domain("box:1x1")
    assert dom == AxisBox((1.0, 1.0))
    assert dom.slicing_axis == 2
    assert parse_domain(" box:2x0.5 ") == AxisBox((2.0, 0.5))
    assert parse_domain("box:3") == AxisBox((3.0,))
    assert parse_domain("box:1x2x3;axis=1").slicing_axis == 1


def test_parse_disk():
    assert parse_domain("disk:1") == Disk(1.0)
    dom = parse_domain("disk:0.75;axis=1")
    assert dom == Disk(0.75, slicing_axis=1)


def test_parse_union():
    dom = parse_domain("union:box(1x1)@(0,0)+box(2x0.5)@(1.5,-1)")
    assert isinstance(dom, BoxUnion)
    assert dom.boxes[0] == AxisBox((1.0, 1.0), origin=(0.0, 0.0))
    assert dom.boxes[1] == AxisBox((2.0, 0.5), origin=(1.5, -1.0))


def test_parse_error_positions():
    with pytest.raises(DomainParseError) as e:
        parse_domain("box1x1")
    assert e.value.position == 0
    with pytest.raises(DomainParseError) as e:
        parse_domain("blob:1")
    assert e.value.position == 0
    with pytest.raises(DomainParseError) as e:
        parse_domain("box:1xfoo")
    assert e.value.position == 6
    with pytest.raises(DomainParseError) as e:
        parse_domain("disk:-1")
    assert e.value.position == 5
    with pytest.raises(DomainParseError) as e:
        parse_domain("box:1x1;ax=2")
    assert e.value.position == 8
    with pytest.raises(DomainParseError) as e:
        parse_domain("union:box(1x1)")
    assert e.value.position == 6
    with pytest.raises(DomainParseError):
        parse_domain("union:box(1x1)@(0,0,0)")
    with pytest.raises(DomainParseError):  # overlapping interiors
        parse_domain("union:box(1x1)@(0,0)+box(1x1)@(0.5,0.5)")


def test_round_trip_on_representable_domains():
    domains = [
        AxisBox((1.0, 1.0)),
        AxisBox((2.0, 0.5), slicing_axis=1),
        AxisBox((1.0, 2.0, 3.0)),
        AxisBox((1.0, 1.0), origin=(4.0, -1.0)),
        Disk(0.75),
        Disk(1.0, slicing_axis=1),
        BoxUnion((AxisBox((1.0, 1.0)), AxisBox((2.0, 0.5), origin=(1.5, -1.0)))),
        BoxUnion(
            (AxisBox((1.0, 1.0)), AxisBox((1.0, 1.0), origin=(2.0, 0.0))),
            slicing_axis=1,
        ),
    ]
    for dom in domains:
        text = render_domain(dom)
        back = parse_domain(text)
        if isinstance(dom, AxisBox) and any(o != 0.0 for o in dom.origin):
            # nonzero-origin boxes only exist as one-box unions in the grammar
            assert isinstance(back, BoxUnion)
            assert back.boxes == (dom,)
        else:
            assert back == dom


def test_render_rejects_callback_domains():
    with pytest.raises(UnsupportedDomainError):
        render_domain(generic_wrapper(Disk(1.0)))


def test_version_and_usage_exits(capsys):
    assert main(["--version"]) == 0
    assert "berezin-lab" in capsys.readouterr().out
    assert main(["constants", "--sigma", "1.5"]) == 2  # missing --dim
    assert main(["--no-such-flag"]) == 2
    assert main([]) == 2
    assert main(["check", "--domain", "box(1x1", "--sigma", "1.5", "--lambda", "5"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs_without_warnings():
    src = str(Path(berezin_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "berezin_lab", "--version"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"berezin-lab {TOOL_VERSION}"
    assert proc.stderr == ""


def test_constants_output(capsys):
    assert main(["constants", "--sigma", "1.5", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
    )
    assert float(lines["lt_classical"]) == pytest.approx(
        2.0 / (5.0 * 4.0 * math.pi), rel=1e-14
    )
    assert float(lines["counting_constant"]) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-14
    )
    assert float(lines["unit_ball_volume"]) == pytest.approx(math.pi, rel=1e-14)
    assert float(lines["dimension_reduction_residual"]) <= 1e-12
    assert float(lines["polya_counting_factor"]) == 2.0


def test_epsilon_output(capsys):
    assert main(["epsilon", "--mu", "2"]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
    )
    assert 1.91 < float(lines["four_epsilon"]) <= 2.0
    assert 1.0 < float(lines["argmin_a"]) < 2.0
    assert "nu_lower" not in lines

    assert main(["epsilon", "--sigma", "1.5", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    lines = dict(
        line.split(" = ", 1) for line in out.strip().splitlines() if " = " in line
    )
    assert float(lines["mu"]) == 2.0
    assert float(lines["nu_upper"]) == 2.0
    assert float(lines["nu_lower"]) == float(lines["four_epsilon"])


@pytest.mark.parametrize("sigma, dim", [("1", "2"), ("1.5", "1")])
def test_epsilon_outside_guaranteed_regime_prints_nothing(sigma, dim, capsys):
    assert main(["epsilon", "--sigma", sigma, "--dim", dim]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: nu_bounds requires" in captured.err


@pytest.mark.parametrize("mu", ["1", "0.4"])
def test_epsilon_below_the_certified_range_fails(mu, capsys):
    # the tail bound reaches past the scan limit (mu < 1.162), or does not
    # exist (mu <= 1/2): a numeric failure, with nothing on stdout
    assert main(["epsilon", "--mu", mu]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"numeric failure: f_mu minimum for mu={float(mu)}")
    assert "A0=" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["epsilon", "--mu", "2", "--scan-upper", "6"],
        ["epsilon", "--mu", "2", "--tol", "1e-10"],
        ["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "50",
         "--quad-points", "0"],
        ["sweep", "--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "50",
         "--points", "3", "--quad-points", "64"],
    ],
)
def test_deleted_flags_are_rejected(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_epsilon_flag_exclusivity(capsys):
    assert main(["epsilon", "--mu", "2", "--sigma", "1.5", "--dim", "2"]) == 2
    assert main(["epsilon", "--sigma", "1.5"]) == 2
    assert main(["epsilon"]) == 2
    capsys.readouterr()


def test_spectrum_stdout(capsys):
    assert main(["spectrum", "--domain", "box:1x1", "--cutoff", "50"]) == 0
    out = capsys.readouterr().out
    assert "domain = box:1.0x1.0" in out
    assert "distinct = 2" in out
    assert "total = 3" in out


def test_spectrum_csv(tmp_path, capsys):
    dest = tmp_path / "spec.csv"
    assert (
        main(["spectrum", "--domain", "box:1x1", "--cutoff", "50", "--csv", str(dest)])
        == 0
    )
    assert "wrote 2 rows" in capsys.readouterr().out
    lines = dest.read_text().splitlines()
    assert lines[0] == f"# berezin-lab v{TOOL_VERSION}"
    assert lines[1] == "eigenvalue,multiplicity,cumulative_count"
    assert len(lines) == 4
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(2.0 * math.pi**2, rel=1e-14)
    assert first[1] == "1"


def test_check_passes_on_square(capsys):
    rc = main(["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: PASS" in out
    assert "nu = 1.915908711" in out
    assert "(default-from-remainder-minimum)" in out
    assert "check s_le_sliced: pass" in out
    assert "check improved_le_classical: pass" in out


def test_check_fails_with_overweight_nu(capsys):
    rc = main(
        [
            "check",
            "--domain",
            "box:10x0.85",
            "--sigma",
            "1.5",
            "--lambda",
            str(4.0 * math.pi**2),
            "--nu",
            "2.1",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "VERDICT: FAIL" in out
    assert "(explicit)" in out
    assert "check sliced_le_improved: fail" in out


def test_check_axis_override_equivalent(capsys):
    rc = main(["check", "--domain", "box:2x1;axis=1", "--sigma", "1.5", "--lambda", "80"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(
        ["check", "--domain", "box:2x1", "--axis", "1", "--sigma", "1.5", "--lambda", "80"]
    )
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second
    assert "domain = box:2.0x1.0;axis=1" in first


def test_check_rejects_bad_nu_text(capsys):
    rc = main(
        ["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "50", "--nu", "wide"]
    )
    assert rc == 2
    capsys.readouterr()


def test_sweep_disk_csv(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    rc = main(
        [
            "sweep",
            "--domain",
            "disk:1",
            "--sigma",
            "1.5",
            "--lambda-max",
            "1e4",
            "--points",
            "100",
            "--csv",
            str(dest),
        ]
    )
    assert rc == 0
    lines = dest.read_text().splitlines()
    assert len(lines) == 102  # version comment + header + 100 rows
    assert "VERDICT: PASS" in capsys.readouterr().out


def test_csv_to_stdout(capsys):
    rc = main(
        ["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "50", "--csv", "-"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith(f"# berezin-lab v{TOOL_VERSION}\n")
    assert "lambda,n,riesz_mean" in out


def test_sums_cli(capsys):
    rc = main(
        ["sums", "--domain", "box:1x1", "--sigma", "2", "--n-max", "50", "--points", "10"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "VERDICT: PASS" in out
    assert "check li_yau" in out


def test_asymptotics_cli(capsys):
    rc = main(
        [
            "asymptotics",
            "--domain",
            "box:1x1",
            "--sigma",
            "1.5",
            "--lambda",
            "400",
            "--lambda-max",
            "40000",
            "--points",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "ratio_main_monotone_verdict: pass" in out
    rc = main(
        [
            "asymptotics",
            "--domain",
            "box:1x1",
            "--sigma",
            "1.5",
            "--lambda-max",
            "1000",
            "--points",
            "1",
        ]
    )
    assert rc == 2
    capsys.readouterr()


def test_numeric_failure_exit_code(capsys):
    rc = main(["spectrum", "--domain", "box:1x1", "--cutoff", "4e7"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "numeric failure" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--domain", "box:1e-200x1", "--sigma", "1.5", "--lambda-max", "100",
         "--points", "3"],
        ["check", "--domain", "box:1x1x1e-170", "--sigma", "1.5", "--lambda", "100"],
    ],
)
def test_thin_box_has_an_empty_spectrum(argv, capsys):
    # a side whose square underflows has weight inf: no eigenvalue, no crash,
    # and no warning from a section whose squared length underflows
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [str(w.message) for w in caught] == []
    out = capsys.readouterr().out
    assert "VERDICT: PASS" in out


def test_thin_box_sums_cannot_enumerate(capsys):
    assert main(["sums", "--domain", "box:1e-200x1", "--sigma", "2", "--n-max", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: could not enumerate 5 eigenvalues")


@pytest.mark.parametrize(
    "domain, lambda_max",
    [
        ("box:1x1", "1e13"),
        ("box:1x1", "1e300"),
        ("box:1x1x1", "1e13"),
        ("box:1x1x1", "1e300"),
        ("box:1e200x1", "1e4"),  # the long side's weight underflows to 0
    ],
)
def test_huge_box_enumeration_is_bounded_work(domain, lambda_max, capsys):
    argv = ["sweep", "--domain", domain, "--sigma", "1.5", "--lambda-max", lambda_max,
            "--points", "3"]
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert time.perf_counter() - start < 20.0
    # the limit is 2e6 entries: a few arrays of that many float64 values at most
    assert peak < 400 * 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "enumeration exceeded the limit of 2000000 entries" in captured.err


def test_long_box_lattice_sum_is_bounded_work(capsys):
    # 764,547 eigenvalues, well inside the limit, but a section of scaled
    # length 3e12: its lattice sum would ask for one float per index
    argv = ["sweep", "--domain", "box:1x3e12", "--sigma", "1.5",
            "--lambda-max", "9.869604401090", "--points", "3"]
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 400 * 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "numeric failure: lattice sum at scaled section length 3e+12 would exceed"
        " the limit of 2000000 lattice indices\n"
    )
