"""Command line surface: domain grammar, subcommands, exit codes."""

import io
import math
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import berezin_lab
from berezin_lab import cli, harness
from berezin_lab.cli import main, parse_domain, render_domain
from berezin_lab.constants import lt_value
from berezin_lab.errors import DomainParseError
from berezin_lab.geometry import AxisBox, BoxUnion, Disk
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
    assert parse_domain(" disk:0.75 ") == Disk(0.75)
    # a disk's sections are the same in every direction: no axis to choose
    for text, position in (("disk:0.75;axis=1", 10), ("disk:1;axis=2", 7)):
        with pytest.raises(DomainParseError, match="a disk takes no axis") as e:
            parse_domain(text)
        assert e.value.position == position


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
    # an axis out of range is reported at its suffix, for boxes and unions
    for body, d in (("box:1x1", 2), ("union:box(1x1x1)@(0,0,0)", 3)):
        for axis in (0, d + 1):
            with pytest.raises(DomainParseError) as e:
                parse_domain(f"{body};axis={axis}")
            assert e.value.position == len(body) + 1
            assert str(e.value).startswith(
                f"slicing_axis must lie in [1, {d}], got {axis}"
            )


_SIDE = st.one_of(
    st.floats(min_value=1e-300, max_value=3e12),
    st.sampled_from([1e-300, 3e12, 5e-324, 1.7976931348623157e308]),
)
_COORD = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _boxes(draw, dim: int, origin: bool):
    sides = tuple(draw(st.lists(_SIDE, min_size=dim, max_size=dim)))
    at = tuple(draw(st.lists(_COORD, min_size=dim, max_size=dim))) if origin else None
    return AxisBox(sides, at)


@st.composite
def _text_domains(draw):
    """Boxes and unions (d = 2, 3) with an axis in range, and disks."""
    kind = draw(st.sampled_from(["box", "origin", "union", "disk"]))
    if kind == "disk":
        return Disk(draw(_SIDE))
    dim = draw(st.sampled_from([2, 3]))
    axis = draw(st.integers(1, dim))
    if kind != "union":
        box = draw(_boxes(dim, kind == "origin"))
        return AxisBox(box.sides, box.origin, slicing_axis=axis)
    # boxes placed side by side along the first axis have disjoint interiors
    boxes, start = [], draw(_COORD.filter(lambda v: abs(v) < 1e12))
    for box in draw(st.lists(_boxes(dim, True), min_size=1, max_size=3)):
        boxes.append(AxisBox(box.sides, (start,) + box.origin[1:]))
        start += 2.0 * box.sides[0]
        if not math.isfinite(start):
            break
    return BoxUnion(tuple(boxes), slicing_axis=axis)


@given(_text_domains())
@example(AxisBox((1.0, 1.0)))
@example(AxisBox((2.0, 0.5), slicing_axis=1))
@example(AxisBox((1.0, 2.0, 3.0)))
@example(AxisBox((1.0, 1.0), origin=(4.0, -1.0)))
@example(Disk(0.75))
@example(AxisBox((3e12, 1e-300), origin=(0.0, 1e16), slicing_axis=1))  # "1e+16"
@example(BoxUnion((AxisBox((1.0, 1.0)), AxisBox((2.0, 0.5), origin=(1.5, -1.0)))))
@example(
    BoxUnion(
        (AxisBox((1.0, 1.0)), AxisBox((1.0, 1.0), origin=(2.0, 0.0))), slicing_axis=1
    )
)
def test_round_trip_on_representable_domains(dom):
    text = render_domain(dom)
    back = parse_domain(text)
    if isinstance(dom, AxisBox) and any(o != 0.0 for o in dom.origin):
        # nonzero-origin boxes only exist as one-box unions in the grammar
        assert isinstance(back, BoxUnion)
        assert back.boxes == (AxisBox(dom.sides, dom.origin),)
        assert back.slicing_axis == dom.slicing_axis
    else:
        assert back == dom
    if isinstance(dom, Disk):
        with pytest.raises(DomainParseError, match="a disk takes no axis"):
            parse_domain(f"{text};axis={1 + len(text) % 2}")


def test_version_and_usage_exits(capsys):
    assert main(["--version"]) == 0
    assert "berezin-lab" in capsys.readouterr().out
    assert main(["constants", "--sigma", "1.5"]) == 2  # missing --dim
    assert main(["--no-such-flag"]) == 2
    assert main([]) == 2
    assert main(["check", "--domain", "box(1x1", "--sigma", "1.5", "--lambda", "5"]) == 2
    capsys.readouterr()


_VALID = {
    "constants": ["--sigma", "1.5", "--dim", "2"],
    "epsilon": ["--mu", "2"],
    "spectrum": ["--domain", "box:1x1", "--cutoff", "50"],
    "check": ["--domain", "box:1x1", "--sigma", "1.5", "--lambda", "50"],
    "sweep": ["--domain", "disk:1", "--sigma", "1.5", "--lambda-max", "50", "--points", "3"],
    "sums": ["--domain", "box:1x1", "--sigma", "2", "--n-max", "5"],
    "asymptotics": ["--domain", "box:1x1", "--sigma", "1.5", "--lambda-max", "500"],
}
_ARGV_MATRIX = (
    [[], ["--help"], ["-h"], ["--version"], ["bogus"], ["bogus", "--help"]]
    + [["--version", "sweep"], ["-h", "sweep"], ["--bogus", *["sweep", *_VALID["sweep"]]]]
    + [[name, "--help"] for name in _VALID]
    + [[name, *args, "--bogus"] for name, args in _VALID.items()]
    + [[name, *args] for name, args in _VALID.items()]
    + [
        ["sweep", "--domain", "disk:1", "--sigma", "1.5", "--points", "3"],
        ["constants", "--sigma", "1.5"],
        ["sweep", *_VALID["sweep"][:-1], "three"],
        ["check", *_VALID["check"], "--nu", "much"],
        ["epsilon", "--mu", "two"],
    ]
)


@pytest.mark.parametrize("argv", _ARGV_MATRIX, ids=" ".join)
def test_one_command_parser_answers_as_the_full_parser(argv, capsys, monkeypatch):
    # main builds only the parser of the command in first place; stdout,
    # stderr and exit code must be those of the parser with every command
    code = main(list(argv))
    got = capsys.readouterr()
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert (code, got.out, got.err) == (main(list(argv)), *capsys.readouterr())
    if argv[-1:] == ["--bogus"]:
        # the usage argparse prints still names every command
        assert "{constants,epsilon,spectrum,check,sweep,sums,asymptotics}" in got.err


def _run_python(*args):
    src = str(Path(berezin_lab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


def test_package_import_leaves_out_the_command_line():
    # the grammar lives in geometry, so a library user pays for no argparse
    assert berezin_lab.parse_domain is berezin_lab.cli.parse_domain
    assert berezin_lab.render_domain is berezin_lab.cli.render_domain
    proc = _run_python(
        "-c",
        "import sys, berezin_lab; "
        "print([m for m in ('berezin_lab.cli', 'argparse') if m in sys.modules])",
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_module_entry_point_runs_without_warnings():
    proc = _run_python("-W", "error", "-m", "berezin_lab", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"berezin-lab {TOOL_VERSION}"
    assert proc.stderr == ""


def test_reports_do_not_import_numpy_ma(tmp_path):
    # Modules no command needs, each a cost every process would pay: numpy.ma
    # (np.unique imports it on first use, about 12 ms), numpy.polynomial (a
    # quadrature table that is a literal instead), numpy.typing (read only in
    # annotations) and dataclasses (code generated per class). A fresh
    # process shows whether any was loaded. Each command writes its CSV, so
    # the writer runs under the guard too.
    script = """
import contextlib, io, sys
from berezin_lab.cli import main
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["sweep", "--domain", "disk:1", "--sigma", "1.5",
              "--lambda-max", "2e3", "--points", "20", "--csv", out + "/disk.csv"]),
        main(["sweep", "--domain", "box:2x1", "--sigma", "1.5",
              "--lambda-max", "1e4", "--points", "20", "--csv", out + "/box.csv"]),
        main(["sums", "--domain", "box:2x1", "--sigma", "2",
              "--n-max", "500", "--points", "30", "--csv", out + "/sums.csv"]),
    ]
unused = ("numpy.ma", "numpy.polynomial", "numpy.typing", "dataclasses")
print(codes, [m for m in unused if m in sys.modules])
"""
    proc = _run_python("-c", script, str(tmp_path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[0, 0, 0] []\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["box.csv", "disk.csv", "sums.csv"]


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
    assert list(lines) == [
        "sigma", "dim", "lt_classical", "lt_lower_dim", "counting_constant", "c_const",
    ]


def test_constants_lt_classical_is_lt_value(capsys):
    for sigma, dim in ((1.5, 2), (0.0, 3), (7.25, 5)):
        assert main(["constants", "--sigma", str(sigma), "--dim", str(dim)]) == 0
        out = capsys.readouterr().out
        assert f"lt_classical = {lt_value(sigma, dim):.17g}\n" in out


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
        # the slicing axis is spelled only in the domain text, as ;axis=N
        ["spectrum", "--domain", "box:2x1", "--axis", "1", "--cutoff", "50"],
        ["check", "--domain", "box:2x1", "--axis", "1", "--sigma", "1.5",
         "--lambda", "80"],
        ["sweep", "--domain", "box:2x1", "--axis", "1", "--sigma", "1.5",
         "--lambda-max", "50", "--points", "3"],
        ["sums", "--domain", "box:2x1", "--axis", "1", "--sigma", "2", "--n-max", "5"],
        ["asymptotics", "--domain", "box:2x1", "--axis", "1", "--sigma", "1.5",
         "--lambda-max", "1e3", "--points", "3"],
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


@pytest.mark.parametrize(
    "domain, cutoff",
    [
        ("box:2x1", "300"),
        ("disk:1", "400"),
        ("union:box(1x1)@(0,0)+box(2x1)@(1,0)", "200"),
        ("box:1x1", "10"),
    ],
    ids=["box", "disk", "union", "empty"],
)
def test_spectrum_listing_is_the_csv_body_with_spaces(domain, cutoff, capsys):
    argv = ["spectrum", "--domain", domain, "--cutoff", cutoff]
    assert main(argv) == 0
    listing = capsys.readouterr().out
    assert main([*argv, "--csv", "-"]) == 0
    csv = capsys.readouterr().out
    assert csv.startswith(f"# berezin-lab v{TOOL_VERSION}\n")
    head = listing.index("eigenvalue multiplicity cumulative_count")
    assert listing[head:] == csv.split("\n", 1)[1].replace(",", " ")
    rows = listing[head:].count("\n") - 1
    assert f"distinct = {rows}\n" in listing[:head]
    assert (rows == 0) == (cutoff == "10")


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


def test_check_axis_is_spelled_in_the_domain(capsys):
    rc = main(["check", "--domain", "box:2x1;axis=1", "--sigma", "1.5", "--lambda", "80"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "domain = box:2.0x1.0;axis=1" in out
    rc = main(["check", "--domain", "disk:1;axis=1", "--sigma", "1.5", "--lambda", "80"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == (
        "usage error: a disk takes no axis: its sections are the same in every"
        " direction (at position 7)\n"
    )


_REPORT_ARGV = {
    "check": ["check", "--domain", "box:10x0.85", "--sigma", "1.5",
              "--lambda", "39.47841760435743", "--nu", "2.1"],
    "sweep": ["sweep", "--domain", "box:1x1", "--sigma", "1.5",
              "--lambda-max", "1e3", "--points", "5"],
    "sums": ["sums", "--domain", "box:1x1", "--sigma", "2", "--n-max", "50"],
    "asymptotics": ["asymptotics", "--domain", "box:1x1", "--sigma", "1.5",
                    "--lambda-max", "1e4", "--points", "3"],
}


@pytest.mark.parametrize("slack", ["inf", "nan", "0", "-1", "1e-9"])
@pytest.mark.parametrize("command", sorted(_REPORT_ARGV))
def test_unusable_slack_is_a_usage_error(command, slack, capsys):
    # the verdict slack is fixed at 1e-9: no value of the flag is accepted,
    # not even the fixed one
    assert main(_REPORT_ARGV[command] + ["--slack", slack]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: --slack {slack}" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["epsilon", "--mu", "1e308"],
        ["constants", "--sigma", "1e300", "--dim", "2"],
        ["sums", "--domain", "box:1x1", "--sigma", "1e300", "--n-max", "10"],
        # lt_value(200, 1000) underflows to 0
        ["constants", "--sigma", "200", "--dim", "1000"],
    ],
)
def test_overflow_is_a_numeric_failure(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # unchecked, c_const would raise 0.0 to a negative power
        (["constants", "--sigma", "1.5", "--dim", "300"],
         "lt_value at sigma=1.5, d=300 underflows to 0"),
        (["constants", "--sigma", "0", "--dim", "1500"],
         "lt_value at sigma=0.0, d=1500 underflows to 0"),
        # the remainder minimum's tail constant overflows before any lt_value
        (["check", "--domain", "box:1x1", "--sigma", "1e308", "--lambda", "100"],
         "f_mu minimum for mu=1e+308 has no tail bound (log C_mu overflows)"),
        # lt_value, not the s_classical column it feeds, is what overflows
        (["check", "--domain", "box:1", "--sigma", "1e308", "--lambda", "100"],
         "lt_value at sigma=1e+308, d=1 overflows"),
        # lt_value's log-Gammas cancel: 4 units of 2^-53 of their size
        # exceed 1e-11 before c_const is reached
        (["constants", "--sigma", "1e300", "--dim", "2"],
         "lt_value at sigma=1e+300, d=2 cancels: log-Gamma terms of size 1.38e+303"
         " leave a relative error bound of 6.1e+287, above 1e-11"),
        (["constants", "--sigma", "1e16", "--dim", "2"],
         "lt_value at sigma=1e+16, d=2 cancels: log-Gamma terms of size 7.17e+17"
         " leave a relative error bound of 3.2e+02, above 1e-11"),
        # an explicit --nu skips epsilon_mu; nu_nonneg_cap's log-Gamma overflows
        (["check", "--domain", "box:1x1", "--sigma", "1e308", "--lambda", "100",
          "--nu", "1"],
         "beta at a=1e+308, b=0.5 overflows"),
        # c_const's float power L_{0,d}^(-2 sigma / d) overflows
        (["constants", "--sigma", "300", "--dim", "2"],
         "c_const at sigma=300.0, d=2 overflows"),
        # nu_nonneg_cap's Beta cancels
        (["check", "--domain", "box:1x1", "--sigma", "1e12", "--lambda", "100",
          "--nu", "1"],
         "beta at a=1000000000001.5, b=0.5 cancels: log-Gamma terms of size 5.33e+13"
         " leave a relative error bound of 0.024, above 1e-11"),
        # the Weyl start of the sums cutoff search overflows a float power
        (["sums", "--domain", "box:1e-300", "--sigma", "2", "--n-max", "5"],
         "start cutoff of AxisBox(sides=(1e-300,), origin=(0.0,), slicing_axis=1) is inf,"
         " not a positive finite float"),
        (["sums", "--domain", "box:1e-250", "--sigma", "2", "--n-max", "5"],
         "start cutoff of AxisBox(sides=(1e-250,), origin=(0.0,), slicing_axis=1) is inf,"
         " not a positive finite float"),
    ],
)
def test_a_constant_outside_the_floats_is_named(argv, message, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"numeric failure: {message}\n")


@pytest.mark.parametrize("sigma", ["150", "200"])
def test_sums_overflow_names_the_column_without_a_warning(sigma, capsys):
    argv = ["sums", "--domain", "box:1x1", "--sigma", sigma, "--n-max", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"numeric failure: s_classical_sigma overflows a float at sigma = {sigma}\n"
    )


_THIN_LONG = "box:1e300x1e-300"  # surface 2e300, so its boundary term overflows


@pytest.mark.parametrize(
    "argv, column",
    [
        (["check", "--domain", "box:1x1", "--sigma", "400", "--lambda", "100"],
         "s_classical"),
        (["sweep", "--domain", "box:1x1", "--sigma", "400", "--lambda-max", "100",
          "--points", "5"], "s_classical"),
        (["asymptotics", "--domain", "box:1x1", "--sigma", "400", "--lambda-max",
          "1e4"], "s_classical"),
        (["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "10",
          "--nu", "1e308"], "improved_rhs"),
        (["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "10",
          "--nu=-1e308"], "improved_rhs"),
        (["check", "--domain", _THIN_LONG, "--sigma", "1.5", "--lambda", "1e10"],
         "two_term_riesz"),
        (["asymptotics", "--domain", _THIN_LONG, "--sigma", "1.5", "--lambda", "1e9",
          "--lambda-max", "1e10", "--points", "2"], "boundary_term"),
    ],
    ids=["check", "sweep", "asymptotics", "huge-nu", "huge-negative-nu",
         "thin-long-check", "thin-long-asymptotics"],
)
def test_riesz_overflow_names_the_column_without_a_warning(argv, column, capsys):
    # an overflowing column is named, never an inf in a verdict or a ratio
    sigma = argv[argv.index("--sigma") + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"numeric failure: {column} overflows a float at sigma = {sigma}\n"
    )


_TINY_UNION = "union:box(1e-300x1e-300)@(0,0)+box(1e-300x1e-300)@(1,0)"


@pytest.mark.parametrize(
    "domain, vol",
    [("box:1e-300x1e-300", "0.0"), (_TINY_UNION, "0.0"), ("box:1e200x1e200", "inf")],
    ids=["tiny-box", "tiny-union", "huge-box"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["check", "--sigma", "1.5", "--lambda", "100"],
        ["sweep", "--sigma", "1.5", "--lambda-max", "100", "--points", "5"],
        ["sums", "--sigma", "1", "--n-max", "3", "--melas-m", "0.5"],
        ["asymptotics", "--sigma", "1.5", "--lambda-max", "1e3"],
    ],
    ids=["check", "sweep", "sums", "asymptotics"],
)
def test_volume_outside_the_floats_names_the_volume(command, domain, vol, capsys):
    # a valid domain whose volume underflows to 0 or overflows: exit 3, one line
    assert main([command[0], "--domain", domain, *command[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        rf"numeric failure: volume of .* is {vol}, not a positive finite float\n",
        captured.err,
    )


_CROSS_OVERFLOW = ("box:1e-250x1e200x1e200;axis=1", "box:1e200x1e200x1e-300")


@pytest.mark.parametrize(
    "argv, what",
    [
        *[
            ([command, "--domain", domain, "--sigma", "1.5", *grid], "cross weight")
            for domain in _CROSS_OVERFLOW
            for command, grid in [
                ("check", ["--lambda", "100"]),
                ("sweep", ["--lambda-max", "100", "--points", "5"]),
            ]
        ],
        (["asymptotics", "--domain", "box:1e-250x1e200x1e200", "--sigma", "1.5",
          "--lambda-max", "1e3"], "surface"),
    ],
    ids=["check-axis1", "sweep-axis1", "check-thin", "sweep-thin", "asymptotics-surface"],
)
def test_geometry_outside_the_floats_names_the_quantity(argv, what, capsys):
    # the volume is a normal float; a cross area or the surface overflows
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        rf"numeric failure: {what} of AxisBox\(.*\) is inf, not a positive finite float\n",
        captured.err,
    )


@pytest.mark.parametrize(
    "argv, flag, cap",
    [
        (["sums", "--domain", "box:2x1", "--sigma", "2", "--n-max", "1000000000"],
         "--n-max", 2000000),
        (["sums", "--domain", "box:2x1", "--sigma", "2", "--n-max", "2000001"],
         "--n-max", 2000000),
        (["sums", "--domain", "disk:1", "--sigma", "2", "--n-max", "4000001"],
         "--n-max", 4000000),
        (["sums", "--domain", "box:2x1", "--sigma", "2", "--n-max", "50",
          "--points", "1000000000"], "--points", 2000000),
        (["sweep", "--domain", "box:2x1", "--sigma", "1.5", "--lambda-max", "1e3",
          "--points", "1000000000"], "--points", 2000000),
        (["asymptotics", "--domain", "box:2x1", "--sigma", "1.5",
          "--lambda-max", "1e3", "--points", "1000000000"], "--points", 2000000),
    ],
)
def test_grid_beyond_the_enumeration_limit_is_never_built(argv, flag, cap, capsys):
    tracemalloc.start()
    try:
        rc = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 64 * 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    size = argv[argv.index(flag) + 1]
    assert captured.err == (
        f"numeric failure: {flag} {size} exceeds {cap}, the most that the"
        " enumeration limit of 2000000 entries allows\n"
    )


_BOX = ["--domain", "box:1x1", "--sigma", "1.5"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", *_BOX, "--lambda-max", "inf", "--points", "5"], "--lambda-max"),
        (["sweep", *_BOX, "--lambda-max", "-4", "--points", "5"], "--lambda-max"),
        (["sweep", *_BOX, "--lambda-max", "0", "--points", "5"], "--lambda-max"),
        (["sweep", *_BOX, "--lambda-max", "nan", "--points", "5"], "--lambda-max"),
        (["asymptotics", *_BOX, "--lambda", "-1", "--lambda-max", "1e3"], "--lambda"),
        (["asymptotics", *_BOX, "--lambda", "0", "--lambda-max", "1e3"], "--lambda"),
        (["asymptotics", *_BOX, "--lambda-max", "inf"], "--lambda-max"),
        (["check", *_BOX, "--lambda", "nan"], "--lambda"),
        (["check", *_BOX, "--lambda", "-1"], "--lambda"),
    ],
)
def test_grid_endpoints_are_checked_before_numpy(argv, flag, capsys):
    # numpy would warn on these endpoints (log10 of a negative, inf * 0), or
    # fail with its own message; the suite turns any warning into an error
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    value = float(argv[argv.index(flag) + 1])
    assert captured.err == (
        f"usage error: {flag} must be positive and finite, got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv, relation, start",
    [
        # asymptotics starts at --lambda 100 by default
        (["asymptotics", *_BOX, "--lambda-max", "50"], ">", 100.0),
        (["sweep", *_BOX, "--lambda-max", "0.5", "--points", "2"], ">", 1.0),
        (["sweep", *_BOX, "--lambda-max", "1", "--points", "2"], ">", 1.0),
        (["asymptotics", *_BOX, "--lambda", "200", "--lambda-max", "100",
          "--points", "2"], ">", 200.0),
        (["asymptotics", *_BOX, "--lambda", "200", "--lambda-max", "200"], ">", 200.0),
    ],
)
def test_grid_end_below_its_start_names_the_flag(argv, relation, start, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    value = float(argv[argv.index("--lambda-max") + 1])
    assert captured.err == (
        f"usage error: --lambda-max must be {relation} the grid start {start!r},"
        f" got {value!r}\n"
    )


def test_one_point_grid_may_end_at_its_start(capsys):
    # the one point of a one-point sweep is --lambda-max, above 1.0 or below
    for lambda_max in ("1", "0.5", "1e4"):
        argv = ["sweep", *_BOX, "--lambda-max", lambda_max, "--points", "1", "--csv", "-"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[2].startswith(f"{float(lambda_max):.17g},")
        assert f"lambda_max: {float(lambda_max)!r}" in out


_ENDPOINT = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-320", "1e300"]),
    st.floats(min_value=0.5, max_value=500.0).map(repr),
)
_SIZE = st.one_of(st.integers(-2, 40), st.just(2_000_001))
# an explicit --nu or --melas-m
_CONSTANT = st.one_of(
    st.sampled_from(["nan", "inf", "-inf"]),
    st.floats(min_value=-1.0, max_value=3.0).map(repr),
)


@st.composite
def _grid_argv(draw):
    command = draw(st.sampled_from(["check", "sweep", "sums", "asymptotics"]))
    domain = draw(st.sampled_from(["box:1x1", "disk:0.5"]))
    argv = [command, "--domain", domain, "--sigma", "1.5"]
    # "=" keeps a value such as -inf from reading as a flag
    if command == "check":
        argv.append(f"--lambda={draw(_ENDPOINT)}")
    elif command == "sums":
        # one past the --n-max cap (a disk entry may hold two eigenvalues);
        # 2,000,001 disk eigenvalues are within it and take minutes
        over = 4_000_001 if domain.startswith("disk") else 2_000_001
        argv.append(f"--n-max={draw(st.one_of(st.integers(-2, 40), st.just(over)))}")
        points = draw(st.none() | _SIZE)
        argv += [] if points is None else [f"--points={points}"]
    else:
        if command == "asymptotics" and draw(st.booleans()):
            argv.append(f"--lambda={draw(_ENDPOINT)}")
        argv += [f"--lambda-max={draw(_ENDPOINT)}", f"--points={draw(_SIZE)}"]
    flag = {"check": "--nu", "sweep": "--nu", "sums": "--melas-m"}.get(command)
    if flag is not None and draw(st.booleans()):
        argv.append(f"{flag}={draw(_CONSTANT)}")
    return argv


def _flag_value(argv, flag):
    """The value of `flag=value` in argv, or None."""
    return next((a.split("=", 1)[1] for a in argv if a.startswith(f"{flag}=")), None)


@settings(max_examples=150, deadline=None)
@given(argv=_grid_argv())
@example(argv=["sweep", *_BOX, "--lambda-max=inf", "--points=5"])
@example(argv=["check", "--domain", "disk:0.5", "--sigma", "1.5", "--lambda=1e-320"])
@example(argv=["check", *_BOX, "--lambda=1e-320"])
@example(argv=["sums", "--domain", "disk:0.5", "--sigma", "1.5", "--n-max=4000001"])
@example(argv=["asymptotics", *_BOX, "--lambda=1e-320", "--lambda-max=150", "--points=5"])
@example(argv=["check", *_BOX, "--lambda=100", "--nu=inf"])
@example(argv=["sweep", *_BOX, "--lambda-max=100", "--points=5", "--nu=nan"])
@example(argv=["sums", *_BOX, "--n-max=10", "--melas-m=nan"])
@example(argv=["sweep", *_BOX, "--lambda-max=100", "--points=-1"])
@example(argv=["asymptotics", *_BOX, "--lambda-max=1e3", "--points=1"])
def test_grid_flags_end_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    assert time.perf_counter() - start < 5.0
    assert [str(w.message) for w in caught] == []
    assert rc in (0, 1, 2, 3)
    if rc in (2, 3):
        prefix = "usage error: " if rc == 2 else "numeric failure: "
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
    # a grid size below the least the command takes is named before any other flag
    points, least = _flag_value(argv, "--points"), 2 if argv[0] == "asymptotics" else 1
    if points is not None and int(points) < least:
        assert rc == 2
        assert err.getvalue() == f"usage error: --points must be >= {least}, got {points}\n"
    # a non-finite --nu or --melas-m never reaches a verdict; when no grid flag
    # is rejected first, the message names the constant and its value
    for flag in ("--nu", "--melas-m"):
        value = _flag_value(argv, flag)
        if value is not None and not math.isfinite(float(value)):
            assert rc in (2, 3)
            if rc == 2 and not err.getvalue().startswith("usage error: --"):
                name = flag[2:].replace("-", "_")
                assert err.getvalue() == (
                    f"usage error: {name} must be finite, got {float(value)!r}\n"
                )


# Sides and radii, log-uniform: moderate ones reach a verdict in milliseconds
# at the cutoffs below, thin ones have no eigenvalue there, huge ones pass the
# enumeration limit; then the ends of the floats and malformed numbers.
_MODERATE = st.floats(-2.0, 1.0).map(lambda e: repr(10.0**e))
_LENGTH = st.one_of(
    _MODERATE,
    _MODERATE,
    _MODERATE,
    st.floats(-300.0, -20.0).map(lambda e: repr(10.0**e)),
    st.floats(20.0, 300.0).map(lambda e: repr(10.0**e)),
    st.sampled_from(["5e-324", "1.7976931348623157e308", "1e400", "0", "-1", "nan", "x", ""]),
)


@st.composite
def _union_text(draw, dim):
    """Boxes placed along the first axis, each apart from, touching or
    overlapping the one before, or at an origin of any finite coordinates."""
    parts, at = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        first = 10.0 ** draw(st.floats(-2.0, 1.0))
        sides = [repr(first), *draw(st.lists(_LENGTH, min_size=dim - 1, max_size=dim - 1))]
        if draw(st.booleans()):
            origin = [repr(at)] + ["0"] * (dim - 1)
            at += first + draw(st.sampled_from([0.5, 0.0, -0.25]))
        else:
            origin = [repr(draw(st.floats(allow_nan=False, allow_infinity=False)))] * dim
        parts.append(f"box({'x'.join(sides)})@({','.join(origin)})")
    return "union:" + "+".join(parts)


@st.composite
def _domain_text(draw):
    """Domain texts of both families, valid or not, with an optional axis."""
    kind = draw(st.sampled_from(["box", "union", "disk", "broken"]))
    dim = draw(st.sampled_from([1, 2, 3]))
    if kind == "box":
        text = "box:" + "x".join(draw(st.lists(_LENGTH, min_size=dim, max_size=dim)))
    elif kind == "union":
        text = draw(_union_text(dim))
    elif kind == "disk":
        text = f"disk:{draw(_LENGTH)}"
    else:
        # a valid text cut short or with a character put in, or any text
        base = draw(st.sampled_from(["box:1x2", "disk:0.5", "union:box(1x1)@(0,0)+box(1x1)@(1,0)"]))
        k = draw(st.integers(0, len(base)))
        put_in = st.sampled_from("x+@(),:;=.e-").map(lambda c: base[:k] + c + base[k:])
        text = draw(st.one_of(st.just(base[:k]), put_in, st.text(max_size=12)))
    if draw(st.booleans()):
        axis = draw(st.sampled_from(["1", "2", "3", "1", "2", "3", "0", "4", "", "x", "1.5", "-1"]))
        text += draw(st.sampled_from([f";axis={axis}", f"; axis={axis} ", f";ax={axis}"]))
    return text


@st.composite
def _domain_argv(draw):
    command = draw(st.sampled_from(["spectrum", "check", "sweep", "sums", "asymptotics"]))
    # "=" keeps a text such as -1 from reading as a flag
    argv = [command, f"--domain={draw(_domain_text())}"]
    energy = st.floats(0.5, 300.0).map(repr)
    if command == "spectrum":
        return argv + [f"--cutoff={draw(energy)}"]
    argv.append(f"--sigma={draw(st.sampled_from(['1', '1.5', '2', '3']))}")
    if command == "check":
        argv.append(f"--lambda={draw(energy)}")
    elif command == "sweep":
        argv += [f"--lambda-max={draw(energy)}", f"--points={draw(st.integers(1, 8))}"]
    elif command == "sums":
        argv.append(f"--n-max={draw(st.integers(1, 60))}")
    else:
        # a grid start below 50 or the default 100, and an end mostly above it
        if draw(st.booleans()):
            argv.append(f"--lambda={draw(st.floats(0.5, 50.0))!r}")
        argv.append(f"--lambda-max={draw(st.floats(50.0, 300.0))!r}")
        argv.append(f"--points={draw(st.integers(2, 8))}")
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=_domain_argv())
@example(argv=["sweep", "--domain=box:1e-300x1", "--sigma=2", "--lambda-max=100", "--points=3"])
@example(argv=["sums", "--domain=box:1e-300x1", "--sigma=2", "--n-max=20"])
@example(argv=["sums", "--domain=box:1e-30x1e30", "--sigma=2", "--n-max=20"])
@example(argv=["spectrum", "--domain=disk:1e30", "--cutoff=100"])
@example(argv=["check", "--domain=disk:1e-160", "--sigma=2", "--lambda=100"])
@example(argv=["sums", "--domain=disk:1e-160", "--sigma=2", "--n-max=5"])
@example(
    argv=["asymptotics", "--domain=union:box(1x1)@(0,0)+box(1x1)@(1,0)", "--sigma=2",
          "--lambda-max=300", "--points=3"]
)
@example(argv=["check", "--domain=union:box(1x1)@(0,0)+box(1x1)@(0.5,0)", "--sigma=2",
               "--lambda=100"])
@example(argv=["sweep", "--domain=box:1x1x1;axis=3", "--sigma=1", "--lambda-max=300",
               "--points=4"])
@example(argv=["check", "--domain=union:box(0.1x1e-20x1.7976931348623157e308)@(0.0,0,0)"
               "+box(1.0x1.0x1.0)@(0.6,0,0)", "--sigma=1.5", "--lambda=10.0"])
def test_domain_texts_end_in_an_exit_code(argv):
    text = argv[1].split("=", 1)[1]
    try:
        dom = parse_domain(text)
    except DomainParseError:
        dom = None
    else:
        assert parse_domain(render_domain(dom)) == dom
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    assert [str(w.message) for w in caught] == []
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc in (2, 3):
        prefix = "usage error: " if rc == 2 else "numeric failure: "
        assert err.getvalue().startswith(prefix)
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""
    if dom is None:
        assert rc == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--domain", "box:1x1", "--sigma", "1.5", "--lambda", "50"],
        ["sweep", "--domain", "disk:1", "--sigma", "1.5", "--lambda-max", "2e3", "--points", "40"],
        ["sums", "--domain", "box:2x1", "--sigma", "2", "--n-max", "3000"],
        ["asymptotics", "--domain", "box:1x1", "--sigma", "2", "--lambda-max", "1e4",
         "--points", "30"],
        ["sweep", "--domain", "disk:1", "--sigma", "1.5", "--nu", "5", "--lambda-max",
         "2e3", "--points", "40"],
    ],
)
def test_csv_stream_gets_the_file_bytes(argv, tmp_path, capsys):
    # --csv - writes the file's bytes to stdout, and the summary follows them
    dest = tmp_path / "out.csv"
    rc = main([*argv, "--csv", str(dest)])
    after_file = capsys.readouterr().out
    assert rc == (1 if "--nu" in argv else 0)  # only the overweight nu fails
    assert main([*argv, "--csv", "-"]) == rc
    table = dest.read_bytes().decode()
    assert table.count("\n") > 2 and "\r" not in table
    assert capsys.readouterr().out == table + after_file
    # a failing report's summary names its worst row, decoded from its bytes
    assert ("\n  worst row [" in after_file) == (rc == 1)


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
    assert "ratio_main_monotone_verdict: n/a" in out  # sigma < 2
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
    # pi^2 sum a_i^-2 overflows for every box, so no cutoff holds an
    # eigenvalue: the error comes before the cutoff search, not at 1.8e308
    cases = [
        ("box:1e-200x1", "2", "5"),
        ("box:1e-160x1", "1", "3"),
        ("union:box(1e-200x1)@(0,0)+box(1x1e-170)@(2,0)", "1", "3"),
    ]
    for domain, sigma, n_max in cases:
        with mock.patch.object(
            harness, "enumerate_spectrum", wraps=harness.enumerate_spectrum
        ) as enumerate_spectrum:
            argv = ["sums", "--domain", domain, "--sigma", sigma, "--n-max", n_max]
            assert main(argv) == 3
        assert enumerate_spectrum.call_count <= 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"numeric failure: could not enumerate {n_max} eigenvalues"
        )


def test_long_interval_sums_start_cutoff_underflows(capsys):
    # the eigenvalues of a 1e200-long interval underflow: a numeric failure,
    # not a bad request
    assert main(["sums", "--domain", "box:1e200", "--sigma", "2", "--n-max", "3"]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: start cutoff of AxisBox")


_SQUARES = "union:" + "+".join(f"box(1x1)@({2 * i},0)" for i in range(200))


@pytest.mark.parametrize(
    "domain, expected",
    [
        # lambda_1 is far above the small-area Weyl start: the cutoff grows to it
        ("box:1000x1", [math.pi**2 * (j * j / 1e6 + 1.0) for j in (1, 2, 3)]),
        (_SQUARES, [2.0 * math.pi**2] * 3),
        # only cutoffs within 4% of lambda_1 stay below the enumeration limit
        ("box:1e7x1", [math.pi**2 * (j * j / 1e14 + 1.0) for j in (1, 2, 3)]),
    ],
    ids=["box-1000x1", "200-unit-squares", "box-1e7x1"],
)
def test_sums_start_cutoff_grows_to_the_first_eigenvalues(domain, expected, tmp_path, capsys):
    csv = tmp_path / "sums.csv"
    argv = ["sums", "--domain", domain, "--sigma", "1", "--n-max", "3", "--csv", str(csv)]
    assert main(argv) == 0
    capsys.readouterr()
    header, *rows = csv.read_text().splitlines()[1:]
    col = header.split(",").index("lambda_n")
    assert [float(r.split(",")[col]) for r in rows] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("unit, dilated", [("disk:1", "disk:1e6"), ("box:1x1", "box:1e6x1e6")])
def test_sums_start_cutoff_scales_with_the_domain(unit, dilated, tmp_path, capsys):
    # the start cutoff scales like an eigenvalue, so a dilation by 1e6 asks
    # for the same few eigenvalues, divided by 1e12
    lambdas = []
    for domain in (unit, dilated):
        csv = tmp_path / "sums.csv"
        argv = ["sums", "--domain", domain, "--sigma", "1", "--n-max", "3", "--csv", str(csv)]
        assert main(argv) == 0
        header, *rows = csv.read_text().splitlines()[1:]
        col = header.split(",").index("lambda_n")
        lambdas.append([float(r.split(",")[col]) for r in rows])
    capsys.readouterr()
    assert len(lambdas[1]) == 3
    assert lambdas[1] == pytest.approx([v / 1e12 for v in lambdas[0]], rel=1e-12, abs=0.0)


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


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # the README's command lines are the CLI's documentation; each must run as
    # written, so an example cannot outlive a flag it uses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S)
    assert block is not None
    lines = block.group(1).splitlines()
    assert len(lines) == 7 and all(line.startswith("berezin-lab ") for line in lines)
    monkeypatch.chdir(tmp_path)  # one line writes out.csv
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
