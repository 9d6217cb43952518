"""Golden-matrix regression: CLI tables against recorded CSVs.

Each case runs one CLI command and compares its CSV with the table in
tests/golden/ that an earlier version of the program wrote. Exit codes,
the comment line, the header, the integer and verdict columns, and the `n`
and `riesz_mean` columns must match byte for byte. Every other float must
lie within RTOL times the largest |value| in its row, which leaves room for
last-digit changes in how a bound is evaluated but not for a wrong formula.

To record the table of a new case, or to re-record a case on purpose (only
from a version whose numbers are trusted), name each case to write:

    PYTHONPATH=src python tests/test_golden.py tests/golden NAME...

Only the named tables are written; with no name the command writes nothing
and exits 2, so one re-record cannot silently rewrite the other tables.
"""

from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from berezin_lab.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-13
EXACT_COLUMNS = ("n", "n_index", "riesz_mean")
VERDICTS = ("pass", "fail", "n/a")

# name -> (argv without --csv, exit code)
CASES = {
    "sweep-box-3x1": (
        ["sweep", "--domain", "box:3x1", "--sigma", "1.5",
         "--lambda-max", "1e4", "--points", "80"],
        0,
    ),
    "sweep-union": (
        ["sweep", "--domain", "union:box(1x1)@(0,0)+box(2x0.5)@(1,0)",
         "--sigma", "2", "--lambda-max", "5e3", "--points", "60", "--nu", "1.0"],
        0,
    ),
    "sweep-disk-1": (
        ["sweep", "--domain", "disk:1", "--sigma", "1.5",
         "--lambda-max", "3e3", "--points", "50"],
        0,
    ),
    "sweep-disk-1.3": (
        ["sweep", "--domain", "disk:1.3", "--sigma", "2",
         "--lambda-max", "1.5e4", "--points", "40"],
        0,
    ),
    "sweep-box-1x2x0.5": (
        ["sweep", "--domain", "box:1x2x0.5", "--sigma", "1.5",
         "--lambda-max", "2e3", "--points", "50"],
        0,
    ),
    "sums-box-2x1": (
        ["sums", "--domain", "box:2x1", "--sigma", "2", "--n-max", "5000",
         "--points", "100", "--melas-m", "0.5"],
        0,
    ),
    "check-overweight-nu": (
        ["check", "--domain", "box:10x0.85", "--sigma", "1.5",
         "--lambda", "39.47841760435743", "--nu", "2.1"],
        1,
    ),
    "asymptotics-box-1x1": (
        ["asymptotics", "--domain", "box:1x1", "--sigma", "1.5",
         "--lambda-max", "4e4", "--points", "9"],
        0,
    ),
    "asymptotics-disk-1-sigma2": (
        ["asymptotics", "--domain", "disk:1", "--sigma", "2",
         "--lambda-max", "1e4", "--points", "20"],
        0,
    ),
}


def _run(argv: list[str], dest: Path) -> int:
    with redirect_stdout(io.StringIO()):
        return main([*argv, "--csv", str(dest)])


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _compare(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[:2] == want_lines[:2]  # comment line and header
    assert len(got_lines) == len(want_lines)
    header = want_lines[1].split(",")
    for i, (g_line, w_line) in enumerate(zip(got_lines[2:], want_lines[2:])):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells) == len(header)
        values = [abs(v) for v in map(_number, w_cells) if v is not None]
        scale = max((v for v in values if math.isfinite(v)), default=0.0)
        for col, g, w in zip(header, g_cells, w_cells):
            if col in EXACT_COLUMNS or w in VERDICTS or w == "" or g == "":
                assert g == w, f"row {i} column {col}: {g!r} != {w!r}"
                continue
            gv, wv = float(g), float(w)
            assert abs(gv - wv) <= RTOL * scale, (
                f"row {i} column {col}: {g} vs {w} (row scale {scale:.3g})"
            )


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_matrix(name, tmp_path):
    argv, code = CASES[name]
    dest = tmp_path / f"{name}.csv"
    assert _run(argv, dest) == code
    want = (GOLDEN_DIR / f"{name}.csv").read_text()
    _compare(dest.read_text(), want)


def record(out_dir: Path, names: list[str]) -> int:
    """Write the tables of the named cases into out_dir; exit status."""
    if not names or not set(names) <= CASES.keys():
        print(
            "usage: test_golden.py DIR NAME..., each NAME one of: "
            + ", ".join(sorted(CASES)),
            file=sys.stderr,
        )
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        argv, code = CASES[name]
        rc = _run(argv, out_dir / f"{name}.csv")
        print(f"{name}: exit {rc} (expected {code})")
    return 0


def test_record_writes_only_the_named_cases(tmp_path, capsys):
    assert record(tmp_path, []) == 2
    assert record(tmp_path, ["no-such-case"]) == 2
    assert list(tmp_path.iterdir()) == []
    assert record(tmp_path, ["check-overweight-nu"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["check-overweight-nu.csv"]
    want = (GOLDEN_DIR / "check-overweight-nu.csv").read_text()
    _compare((tmp_path / "check-overweight-nu.csv").read_text(), want)
    capsys.readouterr()


if __name__ == "__main__":
    out_dir, *names = sys.argv[1:] or ["."]
    sys.exit(record(Path(out_dir), names))
