"""Golden-matrix regression: CLI tables against recorded CSVs.

Each case runs one CLI command and compares its exit code, its CSV byte for
byte with the table in tests/golden/ that an earlier version of the program
wrote (a failure names the first row and column that differ), and its
standard output byte for byte with the NAME.out beside that table.

A deliberate change to the numbers re-records the tables it moves, and their
outputs, by name, from a version whose numbers are trusted:

    PYTHONPATH=src python tests/test_golden.py tests/golden NAME...

Before it replaces a table, the command compares the new table with the
committed one and prints, per column that changed, the rows moved and the
largest relative change, or "unchanged". Only the named tables are written;
with no name the command writes nothing and exits 2, so one re-record
cannot silently rewrite the other tables.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import mpmath
import pytest

from berezin_lab.cli import main
from oracles import box_riesz_twin

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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


def _run(argv: list[str], dest: Path) -> tuple[int, str]:
    """Exit code and standard output of the command, its CSV written to dest."""
    with redirect_stdout(io.StringIO()) as out:
        code = main([*argv, "--csv", str(dest)])
    return code, out.getvalue()


def _moved(new: str, old: str) -> list[tuple[int, str, str, str]]:
    """(row, column, new cell, old cell) of each cell that differs, row by
    row; the comment line, the header and the row count must agree."""
    new_lines, old_lines = new.splitlines(), old.splitlines()
    assert new_lines[:2] == old_lines[:2], "the comment line or the header differs"
    assert len(new_lines) == len(old_lines), f"{len(new_lines) - 2} rows, not {len(old_lines) - 2}"
    header = old_lines[1].split(",")
    return [
        (i, col, n, o)
        for i, (n_line, o_line) in enumerate(zip(new_lines[2:], old_lines[2:]))
        for col, n, o in zip(header, n_line.split(","), o_line.split(","), strict=True)
        if n != o
    ]


def _compare(got: str, want: str) -> None:
    moved = _moved(got, want)
    assert not moved, "row {} column {}: {!r} != {!r}".format(*moved[0])
    assert got == want


def _relative_change(new: str, old: str) -> float:
    try:
        return abs(float(new) - float(old)) / abs(float(old))
    except (ValueError, ZeroDivisionError):  # a verdict, an empty cell or a zero
        return math.inf


def _column_diff(new: str, old: str) -> list[str]:
    """Per column that changed, its rows moved and largest relative change."""
    changes: dict[str, list[float]] = {}
    for _, col, n, o in _moved(new, old):
        changes.setdefault(col, []).append(_relative_change(n, o))
    return [
        f"{col}: rows moved {len(changes[col])}, largest relative change"
        f" {max(changes[col]):.2g}"
        for col in old.splitlines()[1].split(",")
        if col in changes
    ] or ["unchanged"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_matrix(name, tmp_path):
    argv, code = CASES[name]
    dest = tmp_path / f"{name}.csv"
    got_code, out = _run(argv, dest)
    assert got_code == code
    want = (GOLDEN_DIR / f"{name}.csv").read_text()
    _compare(dest.read_text(), want)
    assert out == (GOLDEN_DIR / f"{name}.out").read_text()


# Relative distance from the 40-digit twin allowed a box or union table's
# riesz_mean and s_classical, about 30 times the worst seen (2.7e-15).
TWIN_RTOL = 1e-13


@pytest.mark.parametrize(
    "name", ["sweep-box-3x1", "sweep-box-1x2x0.5", "sweep-union", "asymptotics-box-1x1"]
)
def test_golden_box_rows_match_a_40_digit_twin(name):
    # every row of the committed table against box_riesz_twin, which computes
    # from the exact integer lattice and shares no code with the program
    argv, _ = CASES[name]
    domain, sigma = argv[argv.index("--domain") + 1], argv[argv.index("--sigma") + 1]
    boxes = [tuple(sides.split("x")) for sides in re.findall(r"box[:(]([\d.x]+)", domain)]
    rows = list(csv.DictReader((GOLDEN_DIR / f"{name}.csv").read_text().splitlines()[1:]))
    twin = dict(zip(
        ("riesz_mean", "s_classical"),
        box_riesz_twin(boxes, sigma, [float(row["lambda"]) for row in rows]),
    ))
    for col, want in twin.items():
        for i, (row, exact) in enumerate(zip(rows, want)):
            error = abs(mpmath.mpf(float(row[col])) - exact)
            assert error <= TWIN_RTOL * abs(exact), f"row {i} {col}: {row[col]} != {exact}"


def record(out_dir: Path, names: list[str], committed: Path = GOLDEN_DIR) -> int:
    """Write the tables and outputs of the named cases into out_dir, each
    table after saying how it differs from its table in `committed`; exit
    status."""
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
        before = committed / f"{name}.csv"
        old = before.read_text() if before.exists() else None
        rc, out = _run(argv, out_dir / f"{name}.csv")
        (out_dir / f"{name}.out").write_text(out)
        print(f"{name}: exit {rc} (expected {code})")
        try:
            diff = ["new table"] if old is None else _column_diff(
                (out_dir / f"{name}.csv").read_text(), old
            )
        except AssertionError as exc:  # a new header or row count
            diff = [str(exc)]
        for line in diff:
            print(f"  {line}")
    return 0


def test_record_writes_only_the_named_cases(tmp_path, capsys):
    assert record(tmp_path, []) == 2
    assert record(tmp_path, ["no-such-case"]) == 2
    assert list(tmp_path.iterdir()) == []
    assert record(tmp_path, ["check-overweight-nu"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "check-overweight-nu.csv", "check-overweight-nu.out"
    ]
    want = (GOLDEN_DIR / "check-overweight-nu.csv").read_text()
    _compare((tmp_path / "check-overweight-nu.csv").read_text(), want)
    capsys.readouterr()


def test_record_says_what_moved(tmp_path, capsys):
    assert record(tmp_path / "out", ["check-overweight-nu"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == ["  unchanged"]
    # a committed table with one cell altered: that column, one row
    lines = (GOLDEN_DIR / "check-overweight-nu.csv").read_text().splitlines(True)
    header, row = lines[1].split(","), lines[2].split(",")
    col = header.index("s_classical")
    row[col] = repr(float(row[col]) * 1.5)
    committed = tmp_path / "committed"
    committed.mkdir()
    (committed / "check-overweight-nu.csv").write_text("".join([*lines[:2], ",".join(row)]))
    assert record(tmp_path / "out", ["check-overweight-nu"], committed) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "  s_classical: rows moved 1, largest relative change 0.33"
    ]


if __name__ == "__main__":
    out_dir, *names = sys.argv[1:] or ["."]
    sys.exit(record(Path(out_dir), names))
