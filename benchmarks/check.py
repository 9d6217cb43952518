"""Correctness checks on the CSV tables the CLI writes.

Three checks, none of which imports berezin_lab:

* Seed-0 reference. The verdict columns and the integer columns (`n`,
  `n_index`) must equal the reference recorded in `reference/` exactly, on
  every row. Floating-point columns must agree within a relative tolerance
  RTOL (the CLI's own default inequality slack), so that a change that moves
  results in the last digits, such as a new Bessel-zero engine, still passes.
  A margin column (rhs - lhs) is compared relative to the largest value in its
  row, because it is a difference of two such values. To keep the reference
  small, floats are recorded on every `stride`-th row and the last row, where
  stride = ceil(rows / 1000); the other rows hold UNRECORDED in float fields
  except the grid column `lambda`.
* Any seed: every verdict is `pass` or `n/a`, and the header is the
  reference's.
* Any seed: eigenvalues computed here, from an integer lattice for a box,
  pi^2 (i^2/a^2 + j^2/b^2) over i, j >= 1, and from Bessel zeros found with
  numpy alone for a disk. On the sweeps they give the `n` column (the counting
  function N(lambda), N(lambda_max) on the last row) exactly and the
  `riesz_mean` column within ORACLE_RTOL; on `sums-rows` they give the
  `lambda_n` and `s1` columns within ORACLE_RTOL, which allows for the
  program merging eigenvalues within 1e-9 relative.

`python3 benchmarks/check.py --workload NAME --seed N FILE` checks one
table. With no arguments it runs the self-test, which shows that a table with
one verdict flipped, one value perturbed, or one count off by one fails.
"""

from __future__ import annotations

import argparse
import functools
import gzip
import math
import sys
from pathlib import Path

import numpy as np

import workloads

RTOL = 1e-9
ORACLE_RTOL = 1e-8
UNRECORDED = "*"
_BESSEL_NODES = 512
INT_COLUMNS = ("n", "n_index")
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV, skipping '#' comment lines."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def unparse(header: list[str], rows: list[list[str]]) -> str:
    return "\n".join(",".join(r) for r in [header, *rows]) + "\n"


def _verdict_columns(header: list[str]) -> list[str]:
    return [c for c in header if f"{c}_margin" in header]


def _value_columns(header: list[str]) -> list[int]:
    """Indices of float columns that are not margins."""
    skip = set(_verdict_columns(header)) | set(INT_COLUMNS)
    return [j for j, c in enumerate(header) if c not in skip and not c.endswith("_margin")]


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.csv.gz"


def load_reference(name: str) -> tuple[list[str], list[list[str]]]:
    with gzip.open(reference_path(name), "rt") as fh:
        return parse(fh.read())


def mask(text: str) -> str:
    """A seed-0 CSV as stored in reference/: floats kept on sampled rows only."""
    header, rows = parse(text)
    stride = math.ceil(len(rows) / 1000)
    kept = set(_verdict_columns(header)) | set(INT_COLUMNS) | {"lambda"}
    for i, row in enumerate(rows):
        if i % stride and i != len(rows) - 1:
            for j, c in enumerate(header):
                if c not in kept and row[j] != "":
                    row[j] = UNRECORDED
    return unparse(header, rows)


def _close(got: str, want: str, scale: float | None) -> bool:
    try:
        g = float(got)
    except ValueError:
        return False
    w = float(want)
    if scale is None:
        scale = max(abs(g), abs(w))
    return abs(g - w) <= RTOL * scale


def compare(header: list[str], rows: list[list[str]],
            ref_rows: list[list[str]], limit: int = 10) -> list[str]:
    """Differences from the reference rows, at most `limit` of them."""
    exact = set(_verdict_columns(header)) | set(INT_COLUMNS)
    values = _value_columns(header)
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        scale = None
        for j, c in enumerate(header):
            want = ref[j]
            if want == UNRECORDED:
                continue
            got = row[j]
            if c in exact or want == "":
                ok = got == want
            elif c.endswith("_margin"):
                if scale is None:
                    scale = max(abs(float(ref[k])) for k in values if ref[k] not in ("", UNRECORDED))
                ok = _close(got, want, scale)
            else:
                ok = _close(got, want, None)
            if not ok:
                problems.append(f"row {i} {c}: got {got!r}, reference {want!r}")
                if len(problems) >= limit:
                    return problems
    return problems


def box_eigenvalues(a: float, b: float, cutoff: float) -> np.ndarray:
    """Sorted Dirichlet eigenvalues of the a x b box below cutoff, with repeats."""
    i = np.arange(1, int(a * math.sqrt(cutoff) / math.pi) + 2, dtype=float)
    j = np.arange(1, int(b * math.sqrt(cutoff) / math.pi) + 2, dtype=float)
    vals = math.pi**2 * ((i / a)[:, None] ** 2 + (j / b)[None, :] ** 2)
    return np.sort(vals[vals < cutoff])


@functools.lru_cache(maxsize=4)
def disk_eigenvalues(radius: float, cutoff: float) -> np.ndarray:
    """Sorted Dirichlet eigenvalues (j_{m,k} / radius)^2 of the disk below
    cutoff, with repeats: once for m = 0, twice for m >= 1.

    J_m(x) is the mean of cos(m t - x sin t) over `_BESSEL_NODES` equally
    spaced t in [0, 2 pi): the trapezoid rule on a periodic integrand, exact
    to rounding while x + m is well below the node count. The zeros of J_m lie
    above m and more than 3 apart, so a scan of [m, z_max] in steps of 0.5
    brackets each of them once, and Newton's method refines it.
    """
    z_max = radius * math.sqrt(cutoff)
    if 2 * z_max + 100 > _BESSEL_NODES:
        raise ValueError(f"disk oracle needs more than {_BESSEL_NODES} nodes at z = {z_max}")
    t = np.arange(_BESSEL_NODES) * (2.0 * math.pi / _BESSEL_NODES)
    sin_t = np.sin(t)
    values = []
    for m in range(int(z_max) + 1):  # j_{m,1} > m
        x = np.append(np.arange(float(m), z_max, 0.5), z_max)
        jx = np.cos(m * t - x[:, None] * sin_t).mean(axis=1)
        i = np.flatnonzero(jx[:-1] * jx[1:] < 0.0)
        lo, hi = x[i], x[i + 1]
        z = lo - jx[i] * (hi - lo) / (jx[i + 1] - jx[i])
        for _ in range(6):
            phase = m * t - z[:, None] * sin_t
            z = z - np.cos(phase).mean(axis=1) / (np.sin(phase) * sin_t).mean(axis=1)
        if not np.all((lo < z) & (z < hi)):
            raise RuntimeError(f"Newton's method left a bracket of a zero of J_{m}")
        lam = (z / radius) ** 2
        values += [lam[lam < cutoff]] * (1 if m == 0 else 2)
    return np.sort(np.concatenate(values))


def _lowest_box_eigenvalues(a: float, b: float, count: int) -> np.ndarray:
    cutoff = 4.0 * math.pi * count / (a * b)  # Weyl: N(cutoff) ~ count
    while True:
        vals = box_eigenvalues(a, b, cutoff)
        if vals.size >= count:
            return vals[:count]
        cutoff *= 1.25


def _column(header: list[str], rows: list[list[str]], name: str, dtype=float) -> np.ndarray:
    j = header.index(name)
    return np.array([dtype(r[j]) for r in rows])


def check_oracle(wl: workloads.Workload, header: list[str], rows: list[list[str]]) -> list[str]:
    """Compare a table with the eigenvalues computed here."""
    if wl.lambda_max is not None:
        if wl.disk_radius is not None:
            eigs = disk_eigenvalues(wl.disk_radius, wl.lambda_max)
        else:
            eigs = box_eigenvalues(*wl.box_sides, wl.lambda_max)
        lam = _column(header, rows, "lambda")
        n = _column(header, rows, "n", int)
        expect = np.searchsorted(eigs, lam, side="left")
        problems = [f"row {i} n: got {n[i]}, oracle count {expect[i]}"
                    for i in np.flatnonzero(n != expect)[:10]]
        sigma = float(wl.argv[wl.argv.index("--sigma") + 1])
        j = header.index("riesz_mean")
        for i, row in enumerate(rows):
            if row[j] == UNRECORDED:
                continue
            want = float(np.sum((lam[i] - eigs[:expect[i]]) ** sigma))
            if abs(float(row[j]) - want) > ORACLE_RTOL * want:
                problems.append(f"row {i} riesz_mean: got {row[j]}, oracle {want!r}")
                if len(problems) >= 10:
                    break
        return problems
    n_index = _column(header, rows, "n_index", int)
    if not np.array_equal(n_index, np.arange(1, len(rows) + 1)):
        return ["n_index is not 1, 2, ..., rows"]
    lowest = _lowest_box_eigenvalues(*wl.box_sides, len(rows))
    problems = []
    for name, expect in (("lambda_n", lowest), ("s1", np.cumsum(lowest))):
        got = _column(header, rows, name)
        bad = np.flatnonzero(np.abs(got - expect) > ORACLE_RTOL * np.abs(expect))
        problems += [f"row {i} {name}: got {got[i]!r}, oracle {expect[i]!r}" for i in bad[:10]]
    return problems


def check_output(wl: workloads.Workload, text: str, against_reference: bool) -> list[str]:
    """Every problem found in one CSV table; empty when it is correct."""
    try:
        header, rows = parse(text)
    except IndexError:
        return ["CSV is empty"]
    ref_header, ref_rows = load_reference(wl.name)
    if header != ref_header:
        return [f"header {header} differs from the reference header {ref_header}"]
    if len(rows) != wl.rows:
        return [f"{len(rows)} rows, expected {wl.rows}"]
    if any(len(r) != len(header) for r in rows):
        return ["a row has the wrong number of fields"]
    problems = []
    for c in _verdict_columns(header):
        j = header.index(c)
        bad = [i for i, r in enumerate(rows) if r[j] not in ("pass", "n/a")]
        problems += [f"row {i} {c}: verdict {rows[i][j]!r}" for i in bad[:10]]
    try:
        problems += check_oracle(wl, header, rows)
    except ValueError as exc:
        problems.append(f"unreadable number: {exc}")
    if against_reference:
        problems += compare(header, rows, ref_rows)
    return problems


def self_test() -> list[str]:
    """Problems with the checker itself; empty when it catches every defect."""
    disk = workloads.make("disk-sweep", 0)
    header, rows = load_reference(disk.name)
    box = workloads.make("box-sweep", 0)
    box_header, box_rows = load_reference(box.name)
    mid = len(rows) // 2

    def edited(hdr, rws, col, fn):
        out = [list(r) for r in rws]
        j = hdr.index(col)
        out[mid][j] = fn(out[mid][j])
        return unparse(hdr, out)

    cases = [
        ("verdict flipped", disk, edited(header, rows, "s_le_sliced", lambda v: "fail"), True),
        ("value perturbed", disk,
         edited(header, rows, "riesz_mean", lambda v: repr(float(v) * (1 + 1e-6))), True),
        ("count off by one (box oracle only)", box,
         edited(box_header, box_rows, "n", lambda v: str(int(v) + 1)), False),
        ("count off by one (disk oracle only)", disk,
         edited(header, rows, "n", lambda v: str(int(v) + 1)), False),
        ("value perturbed (disk oracle only)", disk,
         edited(header, rows, "riesz_mean", lambda v: repr(float(v) * (1 + 1e-6))), False),
    ]
    problems = []
    for wl, hdr, rws in ((disk, header, rows), (box, box_header, box_rows)):
        if check_output(wl, unparse(hdr, rws), True):
            problems.append(f"the unmodified {wl.name} reference does not pass")
    for what, wl, text, against in cases:
        if not check_output(wl, text, against):
            problems.append(f"a table with one {what} passes")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Check one CSV table of a workload, or, with no arguments, "
                    "run the self-test. Prints one problem a line; exits 1 if any.")
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("csv", nargs="?")
    args = parser.parse_args()
    if args.csv is None:
        problems = self_test()
    else:
        wl = workloads.make(args.workload, args.seed)
        text = Path(args.csv).read_text(errors="replace")
        problems = check_output(wl, text, against_reference=args.seed == 0)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
