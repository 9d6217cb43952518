"""BoundReport's column store against per-row reference implementations.

The references below are the report layer as it was when tables were kept
as one dict per row: a per-cell formatter, a per-row CSV writer, and the
row-loop verdict tallies. The column-store writer and tallies must give the
same bytes and the same answers.
"""

import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from berezin_lab import harness
from berezin_lab.harness import BoundReport
from berezin_lab.version import TOOL_VERSION


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return f"{f:.17g}"


def reference_csv(rep: BoundReport) -> str:
    out = [f"# berezin-lab v{TOOL_VERSION}\n", ",".join(rep.columns) + "\n"]
    for i in range(rep.n_rows):
        out.append(",".join(_fmt(col[i]) for col in rep.columns.values()) + "\n")
    return "".join(out)


def reference_rows(rep: BoundReport) -> list[dict]:
    return [
        {c: col[i : i + 1].tolist()[0] for c, col in rep.columns.items()}
        for i in range(rep.n_rows)
    ]


def reference_failures(rep: BoundReport) -> list:
    out = []
    for i, row in enumerate(reference_rows(rep)):
        for c in rep.checks:
            if row[c] == "fail":
                out.append((i, c, row[f"{c}_margin"]))
    for key, value in rep.metadata.items():
        if key.endswith("_verdict") and value == "fail":
            out.append((-1, key, math.nan))
    return out


def reference_summary(rep: BoundReport) -> str:
    rows = reference_rows(rep)
    lines = [f"berezin-lab v{TOOL_VERSION} {rep.kind} report"]
    for key in sorted(rep.metadata):
        lines.append(f"  {key}: {rep.metadata[key]}")
    lines.append(f"  rows: {len(rows)}")
    for c in rep.checks:
        states = [row[c] for row in rows]
        n_pass = states.count("pass")
        n_fail = states.count("fail")
        n_na = states.count("n/a")
        line = f"  check {c}: pass={n_pass} fail={n_fail} n/a={n_na}"
        margins = [
            (row[f"{c}_margin"], i)
            for i, row in enumerate(rows)
            if isinstance(row[f"{c}_margin"], float)
            and not math.isnan(row[f"{c}_margin"])
        ]
        if margins:
            worst, i = min(margins)
            line += f" worst_margin={worst:.6g} (row {i})"
        lines.append(line)
    fails = reference_failures(rep)
    if fails:
        lines.append(f"  VERDICT: FAIL ({len(fails)} failing entries)")
        worst = min(
            (f for f in fails if not math.isnan(f[2])),
            key=lambda f: f[2],
            default=fails[0],
        )
        if worst[0] >= 0:
            row = rows[worst[0]]
            detail = ", ".join(f"{c}={_fmt(row[c])}" for c in rep.columns)
            lines.append(f"  worst row [{worst[0]}] {worst[1]}: {detail}")
        else:
            lines.append(f"  failing metadata check: {worst[1]}")
    else:
        lines.append("  VERDICT: PASS")
    return "\n".join(lines)


def _csv(rep: BoundReport) -> str:
    buf = io.StringIO()
    rep.to_csv(buf)
    return buf.getvalue()


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
    2.2250738585072014e-308, 1e300, -1e-300, 1.7976931348623157e308, 0.1, 1 / 3,
]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
INT_DTYPES = [np.int8, np.int32, np.int64, np.uint64, np.bool_]


@st.composite
def column(draw, size):
    """One column as a report holds it, or a scalar for a constant column."""
    kind = draw(st.sampled_from(["float", "int", "pyint", "verdict", "scalar"]))
    if kind == "float":
        return draw(hnp.arrays(np.float64, size, elements=floats))
    if kind == "int":
        return draw(hnp.arrays(draw(st.sampled_from(INT_DTYPES)), size))
    if kind == "pyint":
        ints = draw(st.lists(st.integers(), min_size=size, max_size=size))
        big = any(abs(v) >= 2**63 for v in ints)
        return np.array(ints, dtype=object if big else None).reshape(size)
    if kind == "verdict":
        codes = draw(hnp.arrays(np.int64, size, elements=st.integers(0, 2)))
        return harness._VERDICTS[codes]
    return draw(st.one_of(floats, st.integers(-(2**63), 2**63 - 1),
                          st.sampled_from(["pass", "fail", "n/a"])))


@st.composite
def table(draw):
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    n_cols = draw(st.integers(1, 6))
    values = {f"c{j}": draw(column(size)) for j in range(n_cols)}
    return harness._table(size, values, {})


@settings(max_examples=300, deadline=None)
@given(columns=table(), block=st.integers(1, 7))
def test_column_writer_matches_per_cell_reference(columns, block):
    rep = BoundReport("test", columns, ())
    with mock.patch.object(harness, "_CSV_BLOCK", block):
        assert _csv(rep) == reference_csv(rep)
    assert _csv(rep) == reference_csv(rep)  # one block at the default size


def test_column_writer_crosses_block_boundaries():
    n = 2 * harness._CSV_BLOCK + 3
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.integers(0, n, 50)] = math.nan
    columns = harness._table(
        n,
        {"i": np.arange(n), "x": x, "y": x * 3.0, "c": math.nan, "k": 5},
        {"v": harness._check_le(x, 0.0)},
    )
    rep = BoundReport("test", columns, ("v",))
    assert _csv(rep) == reference_csv(rep)


margins = st.sampled_from([math.nan, -2.0, -1.0, -0.0, 0.0, 1.0, 1e-300])


@st.composite
def verdict_report(draw):
    size = draw(st.integers(0, 25))
    checks = tuple(f"k{j}" for j in range(draw(st.integers(0, 3))))
    values = {"lambda": np.arange(size) * 0.5, "n": np.arange(size)}
    codes = hnp.arrays(np.int64, size, elements=st.integers(0, 2))
    pairs = {
        c: (
            harness._VERDICTS[draw(codes)],
            draw(hnp.arrays(np.float64, size, elements=margins)),
        )
        for c in checks
    }
    metadata = {"domain": "Box(1, 1)"}
    if draw(st.booleans()):
        verdict = draw(st.sampled_from(["pass", "fail"]))
        metadata["ratio_main_monotone_verdict"] = verdict
    return BoundReport("riesz", harness._table(size, values, pairs), checks, metadata)


@settings(max_examples=300, deadline=None)
@given(rep=verdict_report())
def test_tallies_match_row_loop_reference(rep):
    assert repr(rep.failures()) == repr(reference_failures(rep))
    assert rep.all_passed == (not reference_failures(rep))
    assert rep.summary() == reference_summary(rep)
    assert repr(rep.rows) == repr(reference_rows(rep))


def test_tallies_with_ties_and_nan_margins():
    nan = math.nan
    margin = np.array([nan, -1.0, 0.5, -1.0, -0.0, 0.0, nan])
    verdict = harness._VERDICTS[[2, 1, 0, 1, 0, 0, 2]]
    other = harness._VERDICTS[[1, 1, 1, 2, 2, 2, 1]]
    other_margin = np.array([-1.0, 2.0, -1.0, nan, nan, nan, nan])
    columns = harness._table(
        7,
        {"lambda": np.arange(7.0), "n": np.arange(7)},
        {"a": (verdict, margin), "b": (other, other_margin)},
    )
    rep = BoundReport("riesz", columns, ("a", "b"))
    # row 1 before row 3 (tied margins), check a before b in a row
    assert repr(rep.failures()) == repr(reference_failures(rep))
    assert [f[:2] for f in rep.failures()] == [
        (0, "b"), (1, "a"), (1, "b"), (2, "b"), (3, "a"), (6, "b")
    ]
    text = rep.summary()
    assert text == reference_summary(rep)
    assert "check a: pass=3 fail=2 n/a=2 worst_margin=-1 (row 1)" in text
    assert "worst row [0] b: lambda=0, n=0, a=n/a, a_margin=, b=fail" in text
