"""BoundReport's column store against per-row reference implementations.

The references below are the report layer as it was when tables were kept
as one dict per row: a per-cell formatter, a per-row CSV writer, and the
row-loop verdict tallies. The column-store writer and tallies must give the
same bytes and the same answers. They decode a check column's int8 codes
with their own table of words, not the harness's.
"""

import io
import math
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from berezin_lab import harness
from berezin_lab.harness import BoundReport
from berezin_lab.version import TOOL_VERSION

# the word of each verdict code
WORDS = ("pass", "fail", "n/a")


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return f"{f:.17g}"


def _cell(rep: BoundReport, name: str, i: int):
    """Row i of a column as a Python scalar, a verdict as its word."""
    value = rep.columns[name][i : i + 1].tolist()[0]
    return WORDS[value] if name in rep.checks else value


def reference_rows(rep: BoundReport) -> list[dict]:
    return [{c: _cell(rep, c, i) for c in rep.columns} for i in range(rep.n_rows)]


def reference_csv(rep: BoundReport) -> str:
    out = [f"# berezin-lab v{TOOL_VERSION}\n", ",".join(rep.columns) + "\n"]
    for row in reference_rows(rep):
        out.append(",".join(_fmt(v) for v in row.values()) + "\n")
    return "".join(out)


def reference_failures(rep: BoundReport) -> list:
    out = []
    for i, row in enumerate(reference_rows(rep)):
        for c in rep.checks:
            if row[c] == "fail":
                out.append((i, c, row[f"{c}_margin"]))
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
        row = rows[worst[0]]
        detail = ", ".join(f"{c}={_fmt(row[c])}" for c in rep.columns)
        lines.append(f"  worst row [{worst[0]}] {worst[1]}: {detail}")
    else:
        lines.append("  VERDICT: PASS")
    return "\n".join(lines)


def _table(size: int, values: dict, checks: dict) -> dict[str, np.ndarray]:
    """Report columns from values (a scalar is a constant column) and
    (verdict codes, margins) per check, laid out as a sweep lays them out."""
    columns = dict(values)
    for name, (verdict, margin) in checks.items():
        columns.update({name: verdict, f"{name}_margin": margin})
    return {k: np.broadcast_to(v, (size,)) for k, v in columns.items()}


def _check(lhs, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Verdict codes and margins of lhs <= rhs with the harness's slack, a
    row with a NaN side n/a, as a report holds a check that does not apply."""
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, float), np.asarray(rhs, float))
    na = np.isnan(lhs) | np.isnan(rhs)
    fail = lhs > rhs + harness._SLACK * np.maximum(1.0, np.abs(rhs))
    return np.where(na, 2, fail).astype(np.int8), np.where(na, math.nan, rhs - lhs)


def _csv(rep: BoundReport) -> str:
    buf = io.BytesIO()
    rep.to_csv(buf)
    return buf.getvalue().decode("ascii")


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-320,
    2.2250738585072014e-308, 1e300, -1e-300, 1.7976931348623157e308, 0.1, 1 / 3,
]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
INT_DTYPES = [np.int8, np.int32, np.int64, np.uint64, np.bool_]
int64s = st.integers(-(2**63), 2**63 - 1)


def verdict_codes(size):
    """A check column's int8 codes, or one code for a constant column."""
    return st.one_of(
        hnp.arrays(np.int8, size, elements=st.integers(0, 2)),
        st.integers(0, 2).map(np.int8),
    )


@st.composite
def column(draw, size):
    """One value column as a report holds it, or a scalar for a constant column."""
    kind = draw(st.sampled_from(["float", "int", "pyint", "scalar"]))
    if kind == "float":
        return draw(hnp.arrays(np.float64, size, elements=floats))
    if kind == "int":
        return draw(hnp.arrays(draw(st.sampled_from(INT_DTYPES)), size))
    if kind == "pyint":
        ints = draw(st.lists(int64s, min_size=size, max_size=size))
        return np.array(ints).reshape(size)
    return draw(st.one_of(floats, int64s))


@st.composite
def table(draw):
    size = draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 60)))
    n_cols = draw(st.integers(1, 6))
    values = {f"c{j}": draw(column(size)) for j in range(n_cols)}
    margins = hnp.arrays(np.float64, size, elements=floats)
    checks = {
        f"k{j}": (draw(verdict_codes(size)), draw(margins))
        for j in range(draw(st.integers(0, 2)))
    }
    return BoundReport("test", _table(size, values, checks), tuple(checks))


@settings(max_examples=300, deadline=None)
@given(rep=table(), block=st.integers(1, 7))
def test_column_writer_matches_per_cell_reference(rep, block):
    with mock.patch.object(harness, "_CSV_BLOCK", block):
        assert _csv(rep) == reference_csv(rep)
    assert _csv(rep) == reference_csv(rep)  # one block at the default size


def test_column_writer_crosses_block_boundaries():
    n = 2 * harness._CSV_BLOCK + 3
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.integers(0, n, 50)] = math.nan
    columns = _table(
        n,
        {"i": np.arange(n), "x": x, "y": x * 3.0, "c": math.nan, "k": 5},
        {"v": _check(x, 0.0)},
    )
    rep = BoundReport("test", columns, ("v",))
    assert _csv(rep) == reference_csv(rep)


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


# Raw 64-bit patterns in and around [1, 1e17), the range the writer converts
# in numpy, with either sign.
near_numpy_range = st.builds(
    lambda negative, bits: _from_bits(bits | negative << 63),
    st.booleans(),
    st.integers(_bits(0.25), _bits(4e17)),
)


def _kernel_cells(values) -> tuple[list[str], list[bool]]:
    """The writer's numpy kernel on a float64 array: the text of each value's
    slot, and whether the kernel converted it (Python formats the others)."""
    out = np.empty((len(values), 32), np.uint8)
    unsigned, stop, _ = harness._number_slots(np.array(values, dtype=float), 1e17, out)
    slots = out[:, 5:30]
    cells = [bytes(s[a:b]).decode() for s, a, b in zip(slots, unsigned.tolist(), stop.tolist())]
    return cells, (stop > 0).tolist()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(near_numpy_range, max_size=64))
@example(values=[1234567890123456.25, 1234567890123456.75])
@example(
    values=[
        *(x for v in (1e16, 1e17) for x in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))),
        2.0**53 - 2.0, 2.0**53 + 2.0, 9.999999999999999, -0.0, 5e-324,
        math.inf, -math.inf, math.nan,
    ]
)
def test_float_cells_match_python_formatting(values):
    converted = [1.0 <= abs(v) < 1e17 for v in values]  # false for NaN
    expected = ["%.17g" % v if c else "" for v, c in zip(values, converted)]
    assert _kernel_cells(values) == (expected, converted)


def test_float_cells_round_ties_to_even():
    # both values are exact ties between two 17-digit decimals
    cells, _ = _kernel_cells([1234567890123456.25, -1234567890123456.75])
    assert cells == ["1234567890123456.2", "-1234567890123456.8"]


def test_four_digit_table_matches_python_formatting():
    # every chunk of four digits, as its little-endian word's bytes
    words = harness._DIGITS4.astype("<u4").view("S4")
    assert words.tolist() == [b"%04d" % c for c in range(10**4)]


def test_signed_zeros_in_a_column_of_kernel_numbers():
    # +0.0 and -0.0 take "0" and "-0" from the table, between kernel numbers,
    # NaN and a Python-formatted value, in float and integer columns
    x = np.array([1.5, 0.0, -0.0, -2.25, math.nan, -0.0, 1e-5, 0.0, 3.0])
    columns = {"x": x, "y": -x, "n": np.array([0, 3, 0, -7, 0, 1, 0, 2**60, 5])}
    rep = BoundReport("test", columns, ())
    for block in (1, 2, 4, 1024):
        with mock.patch.object(harness, "_CSV_BLOCK", block):
            assert _csv(rep) == reference_csv(rep)
    assert _csv(rep).splitlines()[3] == "0,-0,3"


def test_blocks_with_and_without_python_cells_side_by_side():
    # blocks of four rows: the first and third hold only kernel numbers and
    # verdicts, the second and fourth a value Python formats
    x = np.arange(1.0, 17.0) * 1.25
    x[[5, 13]] = [1e300, -3e-7]
    columns = _table(16, {"x": x, "n": np.arange(16)}, {"v": _check(x, 10.0)})
    rep = BoundReport("test", columns, ("v",))
    with mock.patch.object(harness, "_CSV_BLOCK", 4):
        assert _csv(rep) == reference_csv(rep)


# Values at the edges of each way a cell is written: the kernel's range for
# floats (1 <= |v| < 1e17) and integers (|n| < 2^53), the widest %.17g text,
# signed zeros and NaN.
EDGE_FLOATS = [
    0.0, -0.0, math.nan, 1.0, -1.0, 0.5, 1e17, -1e17, math.nextafter(1e17, 0.0),
    2.0**53, -(2.0**53) - 2.0, -2.2250738585072014e-308, -1.7976931348623157e308,
    -4.9406564584124654e-324, -1.2345678901234567e-100, math.inf, -math.inf,
]
EDGE_INTS = [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]
EDGE_UINTS = [0, 1, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1]


@st.composite
def edge_column(draw, size):
    """A column, and whether it is a check's verdict codes."""
    kind = draw(st.sampled_from(["float", "int64", "uint64", "bool", "verdict"]))
    if kind == "verdict":
        return np.broadcast_to(draw(verdict_codes(size)), (size,)), True
    return draw(edge_value_column(kind, size)), False


@st.composite
def edge_value_column(draw, kind, size):
    if kind == "float":
        elements = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
        return draw(hnp.arrays(np.float64, size, elements=elements))
    if kind == "int64":
        elements = st.one_of(st.sampled_from(EDGE_INTS), st.integers(-(2**63), 2**63 - 1))
        return draw(hnp.arrays(np.int64, size, elements=elements))
    if kind == "uint64":
        elements = st.one_of(st.sampled_from(EDGE_UINTS), st.integers(0, 2**64 - 1))
        return draw(hnp.arrays(np.uint64, size, elements=elements))
    return draw(hnp.arrays(np.bool_, size))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), size=st.integers(0, 40), block=st.integers(1, 9))
def test_writer_slot_branches_match_reference(data, size, block):
    # verdict columns anywhere in the row, the last one too
    n_cols = data.draw(st.integers(1, 7))
    drawn = {f"c{j}": data.draw(edge_column(size)) for j in range(n_cols)}
    columns = {name: col for name, (col, _) in drawn.items()}
    checks = tuple(name for name, (_, verdict) in drawn.items() if verdict)
    rep = BoundReport("test", columns, checks)
    with mock.patch.object(harness, "_CSV_BLOCK", block):
        assert _csv(rep) == reference_csv(rep)


@pytest.mark.parametrize(
    "column, checks",
    [
        (np.array(["pass", "fail"]), ()),
        (np.array([1, "a,b"], dtype=object), ()),
        (np.array([0, 2**64], dtype=object), ()),
        (np.array([0.0, 1.0]), ("c",)),  # a check column holds int8 codes
        (np.array([0, 1]), ("c",)),
    ],
)
def test_report_refuses_text_and_object_columns(column, checks):
    # a text cell would go unquoted into the CSV; columns hold numbers or codes
    with pytest.raises(TypeError, match="column 'c': "):
        BoundReport("test", {"x": np.zeros(2), "c": column}, checks)


margins = st.sampled_from([math.nan, -2.0, -1.0, -0.0, 0.0, 1.0, 1e-300])


@st.composite
def verdict_report(draw):
    size = draw(st.integers(0, 25))
    checks = tuple(f"k{j}" for j in range(draw(st.integers(0, 3))))
    values = {"lambda": np.arange(size) * 0.5, "n": np.arange(size)}
    pairs = {
        c: (
            draw(hnp.arrays(np.int8, size, elements=st.integers(0, 2))),
            draw(hnp.arrays(np.float64, size, elements=margins)),
        )
        for c in checks
    }
    metadata = {"domain": "Box(1, 1)"}
    return BoundReport("riesz", _table(size, values, pairs), checks, metadata)


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
    verdict = np.array([2, 1, 0, 1, 0, 0, 2], np.int8)
    other = np.array([1, 1, 1, 2, 2, 2, 1], np.int8)
    other_margin = np.array([-1.0, 2.0, -1.0, nan, nan, nan, nan])
    columns = _table(
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
