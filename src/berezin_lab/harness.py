"""Grid sweeps over spectral cutoffs and eigenvalue counts, with verdicts.

Each sweep enumerates the spectrum once at the grid maximum, evaluates every
column over the whole grid at once as an array, and keeps those arrays as the
report's table; row dicts are built only on request.

Inequality verdicts use a fixed scale-aware slack of 1e-9:
lhs <= rhs + 1e-9 * max(1, |rhs|). A fail verdict always sits next to the raw
values and the signed margin rhs - lhs, which does not depend on the slack,
so violations are quantified, not just flagged, and any other tolerance can
be applied to the margins afterwards.

Report columns hold numbers, and verdicts as int8 codes (0 pass, 1 fail,
2 n/a), one per check of `_CHECKS`, to the file; `rows` decodes them. That
table is the only source of verdicts: metadata holds none.

CSV bytes are those of printing every float with `%.17g` (NaN as an empty
field), every integer in full and every verdict as its word. A block of rows
becomes one byte matrix in numpy, a 32-byte cell per value taken from a pool
in one lookup: verdicts, zeros and NaN from a table of words, numbers with
1 <= |v| < 1e17 (2^53 for integers) from cells whose digits numpy writes as
words of a table of all 4-digit groups; Python formats the other numbers
into their cells. One lookup per block of where each cell's text starts and
ends picks the bytes kept, which are written as they are.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Callable, Iterator

import numpy as np

from .bounds import (
    boundary_term,
    eigenvalue_lower,
    improved_rhs,
    li_yau_rhs,
    melas_rhs,
    phase_space_eta,
    s_classical,
    sliced_bound,
    sum_classical,
    two_term_riesz,
    two_term_sum,
)
from .constants import SemiclassicalParams, lt_value
from .errors import (
    EnumerationLimitError,
    InsufficientCutoffError,
    NumericFailure,
    UnsupportedDomainError,
)
from .geometry import (
    Domain,
    _in_floats,
    moment_J,
    slicing_stats,
    surface,
    volume,
)
from .remainder import epsilon_mu, nu_nonneg_cap
from .spectra import Spectrum, counting, enumerate_spectrum, riesz_mean
from .version import TOOL_VERSION

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "BoundReport",
    "sweep_riesz",
    "sweep_sums",
    "asymptotic_diagnostics",
]

class BoundReport:
    """Sweep result: a table stored as columns, plus run metadata.

    `columns` maps each CSV column name, in order, to an array with one entry
    per row: integers or floats (NaN for a missing value). The columns named
    by `checks` are verdicts, int8 codes 0 pass, 1 fail, 2 n/a; each has a
    sibling '<name>_margin' column with the signed gap rhs - lhs. Each report
    without a `metadata` argument gets its own empty dict.
    """

    def __init__(
        self,
        kind: str,
        columns: dict[str, np.ndarray],
        checks: tuple[str, ...],
        metadata: dict | None = None,
    ) -> None:
        for name, c in columns.items():
            ok = c.dtype == np.int8 if name in checks else c.dtype.kind in "biuf"
            if not ok:
                raise TypeError(f"column {name!r}: {c.dtype}, not numbers or int8 codes")
        self.kind = kind
        self.columns = columns
        self.checks = checks
        self.metadata = {} if metadata is None else metadata

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    @property
    def rows(self) -> list[dict]:
        """One dict of Python scalars per row, built on demand; verdicts are
        'pass', 'fail' or 'n/a'."""
        cols = [
            [_VERDICTS[k] for k in c.tolist()] if name in self.checks else c.tolist()
            for name, c in self.columns.items()
        ]
        return [dict(zip(self.columns, row)) for row in zip(*cols)]

    def failures(self) -> list[tuple[int, str, float]]:
        """(row, check, margin) per failing verdict, by row, then check order."""
        hits = sorted(
            (i, k)
            for k, c in enumerate(self.checks)
            for i in np.flatnonzero(self.columns[c] == 1).tolist()
        )
        return [
            (i, self.checks[k], self.columns[f"{self.checks[k]}_margin"][i].item())
            for i, k in hits
        ]

    @property
    def all_passed(self) -> bool:
        return not self.failures()

    def to_csv(self, dest: str | Path | IO[bytes]) -> None:
        if isinstance(dest, (str, Path)):
            with open(dest, "wb") as fh:
                self._write_csv(fh)
        else:
            self._write_csv(dest)

    def _write_csv(self, fh: IO[bytes]) -> None:
        fh.write(f"# berezin-lab v{TOOL_VERSION}\n{','.join(self.columns)}\n".encode())
        fh.writelines(self._csv_blocks(slice(None)))

    def _csv_blocks(self, which: slice) -> Iterator[memoryview]:
        """CSV bytes of the rows selected, _CSV_BLOCK rows per buffer.

        A block is one byte matrix of 32-byte cells, each taken whole, in one
        `np.take`, from a pool: the table of words (verdicts, 0, -0, NaN),
        then the cells `_number_slots` fills with the digits of
        `"%.17g" % v` for the block's numbers with 1 <= |v| < 1e17 (2^53 for
        integers), column by column within each row. Python formats the other
        numbers into their cells; zeros and NaN point to their word instead,
        and a float column NaN throughout skips the kernel. One lookup of
        `_KEEP` by stop + 26 * unsigned gives the bytes each cell keeps, its
        text and then its separator, and the block's bytes are those, in order.
        """
        cols = [c[which] for c in self.columns.values()]
        verdicts = [j for j, name in enumerate(self.columns) if name in self.checks]
        num, empty = [], []  # number columns, and float columns NaN throughout
        for j, c in enumerate(cols):
            if j not in verdicts:
                (empty if c.dtype.kind == "f" and np.isnan(c).all() else num).append(j)
        ints = np.array([cols[j].dtype.kind != "f" for j in num], bool)
        limit = np.where(ints, 2.0**53, 1e17)
        size = len(cols[0]) if cols else 0
        # Each cell's place in the pool: NaN's word, or its number's cell.
        words = len(_WORD_CELLS)
        rows = min(size, _CSV_BLOCK)
        place = np.full((rows, len(cols)), words - 1, np.intp)
        place[:, num] = np.arange(words, words + rows * len(num)).reshape(rows, len(num))

        def block_bytes(lo: int) -> np.ndarray:
            # a function, so that each block's arrays are freed with it
            block = [c[lo : lo + _CSV_BLOCK] for c in cols]
            at = place[: len(block[0])].copy()
            for j in verdicts:
                at[:, j] = block[j]
            pool = np.empty((words + at.shape[0] * len(num), 32), np.uint8)
            pool[:words] = _WORD_CELLS.view(np.uint8).reshape(words, 32)
            keys = np.empty(len(pool), np.intp)  # stop + 26 * unsigned
            keys[:words] = _WORD_SIZES
            if num:
                x = np.stack([block[j] for j in num], axis=1, dtype=float)
                unsigned, stop, left = _number_slots(x, limit, pool[words:])
                stop[unsigned] += 26
                keys[words:] = stop.reshape(-1)
                if left.any():
                    # zeros and NaN point to their word, Python formats the rest
                    r, k = np.nonzero(left)
                    v = x[r, k]
                    nan = np.isnan(v)
                    word = nan | (v == 0.0)
                    code = np.signbit(v[word]) + 2 * nan[word] + 3
                    at[r[word], np.take(num, k[word])] = code
                    r, k = r[~word], k[~word]
                    cells = ["%.17g" % f for f in v[~word].tolist()]
                    for i in np.flatnonzero(ints[k]).tolist():
                        cells[i] = "%d" % block[num[k[i]]][r[i]].item()  # exact
                    i = words + r * len(num) + k
                    texts = np.array([c + "," for c in cells], "S25")
                    pool[i, 5:30] = texts.view(np.uint8).reshape(-1, 25)
                    keys[i] = [len(c) for c in cells]
                del x, unsigned, stop, left
            buf = np.take(pool.view(_CELL)[:, 0], at).view(np.uint8)
            buf, key = buf.reshape(*at.shape, 32), np.take(keys, at)
            del pool, keys, at
            buf[np.arange(len(key)), -1, 5 + key[:, -1] % 26] = ord("\n")  # the row's end
            return buf[np.take(_KEEP, key, axis=0)]

        for lo in range(0, size, _CSV_BLOCK):
            yield block_bytes(lo).data

    def summary(self) -> str:
        lines = [f"berezin-lab v{TOOL_VERSION} {self.kind} report"]
        for key in sorted(self.metadata):
            lines.append(f"  {key}: {self.metadata[key]}")
        lines.append(f"  rows: {self.n_rows}")
        for c in self.checks:
            n_pass, n_fail, n_na = np.bincount(self.columns[c], minlength=3).tolist()
            line = f"  check {c}: pass={n_pass} fail={n_fail} n/a={n_na}"
            margins = self.columns[f"{c}_margin"]
            if not np.isnan(margins).all():
                i = int(np.nanargmin(margins))  # the first row on ties
                line += f" worst_margin={margins[i].item():.6g} (row {i})"
            lines.append(line)
        fails = self.failures()
        if fails:
            lines.append(f"  VERDICT: FAIL ({len(fails)} failing entries)")
            i, name, _ = min(
                (f for f in fails if not math.isnan(f[2])),
                key=lambda f: f[2],
                default=fails[0],
            )
            cells = str(next(self._csv_blocks(slice(i, i + 1))), "ascii")
            detail = ", ".join(f"{c}={v}" for c, v in zip(self.columns, cells[:-1].split(",")))
            lines.append(f"  worst row [{i}] {name}: {detail}")
        else:
            lines.append("  VERDICT: PASS")
        return "\n".join(lines)


# Rows per buffer written, so a long table is never one buffer.
_CSV_BLOCK = 1024
# A cell's text, at most 24 bytes (the widest "%.17g" or int64/uint64 text),
# and then its separator start at byte 5 of its 32 bytes; byte 5 of a
# number's cell holds "-", and the text of a positive one starts at byte 6.
_CELL = np.dtype(("V", 32))
# The cells of the verdict codes' words, then of 0, -0 and NaN (either sign),
# with the sizes of their text.
_VERDICTS = ("pass", "fail", "n/a")
_WORD_CELLS = np.array([f"\0\0\0\0\0{w}," for w in (*_VERDICTS, "0", "-0", "", "")], "S32")
_WORD_SIZES = np.array([4, 4, 3, 1, 2, 0, 0])
# [stop + 26 * unsigned]: the bytes a cell keeps, its text from byte 5 (6 if
# unsigned) and its separator at byte 5 + stop.
_KEEP = (np.arange(-5, 27) >= 0) & (np.arange(-5, 27) <= np.arange(26)[:, None])
_KEEP = np.concatenate([_KEEP, _KEEP & (np.arange(32) > 5)])
# [c]: the 4 digits of c < 10^4 in ASCII, as a little-endian word.
_D = np.arange(0x30, 0x3A, dtype=np.uint32)
_DIGITS4 = (_D[:, None, None, None] | _D[:, None, None] << 8 | _D[:, None] << 16 | _D << 24)
_DIGITS4 = _DIGITS4.reshape(-1)

# [e]: 10^(16-e), exact as a double, its Veltkamp split into halves of at
# most 26 bits whose products are exact, and 9 * 10^(16-e) as int64 bits.
_P = np.array([float(10 ** (16 - e)) for e in range(17)])
_P_HI = 134217729.0 * _P - (134217729.0 * _P - _P)
_POW10 = np.stack([_P, _P_HI, _P - _P_HI, (9 * _P.astype(np.int64)).view(float)], 1)
# [b]: for 2^b <= a < 2^(b+1), the decimal exponent of 2^b and the power of
# ten above it, which a may reach.
_BINADE_EXP = np.array([len(str(2**b)) - 1 for b in range(57)])
_BINADE_TEN = 10.0 ** (_BINADE_EXP + 1)
# [17 * stop + e]: what turns the "0" at bytes 5, 7 + e and 5 + stop of a
# number's cell into "-", the point (where the text goes past it) and the
# separator, as four little-endian words.
_MARKS = np.zeros((20, 17, 32), np.uint8)
_MARKS[..., 5] = ord("0") ^ ord("-")
_MARKS[:, range(17), range(7, 24)] = (ord("0") ^ ord(".")) * (
    np.arange(20)[:, None] > np.arange(2, 19)
)
_MARKS[range(20), :, range(5, 25)] = ord("0") ^ ord(",")
_MARKS = _MARKS.view(np.int64).reshape(-1, 4)


def _number_slots(
    x: np.ndarray, limit: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Write `"%.17g" % v` for the float64 array x where 1 <= |v| < limit (at
    most 1e17, broadcast against x) into the slot, bytes 5-29, of v's 32-byte
    cell, a row of `out` in the order of x's elements. The text runs from slot
    byte 0, or 1 where v > 0 (the first mask returned), to one before the
    second array, 0 for the other values, and is followed by ","; the last
    mask is of those other values, which the caller writes."""
    a = np.abs(x)
    fast = (a >= 1.0) & (a < limit)  # false for NaN
    a[~fast] = 1.0
    stop = _digit_slots(*_decimal17(a.reshape(-1)), out).reshape(x.shape)
    stop *= fast
    return fast & (x > 0), stop, ~fast


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e and N' for 1 <= a < 1e17: 10^e <= a < 10^(e+1), and the 18 digits
    of N' are the 17 of %.17g with a 0 put after the first e + 1.

    Those are the digits of N, the integer nearest a * 10^(16-e), ties to
    even. Dekker's two-product gives a * 10^(16-e) exactly as p + err, and
    p >= 2^53 is even, so N = p + rint(err). N stays below 10^17, and below
    (I + 1) 10^(16-e) for a's integer part I: the float below 10^(e+1) is
    over 11 units of N lower, and the float below I + 1 over one. So N's
    first e + 1 digits are those of I, and N' = N + 9 I 10^(16-e).
    """
    binade = (a.view(np.int64) >> 52) - 1023
    e = np.take(_BINADE_EXP, binade)
    e += a >= np.take(_BINADE_TEN, binade)  # a binade holds at most one power of 10
    b, b_hi, b_lo, nines = np.take(_POW10, e, axis=0).T
    p = a * b
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    n = p.astype(np.int64)
    n += np.rint(err).astype(np.int64)
    n += a.astype(np.int64) * nines.view(np.int64)
    return e, n


def _digit_slots(e: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the 32-byte cells `out` with "-" and the 18 digits of n from
    byte 5, the digit after the first e + 1 (a 0) made the point, and ","
    after the text, which drops trailing fraction zeros (and a bare point);
    return where the "," is, less 5.

    A cell is eight little-endian words: bytes 4-7 are the `_DIGITS4` word
    of the first two digits, so bytes 6 and 7 hold them and byte 5 a "0",
    four more words hold the other 16 digits, bytes 8-23, and bytes 24-27
    are "0000" (bytes 0-3 and 28-31 are not written). One lookup of `_MARKS`
    then turns the right "0"s into "-", the point and the separator.
    """
    top = n // 10**16
    n -= top * 10**16
    quads = np.empty((4, n.size), np.int64)  # the four groups of four digits
    np.floor_divide(n, 10**8, out=quads[1])
    np.subtract(n, quads[1] * 10**8, out=quads[3])
    np.floor_divide(quads[1::2], 10**4, out=quads[0::2])
    quads[1::2] -= quads[0::2] * 10**4
    cells = out.view(np.uint32)
    cells[:, 1] = np.take(_DIGITS4, top)
    cells[:, 2:6] = np.take(_DIGITS4, quads).T
    cells[:, 6] = _DIGITS4[0]
    del quads, top
    words = out.view(np.int64)
    # The last nonzero digit: the float exponent of words 1 and 2 less their
    # ASCII zeros, shifted up 3 bits, is 128 more than the top nonzero byte
    # of each (0 for a word of zeros).
    ends = [
        ((words[:, w] ^ 0x3030303030303030) << 3).astype(float).view(np.int64) >> 55
        for w in (1, 2)
    ]
    stop = np.maximum(np.maximum(ends[0], ends[1] + 8), e + 126) - 124
    words ^= np.take(_MARKS, 17 * stop + e, axis=0)
    return stop


# Relative tolerance granted to every inequality verdict.
_SLACK = 1e-9


def _check_finite(name: str, value: float | None) -> None:
    """An explicit constant: a non-finite one would turn its checks into n/a."""
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {float(value)!r}")


def _no_overflow(
    name: str, sigma: float, compute: Callable[[], ArrayLike]
) -> ArrayLike:
    """compute(), or NumericFailure naming the column or check if it
    overflows a float."""
    message = f"{name} overflows a float at sigma = {sigma:g}"
    try:
        with np.errstate(over="ignore"):
            value = compute()
    except OverflowError as exc:
        raise NumericFailure(message) from exc
    if np.isinf(value).any():
        raise NumericFailure(message)
    return value


def _grid(values: ArrayLike, name: str, *, integer: bool) -> np.ndarray:
    """A sweep grid as a read-only 1-d array, checked before any enumeration:
    strictly increasing, and either integers >= 1 or finite floats."""
    grid = np.array(values, dtype=None if integer else float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d grid, got shape {grid.shape}")
    if integer and (grid.dtype.kind not in "iu" or (grid < 1).any()):
        raise ValueError(f"{name} must hold integers >= 1")
    if not (integer or np.isfinite(grid).all()):
        raise ValueError(f"{name} must hold finite values")
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError(f"{name} must be strictly increasing")
    grid.flags.writeable = False
    return grid


def _try_surface(dom: Domain) -> float | None:
    try:
        return surface(dom)
    except UnsupportedDomainError:
        return None


# Per report kind, its checks in column order: the name, the sides lhs <= rhs
# (a column, a fact such as holder_rhs, or a number) and whether it applies,
# from the report's facts. The corrected bound is nonnegative on every domain
# only for nu up to nu_nonneg_cap, so improved_nonneg is n/a above it; the
# ratio of the Riesz mean to its classical value rises for sigma >= 2 (Harrell
# and Hermi), which ratio_main_monotone checks.
_BEREZIN = ("berezin", "riesz_mean", "s_classical", lambda f: f.sigma >= 1.0)
_CHECKS = {
    "riesz": (
        ("s_le_sliced", "riesz_mean", "sliced_bound", lambda f: f.sliced_ok),
        ("sliced_le_improved", "sliced_bound", "improved_rhs",
         lambda f: f.sliced_ok and f.improved_ok),
        ("improved_le_classical", "improved_rhs", "s_classical", lambda f: f.improved_ok),
        _BEREZIN,
        ("polya", "n", "eta", lambda f: f.domain.polya_theorem),
        ("improved_nonneg", 0.0, "improved_rhs",
         lambda f: f.improved_ok and f.nu <= f.nu_cap * (1.0 + 1e-12)),
    ),
    "sums": (
        ("li_yau", "li_yau_rhs", "s1", lambda f: True),
        ("lambda_lower", "eigenvalue_lower", "lambda_n", lambda f: True),
        ("melas", "melas_rhs", "s1", lambda f: f.melas_m is not None),
        ("holder_upper", "s1", "holder_rhs", lambda f: f.sigma > 1.0),
    ),
    "asymptotics": (
        _BEREZIN,
        ("ratio_main_monotone", "scaled_riesz_mean", "scaled_lower_mean",
         lambda f: f.sigma >= 2.0),
    ),
}


def _report(
    kind: str, domain: Domain, sigma: float, values: dict, facts: dict, **metadata
) -> BoundReport:
    """A sweep's report: `values` (a scalar is a constant column), then a
    verdict and a margin column per check of `_CHECKS[kind]`, with one row per
    entry of the first value (the grid), and metadata. A check that does not
    apply, by its predicate over sigma, the domain and `facts`, is n/a in every
    row; a NaN side of one that applies is a NumericFailure naming the row.
    Elsewhere a row fails where lhs > rhs + _SLACK * max(1, |rhs|), and its
    margin is rhs - lhs."""
    given = SimpleNamespace(sigma=sigma, domain=domain, **facts)
    known = {**values, **facts}
    columns = dict(values)
    for name, lhs, rhs, applies in _CHECKS[kind]:
        codes, margin = np.int8(2), math.nan
        if applies(given):
            a, b = (known.get(side, side) for side in (lhs, rhs))
            nan = np.flatnonzero(np.isnan(a) | np.isnan(b))
            if nan.size:
                raise NumericFailure(f"check {name}, {lhs} <= {rhs}: NaN side in row {nan[0]}")
            codes = (a > b + _SLACK * np.maximum(1.0, np.abs(b))).astype(np.int8)
            margin = b - a
        columns.update({name: codes, f"{name}_margin": margin})
    size = len(next(iter(values.values())))
    columns = {k: np.broadcast_to(v, (size,)) for k, v in columns.items()}
    metadata = {
        "tool_version": TOOL_VERSION,
        "kind": kind,
        "domain": repr(domain),
        "sigma": sigma,
        "slack": _SLACK,
        **metadata,
    }
    return BoundReport(kind, columns, tuple(c[0] for c in _CHECKS[kind]), metadata)


def sweep_riesz(
    domain: Domain,
    sigma: float,
    lambda_grid: ArrayLike,
    *,
    nu: float | None = None,
) -> BoundReport:
    """Riesz-mean chain over a lambda grid: counting, means, and all bounds.

    nu=None selects the guaranteed default weight, 4 eps_mu; an explicit nu
    must be finite.
    """
    d = domain.dim
    p = SemiclassicalParams(sigma, d)
    _check_finite("nu", nu)
    lam = _grid(lambda_grid, "lambda_grid", integer=False)
    lambda_max = lam[-1].item()
    vol = volume(domain)
    spec = enumerate_spectrum(domain, lambda_max)
    surf = _try_surface(domain)
    sliced_ok = sigma >= 1.5 and d >= 2
    mu = sigma + 0.5 * (d - 1)

    eps_metadata = {}
    if nu is not None:
        nu = float(nu)
        nu_mode = "explicit"
    elif sliced_ok:
        eps_info = epsilon_mu(mu)
        nu = 4.0 * eps_info.epsilon
        nu_mode = "default-from-remainder-minimum"
        eps_metadata = {
            "epsilon": eps_info.epsilon,
            "epsilon_argmin_a": eps_info.argmin_a,
            "epsilon_mu": eps_info.mu,
        }
    else:
        nu = math.nan
        nu_mode = "n/a"
    improved_ok = d >= 2 and math.isfinite(nu)
    nu_cap = nu_nonneg_cap(mu) if d >= 2 else math.nan

    scl = _no_overflow("s_classical", sigma, lambda: s_classical(p, vol, lam))
    n = counting(spec, lam)
    s_val = riesz_mean(spec, sigma, lam)
    eta = phase_space_eta(d, vol, lam)
    st = slicing_stats(domain, lam)
    sliced = sliced_bound(domain, p, lam) if sliced_ok else math.nan
    improved = (
        _no_overflow("improved_rhs", sigma, lambda: improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=st.vol_omega_lambda,
            d_lambda=st.d_lambda,
            nu=nu,
        ))
        if improved_ok
        else math.nan
    )
    ms1 = (
        _no_overflow("two_term_riesz", sigma, lambda: two_term_riesz(p, vol, surf, lam))
        if surf is not None and sigma > 0.0
        else math.nan
    )
    values = {
        "lambda": lam,
        "n": n,
        "riesz_mean": s_val,
        "eta": eta,
        "s_classical": scl,
        "sliced_bound": sliced,
        "improved_rhs": improved,
        "two_term_riesz": ms1,
        "vol_omega_lambda": st.vol_omega_lambda,
        "d_lambda": st.d_lambda,
    }
    joins, gap = spec.merge_record()
    return _report(
        "riesz",
        domain,
        sigma,
        values,
        {"sliced_ok": sliced_ok, "improved_ok": improved_ok, "nu": nu, "nu_cap": nu_cap},
        nu=nu,
        nu_mode=nu_mode,
        nu_nonneg_cap=nu_cap,
        lambda_max=lambda_max,
        eigenvalues_enumerated=spec.total_count,
        merge_joins=joins,
        merge_max_gap=gap,
        **eps_metadata,
    )


def _spectrum_for_count(dom: Domain, count: int) -> Spectrum:
    d = dom.dim
    # The start scales like an eigenvalue (a dilation by t divides it by t^2).
    # The cutoff grows by 1.4 until it holds count eigenvalues, the largest
    # float being the last one tried. Once a cutoff exceeds the enumeration
    # limit, the next ones bisect between it and the last cutoff with too few:
    # counts and entries both grow with the cutoff.
    try:
        weyl = ((count + 8) / (lt_value(0.0, d) * volume(dom))) ** (2.0 / d)
    except OverflowError:
        weyl = math.inf
    top = sys.float_info.max
    lam = _in_floats("start cutoff", min(1.35 * weyl, top), dom)
    # The family's engine at the largest float refuses before building any
    # array once past the limit; below it, it gives every eigenvalue there is.
    try:
        every = dom.eigenvalues(top).size
    except EnumerationLimitError:
        every = count
    if every < count:
        below_max = f"{dom!r} has {every} below the largest float"
        raise InsufficientCutoffError(f"could not enumerate {count} eigenvalues: {below_max}")
    below, above, too_many = 0.0, math.inf, None
    while below < lam < above:
        try:
            spec = enumerate_spectrum(dom, lam)
        except EnumerationLimitError as err:
            above, too_many = lam, err
        else:
            if spec.total_count >= count:
                return spec
            below = lam
        lam = min(below * 1.4, top) if too_many is None else math.sqrt(below) * math.sqrt(above)
    if too_many is not None:
        raise too_many
    raise InsufficientCutoffError(
        f"could not enumerate {count} eigenvalues below cutoff {below}"
    )


def sweep_sums(
    domain: Domain,
    sigma: float,
    n_grid: ArrayLike,
    *,
    melas_m: float | None = None,
) -> BoundReport:
    """Partial-sum side over an index grid: Li-Yau family and asymptotics.
    An explicit melas_m, the constant of Melas' bound, must be finite."""
    d = domain.dim
    p = SemiclassicalParams(sigma, d)
    _check_finite("melas_m", melas_m)
    n = _grid(n_grid, "n_grid", integer=True)
    n_max = n[-1].item()
    spec = _spectrum_for_count(domain, n_max)
    vol = volume(domain)
    surf = _try_surface(domain)
    moment = moment_J(domain) if melas_m is not None else None

    eigs = spec.expanded[:n_max]
    lam_n = eigs[n - 1]
    s1 = _no_overflow("s1", sigma, lambda: np.cumsum(eigs)[n - 1])
    if sigma > 0.0:
        scl_sig = _no_overflow(
            "s_classical_sigma", sigma, lambda: sum_classical(p, vol, n)
        )
        s_sig = _no_overflow("s_sigma", sigma, lambda: np.cumsum(eigs**sigma)[n - 1])
    else:
        scl_sig = s_sig = math.nan
    ly = li_yau_rhs(d, vol, n)
    mel = melas_rhs(d, vol, moment, n, melas_m) if melas_m is not None else math.nan
    lam_low = eigenvalue_lower(d, vol, n)
    ms2 = (
        _no_overflow("two_term_sum", sigma, lambda: two_term_sum(p, vol, surf, n))
        if surf is not None and sigma > 0.0
        else math.nan
    )
    if sigma > 1.0:
        conj_expo = sigma / (sigma - 1.0)
        holder_rhs = s_sig ** (1.0 / sigma) * n.astype(float) ** (1.0 / conj_expo)
    else:
        holder_rhs = math.nan
    values = {
        "n_index": n,
        "lambda_n": lam_n,
        "s1": s1,
        "s_sigma": s_sig,
        "s_classical_sigma": scl_sig,
        "li_yau_rhs": ly,
        "melas_rhs": mel,
        "eigenvalue_lower": lam_low,
        "two_term_sum": ms2,
    }
    # the record of the eigenvalues the rows read, whatever the cutoff
    joins, gap = spec.merge_record(n_max)
    return _report(
        "sums",
        domain,
        sigma,
        values,
        {"melas_m": melas_m, "holder_rhs": holder_rhs},
        n_max=n_max,
        cutoff_used=spec.cutoff,
        merge_joins=joins,
        merge_max_gap=gap,
        melas_m="none" if melas_m is None else f"{melas_m} (external constant)",
    )


def asymptotic_diagnostics(
    domain: Domain,
    sigma: float,
    lambda_grid: ArrayLike,
) -> BoundReport:
    """High-energy convergence of the Riesz mean toward its two-term form.

    ratio_main = S / S_classical climbs toward one for sigma >= 2: its slope
    has the sign of sigma z R_{sigma-1}(z) - (sigma + d/2) R_sigma(z), which
    Harrell and Hermi show is nonnegative there. The check ratio_main_monotone
    holds every row to it, with sides scaled_riesz_mean, (sigma + d/2)
    R_sigma(z), and scaled_lower_mean, sigma z R_{sigma-1}(z), which are not
    columns; below sigma = 2 it is n/a. ratio_second compares the observed
    deficit with the boundary term and should drift toward one. Surface
    measure is required, so a union whose boxes touch is rejected.
    """
    if not sigma > 0.0:
        raise ValueError("asymptotic diagnostics require sigma > 0")
    d = domain.dim
    p = SemiclassicalParams(sigma, d)
    lam = _grid(lambda_grid, "lambda_grid", integer=False)
    if lam.size < 2:
        raise ValueError("lambda_grid must hold at least two values")
    surf = surface(domain)
    vol = volume(domain)
    spec = enumerate_spectrum(domain, lam[-1].item())

    scl = _no_overflow("s_classical", sigma, lambda: s_classical(p, vol, lam))
    s_val = riesz_mean(spec, sigma, lam)
    boundary = _no_overflow(
        "boundary_term", sigma, lambda: boundary_term(0.25, sigma, d, surf, lam)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_main = np.where(scl > 0.0, s_val / scl, math.nan)
        ratio_second = np.where(boundary > 0.0, (scl - s_val) / boundary, math.nan)
    values = {
        "lambda": lam,
        "riesz_mean": s_val,
        "s_classical": scl,
        "ratio_main": ratio_main,
        "ratio_second": ratio_second,
    }
    lhs = rhs = math.nan
    if sigma >= 2.0:
        lhs, rhs = _no_overflow("ratio_main_monotone", sigma, lambda: (
            (sigma + 0.5 * d) * s_val, sigma * lam * riesz_mean(spec, sigma - 1.0, lam)
        ))
    return _report(
        "asymptotics",
        domain,
        sigma,
        values,
        {"scaled_riesz_mean": lhs, "scaled_lower_mean": rhs},
        ratio_second_first=ratio_second[0].item(),
        ratio_second_last=ratio_second[-1].item(),
    )
