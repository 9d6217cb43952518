"""Grid sweeps over spectral cutoffs and eigenvalue counts, with verdicts.

Each sweep enumerates the spectrum once at the grid maximum, evaluates every
column over the whole grid at once as an array, and keeps those arrays as the
report's table; row dicts are built only on request.

Inequality verdicts use a fixed scale-aware slack of 1e-9:
lhs <= rhs + 1e-9 * max(1, |rhs|). A fail verdict always sits next to the raw
values and the signed margin rhs - lhs, which does not depend on the slack,
so violations are quantified, not just flagged, and any other tolerance can
be applied to the margins afterwards.

CSV bytes are those of printing every float with `%.17g` (NaN as an empty
field) and every integer in full. A block of rows becomes one byte matrix in
numpy, with a fixed-width slot per cell: numbers with 1 <= |v| < 1e17 (2^53
for integers) get their digits there in numpy, and verdicts theirs from a
table; Python formats the other cells, whose bytes are copied in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

import numpy as np
from numpy.typing import ArrayLike

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
    AxisBox,
    BoxUnion,
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

__all__ = [
    "BoundReport",
    "sweep_riesz",
    "sweep_sums",
    "asymptotic_diagnostics",
]

@dataclass
class BoundReport:
    """Sweep result: a table stored as columns, plus run metadata.

    `columns` maps each CSV column name, in order, to an array with one entry
    per row: integers, floats (NaN for a missing value) or strings. Verdict
    columns hold 'pass', 'fail', or 'n/a'; each has a sibling
    '<name>_margin' column with the signed gap rhs - lhs.
    """

    kind: str
    columns: dict[str, np.ndarray]
    checks: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    @property
    def rows(self) -> list[dict]:
        """One dict of Python scalars per row, built on demand."""
        cols = [c.tolist() for c in self.columns.values()]
        return [dict(zip(self.columns, row)) for row in zip(*cols)]

    def failures(self) -> list[tuple[int, str, float]]:
        """(row, check, margin) per failing verdict, then (-1, key, nan) per
        failing '*_verdict' metadata entry."""
        hits = sorted(
            (i, k)
            for k, c in enumerate(self.checks)
            for i in np.flatnonzero(self.columns[c] == "fail").tolist()
        )
        out = [
            (i, self.checks[k], self.columns[f"{self.checks[k]}_margin"][i].item())
            for i, k in hits
        ]
        for key, value in self.metadata.items():
            if key.endswith("_verdict") and value == "fail":
                out.append((-1, key, math.nan))
        return out

    @property
    def all_passed(self) -> bool:
        return not self.failures()

    def to_csv(self, dest: str | Path | IO[str]) -> None:
        if isinstance(dest, (str, Path)):
            with open(dest, "w", newline="") as fh:
                self._write_csv(fh)
        else:
            self._write_csv(dest)

    def _write_csv(self, fh: IO[str]) -> None:
        fh.write(f"# berezin-lab v{TOOL_VERSION}\n" + ",".join(self.columns) + "\n")
        fh.writelines(self._csv_blocks(slice(None)))

    def _csv_blocks(self, which: slice) -> Iterator[str]:
        """CSV lines of the rows selected, _CSV_BLOCK rows per string.

        A block is one byte matrix with a _SLOT-byte slot per cell, whose last
        byte is the cell's separator, and a keep mask made from where the text
        of each slot ends: the block's text is the kept bytes, in order.
        Numbers with 1 <= |v| < 1e17 (2^53 for integers) get the digits of
        `"%.17g" % v` from `_number_slots`, verdicts their bytes from a table,
        NaN nothing; Python formats the other cells, and their bytes are
        copied in (a slot widens to the longest).
        """
        cols = [c[which] for c in self.columns.values()]
        num = [j for j, c in enumerate(cols) if c.dtype.kind in "biuf"]
        ints = [cols[j].dtype.kind != "f" for j in num]
        limit = np.where(ints, 2.0**53, 1e17)
        for lo in range(0, len(cols[0]) if cols else 0, _CSV_BLOCK):
            block = [c[lo : lo + _CSV_BLOCK] for c in cols]
            shape = (len(block[0]), len(block))
            # One past the last text byte of each slot, and whether its byte 0
            # is not text (a positive number's, which holds "-").
            stop, unsigned = np.zeros(shape, np.intp), np.zeros(shape, bool)
            # (cells, (their bytes, byte counts)): string and object columns,
            # then the numbers that the kernel leaves to Python.
            text = [
                ((slice(None), j), _column_text(c))
                for j, c in enumerate(block)
                if j not in num
            ]
            if num:
                x = np.stack([block[j] for j in num], axis=1, dtype=float)
                slots, unsigned[:, num], stop[:, num], left = _number_slots(x, limit)
                r, k = np.nonzero(left)
                cells = ["%.17g" % v for v in x[r, k].tolist()]
                for i in np.flatnonzero(np.take(ints, k)).tolist():
                    cells[i] = "%d" % block[num[k[i]]][r[i]].item()  # exact
                text.append(((r, np.take(num, k)), _text_bytes(cells)))
            width = max([_SLOT, *(t.shape[1] + 1 for _, (t, _) in text)])
            buf = np.empty((*shape, width), np.uint8)
            if num:
                buf[..., :_SLOT].view(_ITEM)[:, num] = slots.view(_ITEM)
                del slots
            for at, (t, n) in text:
                buf[at + (slice(t.shape[1]),)], stop[at] = t, n
            buf[:, :, -1], buf[:, -1, -1] = ord(","), ord("\n")
            # [t]: the bytes below t; the width only exceeds _SLOT when a
            # text cell is longer than 24 bytes.
            below = np.arange(width) < np.arange(width + 1)[:, None]
            keep = np.take(below, stop, axis=0)
            keep[..., 0] &= ~unsigned
            keep[..., -1] = True
            data = buf[keep]
            del buf, keep  # before the block's text is made
            yield str(data.data, "utf-8", "surrogatepass")

    def summary(self) -> str:
        lines = [f"berezin-lab v{TOOL_VERSION} {self.kind} report"]
        for key in sorted(self.metadata):
            lines.append(f"  {key}: {self.metadata[key]}")
        lines.append(f"  rows: {self.n_rows}")
        for c in self.checks:
            states = self.columns[c]
            n_pass, n_fail, n_na = (np.count_nonzero(states == v) for v in _VERDICTS)
            line = f"  check {c}: pass={n_pass} fail={n_fail} n/a={n_na}"
            margins = self.columns[f"{c}_margin"]
            if not np.isnan(margins).all():
                i = int(np.nanargmin(margins))  # the first row on ties
                line += f" worst_margin={margins[i].item():.6g} (row {i})"
            lines.append(line)
        fails = self.failures()
        if fails:
            lines.append(f"  VERDICT: FAIL ({len(fails)} failing entries)")
            worst = min(
                (f for f in fails if not math.isnan(f[2])),
                key=lambda f: f[2],
                default=fails[0],
            )
            if worst[0] >= 0:
                cells = next(self._csv_blocks(slice(worst[0], worst[0] + 1)))
                detail = ", ".join(
                    f"{c}={v}" for c, v in zip(self.columns, cells[:-1].split(","))
                )
                lines.append(f"  worst row [{worst[0]}] {worst[1]}: {detail}")
            else:
                lines.append(f"  failing metadata check: {worst[1]}")
        else:
            lines.append("  VERDICT: PASS")
        return "\n".join(lines)


# Rows formatted per string written, so a long table is never one string.
_CSV_BLOCK = 1024
# Bytes per cell slot: room for the widest "%.17g" text, 24 bytes, then the
# separator; a number's slot moves as one item of this dtype.
_SLOT = 25
_ITEM = np.dtype(("V", _SLOT))
# One str object per verdict, shared by every row.
_VERDICTS = np.array(("pass", "fail", "n/a"), dtype=object)

# 10^k, exact as a double for k <= 22, with its Veltkamp split into halves of
# at most 26 bits whose products are exact; and the decimal exponent of 2^b.
_POW10 = np.array([float(10**k) for k in range(19)])
_POW10_HI = 134217729.0 * _POW10 - (134217729.0 * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_DECIMAL_EXP = np.array([len(str(2**b)) - 1 for b in range(57)])
# (d, m, s, lanes, bits): x * m >> s is x // d in each lane of the lanes mask
# for every x below 10^8, 10^4 and 100 in turn; the remainder moves up bits.
_DIGIT_SPLITS = (
    (10**4, 109951163, 40, 0x3FFF, 32),
    (100, 10486, 20, 0x0000007F0000007F, 16),
    (10, 103, 10, 0x000F000F000F000F, 8),
)
# [:, e]: words 1-3 of a number's slot with the bytes below its point, 8 + e.
_BELOW_POINT = tuple(
    tuple((1 << 8 * max(0, e - 8 * w)) - 1 if e < 8 * w + 8 else -1 for e in range(17))
    for w in range(3)
)


def _column_text(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_text_bytes` of the cells of a column: those of a column of verdicts
    from a table, those of any other column through str."""
    hits = col == _VERDICTS[:, None] if col.dtype.kind in "OU" else None
    if hits is None or not hits.any(0).all():
        return _text_bytes(map(str, col.tolist()))
    table, size = _text_bytes(_VERDICTS)
    codes = hits.argmax(0)
    return np.take(table, codes, axis=0), np.take(size, codes)


def _text_bytes(cells: Iterable[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of each str, one row each, padded to the longest, and
    the number of bytes of each."""
    data = [c.encode("utf-8", "surrogatepass") for c in cells]
    size = np.array([len(b) for b in data], dtype=np.intp)
    width = int(size.max(initial=0))
    raw = np.array(data, dtype=f"S{max(width, 1)}").view(np.uint8)
    return raw.reshape(len(data), max(width, 1))[:, :width], size


def _number_slots(x: np.ndarray, limit: np.ndarray) -> tuple[np.ndarray, ...]:
    """Slots of `"%.17g" % v` for the float64 array x where 1 <= |v| < limit
    (at most 1e17, broadcast against x), whose text runs from byte 0, or 1
    where v > 0 (the first array of masks), to one before the second array, 0
    for the other values; and the mask of those other values but NaN, which
    are left to Python."""
    a = np.abs(x)
    fast = (a >= 1.0) & (a < limit)  # false for NaN
    a[~fast] = 1.0
    slots, stop = _digit_slots(*_decimal17(a.reshape(-1)))
    stop = np.where(fast, stop.reshape(x.shape), 0)
    return slots.reshape(*x.shape, _SLOT), fast & (x > 0), stop, ~fast & ~np.isnan(x)


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e and N for 1 <= a < 1e17: 10^e <= a < 10^(e+1), and N is the integer
    nearest a * 10^(16-e), ties to even, so its digits are those of %.17g.

    Dekker's two-product gives a * 10^(16-e) exactly as p + err, and p >= 2^53
    is even, so N = p + rint(err). N stays below 10^17: the float below
    10^(e+1) is over 11 units lower.
    """
    # frexp's int32 exponents are widened at once here and below: int32
    # arithmetic would page in more of numpy's code, about 130 KiB of RSS.
    binade = np.frexp(a)[1].astype(np.int64) - 1
    e = np.take(_DECIMAL_EXP, binade)  # that of the binade's lower end
    e += a >= np.take(_POW10, e + 1)  # a binade holds at most one power of 10
    k = 16 - e
    p = a * np.take(_POW10, k)
    c = 134217729.0 * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return e, p.astype(np.int64) + np.rint(err).astype(np.int64)


def _digit_slots(e: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slots holding "-", then the 17 digits of n with a point after e + 1 of
    them; and one past the last byte of each slot's text, which drops
    trailing fraction zeros (and a bare point). n is overwritten.

    Each number is built in four little-endian words, bytes 0-31: "-" and the
    first digit are bytes 6 and 7, the other digits follow from byte 8, and
    its slot is bytes 6 to 30.
    """
    # The first digit, then two words of 8 digits, each split into halves in
    # 32-bit lanes, quarters in 16-bit lanes and digits in bytes.
    top = n // 10**16
    n -= top * 10**16
    v = np.empty((2, n.size), np.int64)
    np.floor_divide(n, 10**8, out=v[0])
    np.subtract(n, v[0] * 10**8, out=v[1])
    del n
    for d, m, s, lanes, bits in _DIGIT_SPLITS:
        q = v * m
        q >>= s
        q &= lanes
        v -= q * d
        v <<= bits
        v |= q
    # The last nonzero digit: frexp's exponent locates the top nonzero byte
    # of each word of digits (0 for a word of zeros).
    nz = (np.frexp(v)[1].astype(np.int64) - 1) >> 3
    last = np.where(nz[1] >= 0, 9 + nz[1], 1 + nz[0])
    del nz
    # Words 1-3 hold those digits in ASCII, then nothing; the point goes to
    # byte 8 + e, and the bytes from there on move up one, a shift of the
    # three words as one little-endian number.
    words = np.zeros((3, v.shape[1]), np.int64)
    np.bitwise_or(v, 0x3030303030303030, out=words[:2])
    del v
    up = words & 0xFFFFFFFFFFFFFF  # the top byte moves out
    up <<= 8
    up[1:] |= words[:2] >> 56
    words ^= up
    words &= np.take(_BELOW_POINT, e, axis=1)
    words ^= up
    del up
    slots = np.empty((top.size, 4), "<i8")
    slots[:, 0] = (top + 0x30) << 56 | ord("-") << 48
    slots[:, 1], slots[:, 2], slots[:, 3] = words
    raw = slots.view(np.uint8)
    raw.reshape(-1)[np.arange(8, 32 * top.size, 32) + e] = ord(".")
    return raw[:, 6 : 6 + _SLOT], np.where(last > e, last + 3, e + 2)


# Relative tolerance granted to every inequality verdict.
_SLACK = 1e-9


def _check_finite(name: str, value: float | None) -> None:
    """An explicit constant: a non-finite one would turn its checks into n/a."""
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {float(value)!r}")


def _no_overflow(
    name: str, sigma: float, compute: Callable[[], ArrayLike]
) -> ArrayLike:
    """compute(), or NumericFailure naming the column if it overflows a float."""
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


def _check_le(lhs: ArrayLike, rhs: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise verdicts of lhs <= rhs with _SLACK, and margins rhs - lhs."""
    lhs, rhs = np.broadcast_arrays(
        np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    )
    na = np.isnan(lhs) | np.isnan(rhs)
    ok = lhs <= rhs + _SLACK * np.maximum(1.0, np.abs(rhs))
    verdict = _VERDICTS[np.where(na, 2, np.where(ok, 0, 1))]
    return verdict, np.where(na, math.nan, rhs - lhs)


def _table(size: int, values: dict, checks: dict) -> dict[str, np.ndarray]:
    """Report columns from whole-grid values (a scalar is a constant column)
    and (verdicts, margins) per check."""
    columns = dict(values)
    for name, (verdict, margin) in checks.items():
        columns.update({name: verdict, f"{name}_margin": margin})
    return {k: np.broadcast_to(v, (size,)) for k, v in columns.items()}


def _try_surface(dom: Domain) -> float | None:
    try:
        return surface(dom)
    except UnsupportedDomainError:
        return None


def _report(
    kind: str, domain: Domain, sigma: float, values: dict, checks: dict, **metadata
) -> BoundReport:
    """A sweep's report: `values` then `checks`, in their order, are its table,
    with one row per entry of the first value (the grid); the metadata every
    kind shares is followed by `metadata`."""
    columns = _table(len(next(iter(values.values()))), values, checks)
    metadata = {
        "tool_version": TOOL_VERSION,
        "kind": kind,
        "domain": repr(domain),
        "sigma": sigma,
        "slack": _SLACK,
        **metadata,
    }
    return BoundReport(kind, columns, tuple(checks), metadata)


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
    tiling = isinstance(domain, (AxisBox, BoxUnion))
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
    # The corrected bound is nonnegative on every domain only for nu up to
    # this cap, so improved_nonneg is n/a above it.
    nu_cap = nu_nonneg_cap(mu) if d >= 2 else math.nan

    scl = _no_overflow("s_classical", sigma, lambda: s_classical(p, vol, lam))
    n = counting(spec, lam)
    s_val = riesz_mean(spec, sigma, lam)
    eta = phase_space_eta(d, vol, lam)
    st = slicing_stats(domain, lam)
    sliced = sliced_bound(domain, p, lam) if sliced_ok else math.nan
    improved = (
        improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=st.vol_omega_lambda,
            d_lambda=st.d_lambda,
            nu=nu,
            exploratory=nu_mode == "explicit",
        )
        if improved_ok
        else math.nan
    )
    ms1 = (
        two_term_riesz(p, vol, surf, lam)
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
    checks = {
        "s_le_sliced": _check_le(s_val, sliced),
        "sliced_le_improved": _check_le(sliced, improved),
        "improved_le_classical": _check_le(improved, scl),
        # A NaN side turns a check that does not apply into n/a.
        "berezin": _check_le(s_val, scl if sigma >= 1.0 else math.nan),
        "polya": _check_le(n, eta if tiling else math.nan),
        "improved_nonneg": _check_le(
            0.0, improved if nu <= nu_cap * (1.0 + 1e-12) else math.nan
        ),
    }
    return _report(
        "riesz",
        domain,
        sigma,
        values,
        checks,
        nu=nu,
        nu_mode=nu_mode,
        nu_nonneg_cap=nu_cap,
        lambda_max=lambda_max,
        eigenvalues_enumerated=spec.total_count,
        merge_joins=spec.merge_joins,
        merge_max_gap=spec.merge_max_gap,
        **eps_metadata,
    )


def _spectrum_for_count(dom: Domain, count: int) -> Spectrum:
    d = dom.dim
    # The start scales like an eigenvalue (a dilation by t divides it by t^2).
    # The cutoff grows by 1.4 until it holds count eigenvalues. Once a cutoff
    # exceeds the enumeration limit, the next ones bisect between it and the
    # last cutoff with too few: counts and entries both grow with the cutoff.
    weyl = ((count + 8) / (lt_value(0.0, d) * volume(dom))) ** (2.0 / d)
    lam = _in_floats("start cutoff", 1.35 * weyl, dom)
    if isinstance(dom, (AxisBox, BoxUnion)):
        with np.errstate(divide="ignore", over="ignore"):
            first = math.pi**2 * (1.0 / np.square([b.sides for b in dom.boxes])).sum(1)
        if np.isinf(first).all():
            raise InsufficientCutoffError(
                f"could not enumerate {count} eigenvalues: the first eigenvalue of "
                "every box, pi^2 times the sum of its sides^-2, overflows a float"
            )
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
        lam = below * 1.4 if too_many is None else math.sqrt(below) * math.sqrt(above)
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

    eigs = spec.expanded
    lam_n = eigs[n - 1]
    s1 = np.cumsum(eigs)[n - 1]
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
    # NaN without melas_m, or for sigma <= 1, makes those checks n/a.
    checks = {
        "li_yau": _check_le(ly, s1),
        "lambda_lower": _check_le(lam_low, lam_n),
        "melas": _check_le(mel, s1),
        "holder_upper": _check_le(s1, holder_rhs),
    }
    # the record of the eigenvalues the rows read, whatever the cutoff
    joins, gap = spec.merge_record(n_max)
    return _report(
        "sums",
        domain,
        sigma,
        values,
        checks,
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

    ratio_main = S / S_classical climbs toward one along the grid rows whose
    Riesz mean is positive, strictly for sigma >= 2, where its verdict
    applies (it is n/a below); ratio_second compares the observed deficit
    with the boundary term and should drift toward one. Surface measure is
    required, so a union whose boxes touch is rejected.
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
    boundary = boundary_term(0.25, sigma, d, surf, lam)
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
    checks = {"berezin": _check_le(s_val, scl if sigma >= 1.0 else math.nan)}
    # ratio_main is 0 below the first eigenvalue, so only rows above it rise;
    # that it rises is a theorem only for sigma >= 2 (Harrell-Hermi).
    rising = ratio_main[s_val > 0.0]
    monotone = bool((rising[1:] > rising[:-1]).all())
    return _report(
        "asymptotics",
        domain,
        sigma,
        values,
        checks,
        ratio_main_monotone_verdict=(
            "n/a" if sigma < 2.0 else "pass" if monotone else "fail"
        ),
        ratio_second_first=ratio_second[0].item(),
        ratio_second_last=ratio_second[-1].item(),
    )
