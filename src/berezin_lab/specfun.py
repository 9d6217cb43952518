"""Special functions: Beta, integer-order Bessel J, Bessel zeros.

Beta goes through the C library's log-Gamma so large arguments do not
overflow, and its symmetry in (a, b) is exact by construction.

One engine gives Bessel J: by the Jacobi-Anger expansion exp(i x sin t) =
sum_j J_j(x) exp(i j t) (DLMF 10.12.1), one FFT of exp(i x sin t) at N
equispaced t gives J_j(x) for every order j at once, negative ones too. This
is the trapezoidal rule on the period, spectrally accurate: each value is
off by the aliases J_{j+kN}(x), k != 0, negligible once N - j clears the
turning point x by a few transition widths x^(1/3). N depends on x and the
highest order read alone, so each value is the same in any batch. bessel_j
uses the ascending series up to x = 6, where it is accurate relative to small
values, and one FFT above.

A unit-step sign scan brackets the zeros of all requested orders at once
(consecutive zeros of J_m are more than one apart). It reads J_j(x) at each
integer x for every order j <= x + P, P = 15, from the engine, and uses the
signs of J_m. Each zero is the root of the degree-P Taylor polynomial of J_m
about the bracket end where |J_m| is smaller; its coefficients come from the
neighbouring orders at that end (DLMF 10.6.7), so no zero costs another FFT.
Newton passes on the polynomial, clipped to the bracket, find the root; the
last pass must move x by at most 1e-13 (1 + |x|), or ConvergenceError names
the order. Measured against 30-digit mpmath, each zero lies within a few ulps
of the true zero: within 6.5e-16 relative for every zero below x = 160, and
within 8e-16 in the samples checked below x = 1000 (the worst are first
zeros, in the turning region x ~ m). A certificate raises ConvergenceError
unless each zero lies in its own scan bracket (a unit interval with a
checked sign change, so each zero is tied to exactly one sign change), each
order's zeros are more than one apart, adjacent orders interlace, j_{m,k} <
j_{m+1,k} < j_{m,k+1} (DLMF 10.21.3), and the sign of J_m(x_max), read for
every order from one more FFT, matches the parity of each order's count,
which catches a lost last zero; the sign test is inconclusive, and skipped,
where |J_m(x_max)| is within ten convergence tolerances of zero. The
certificate covers the count and the order of the zeros, not their last
digits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, NumericFailure

__all__ = [
    "beta",
    "bessel_j",
    "bessel_zeros_below",
]


# Convergence tolerance of each zero (see the module docstring).
_ABS_TOL = 1e-13
_REL_TOL = 1e-13


def beta(a: float, b: float) -> float:
    """Euler Beta function via log-Gamma; NumericFailure, naming (a, b), where a
    log-Gamma or the result overflows, or where cancellation between the
    log-Gammas may leave it off by more than `check_log_gamma_sum` allows."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta requires positive arguments, got {a!r}, {b!r}")
    what = f"beta at a={a!r}, b={b!r}"
    try:
        terms = (math.lgamma(a), math.lgamma(b), math.lgamma(a + b))
        value = math.exp(terms[0] + terms[1] - terms[2])
    except OverflowError:
        raise NumericFailure(f"{what} overflows") from None
    check_log_gamma_sum(what, terms)
    return value


# Relative error allowed in exp of a sum of log-Gammas, 1% of the verdict
# slack: 4 units of 2^-53 of the terms' size bound the sum's rounding error
# (a log-Gamma is within 2 ulps of its value, and each addition rounds once).
_LOG_GAMMA_TOL = 1e-11


def check_log_gamma_sum(what: str, terms: Sequence[float]) -> None:
    """NumericFailure naming `what` where exp of the sum of `terms` may be off
    by more than _LOG_GAMMA_TOL, as where large log-Gammas cancel."""
    size = sum(abs(t) for t in terms)
    if size * 2.0**-51 > _LOG_GAMMA_TOL:
        raise NumericFailure(
            f"{what} cancels: log-Gamma terms of size {size:.3g} leave a relative"
            f" error bound of {size * 2.0**-51:.2g}, above {_LOG_GAMMA_TOL:g}"
        )


# Above this the ascending series starts losing digits to cancellation.
_SERIES_LIMIT = 6.0


def _check_order(m: int) -> None:
    if not (isinstance(m, (int, np.integer)) and not isinstance(m, bool) and m >= 0):
        raise ValueError(f"order must be a nonnegative integer, got {m!r}")


def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind, integer order m >= 0, x >= 0."""
    _check_order(m)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"bessel_j requires finite x >= 0, got {x!r}")
    if x <= _SERIES_LIMIT:
        return _j_series(int(m), float(x))
    return float(_table(np.array([float(x)]), int(m), int(m))[0, 0])


def _j_series(m: int, x: float) -> float:
    if x == 0.0:
        return 1.0 if m == 0 else 0.0
    q = 0.25 * x * x
    term = math.exp(m * math.log(0.5 * x) - math.lgamma(m + 1.0))
    total = term
    for k in range(1, 80):
        term *= -q / (k * (k + m))
        total += term
        if abs(term) <= 1e-17 * (abs(total) + 1e-300):
            break
    return total


# Largest (points x nodes) array the FFT forms at once, and the most Taylor
# coefficients the zero finder holds at once.
_BLOCK = 1 << 18

# Degree of the Taylor polynomial whose root is each zero, and the Newton
# passes taken on it before the converged one (see _taylor_roots).
_DEGREE = 15
_PASSES = 8


def _table(x: np.ndarray, base: int, top: int | np.ndarray) -> np.ndarray:
    """J_j(x) for base <= j <= top at each x: row j - base, one column per x.
    top may be one order for every x or one per x.

    The FFT of exp(i x sin t) at N equispaced t on [0, 2 pi), over N, is
    J_j(x) + sum_{k != 0} J_{j+kN}(x). N is 2n rounded up to a power of two,
    n = ceil((m + x + 14 (x/2)^(1/3) + 20) / 2) at m = max(top, x + P) + 1,
    so every alias order has size above x + 14 (x/2)^(1/3) + 20 and the
    aliases are negligible. N depends on x and top alone, so each value is
    the same in any batch. Points of equal N go through the FFT in blocks of
    at most _BLOCK values.
    """
    top = np.broadcast_to(top, x.shape)
    # Python's ** is C pow; np.power may differ from it in the last bit.
    root = np.array([v ** (1.0 / 3.0) for v in (0.5 * x).tolist()])
    m = np.maximum(top, x + _DEGREE) + 1
    nodes = np.ceil(0.5 * (m + x + 14.0 * root + 20.0)).astype(np.int64)
    sizes = 2 ** np.ceil(np.log2(2.0 * nodes)).astype(np.int64)
    table = np.empty((top.max() + 1 - base, x.size))
    groups = np.flatnonzero(np.diff(sizes, prepend=-1))
    for g, g_end in zip(groups, np.append(groups[1:], x.size)):
        n = int(sizes[g])
        sin = np.sin(2.0 * math.pi / n * np.arange(n))
        rows = max(1, _BLOCK // n)
        for s in range(g, g_end, rows):
            e = min(s + rows, g_end)
            coef = np.fft.fft(np.exp(1j * np.multiply.outer(x[s:e], sin))).real
            j = np.arange(base, top[s:e].max() + 1)
            table[: j.size, s:e] = coef[:, j % n].T / n
    return table


def _brackets(
    orders: np.ndarray, x_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Brackets (m, lo, hi) with lo < x_max around the zeros of each J_m, in
    order, and each zero (see _taylor_roots).

    J_m is positive on (0, j_{m,1}) and zeros are separated by more than one,
    so scanning x = m, m + 1, ... cannot skip a sign change; a grid value of
    exactly zero gets the bracket of width one centred on it.

    The table (see _table) keeps the orders m - P .. m + P of every
    requested m <= x, P = _DEGREE, at each integer x.
    """
    points = np.arange(orders[0], math.floor(x_max) + 2)
    base = orders[0] - _DEGREE  # table row r holds order base + r
    table = _table(points, base, np.minimum(points, orders[-1]) + _DEGREE)
    scanned = orders[:, None] <= points  # x = m, m + 1, ... for each order
    m = np.broadcast_to(orders[:, None], scanned.shape)[scanned]
    col = np.broadcast_to(np.arange(points.size), scanned.shape)[scanned]
    x = points[col].astype(float)
    f = table[m - base, col]
    x1, x2, f1, f2 = x[:-1], x[1:], f[:-1], f[1:]
    zero = f2 == 0.0
    lo = np.where(zero, x2 - 0.5, x1)
    found = (m[:-1] == m[1:]) & (zero | (f1 * f2 < 0.0)) & (lo < x_max)
    lo, hi = lo[found], np.where(zero, x2 + 0.5, x2)[found]
    near = np.where(abs(f2) <= abs(f1), col[1:], col[:-1])[found]  # smaller |J_m|
    m = m[1:][found]
    x0 = points[near].astype(float)
    return m, lo, hi, _taylor_roots(table, base, m, near, x0, lo, hi)


def _taylor_roots(
    table: np.ndarray,
    base: int,
    m: np.ndarray,
    cols: np.ndarray,
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """The zero of J_m in [lo, hi]: the root of the degree-P Taylor polynomial
    of J_m about x0, where table[j - base, col] holds J_j(x0).

    Its coefficients are J_m^(k)(x0) / k! with J_m^(k) = 2^-k sum_j (-1)^j
    C(k, j) J_{m-k+2j} (DLMF 10.6.7), so they cost no further FFT. As
    |J_m^(k)| <= 1, the polynomial is off by at most |t|^(P+1) / (P+1)! at
    t = x - x0. _PASSES Newton passes on it from t = 0, each clipped to the
    bracket, then one more whose step must be within _ABS_TOL + _REL_TOL |x|,
    or ConvergenceError names the order. A fixed number of passes and sums
    taken in a fixed order make every root independent of the batch.
    Brackets go in blocks of at most _BLOCK coefficients.
    """
    out = np.empty(x0.size)
    per = max(1, _BLOCK // (_DEGREE + 1))
    for s in range(0, x0.size, per):
        b = slice(s, s + per)
        coef, rows = np.zeros((_DEGREE + 1, x0[b].size)), m[b] - _DEGREE - base
        for i in range(2 * _DEGREE + 1):
            values = table[rows + i, cols[b]]  # J_{m-P+i}(x0) = J_{m-k+2j}(x0)
            for k in range(abs(i - _DEGREE), _DEGREE + 1, 2):
                j = (i - _DEGREE + k) // 2
                w = (-1) ** j * math.comb(k, j) / (2.0**k * math.factorial(k))
                coef[k] += w * values
        t, t_lo, t_hi = np.zeros(coef.shape[1]), lo[b] - x0[b], hi[b] - x0[b]
        for _ in range(_PASSES + 1):
            p, dp = coef[_DEGREE], 0.0
            for c in coef[-2::-1]:
                p, dp = p * t + c, dp * t + p
            with np.errstate(divide="ignore", invalid="ignore"):
                step = p / dp
            t = np.clip(t - step, t_lo, t_hi)
        out[b] = x0[b] + t
        slow = ~(abs(step) <= _ABS_TOL + _REL_TOL * abs(out[b]))  # NaN too
        if slow.any():
            raise ConvergenceError(
                f"zero of order {m[b][slow][0]} not within tolerance"
                f" after {_PASSES + 1} Taylor-root passes"
            )
    return out


def _certify(
    orders: np.ndarray, zeros: list[np.ndarray], x_max: float, strays: np.ndarray
) -> None:
    """Raise ConvergenceError if an order is in strays (the orders of zeros
    found outside their own scan bracket), or unless each order's zeros are
    more than one apart, adjacent orders interlace, and sign(J_m(x_max)) =
    (-1)^count (J_m > 0 below its first zero). As |J_m'| <= 1, a zero within
    tolerance of x_max may lie on either side, so the sign test is
    inconclusive, and skipped, where |J_m(x_max)| <= 10 (_ABS_TOL + _REL_TOL
    x_max): about 1e-12 for small x_max. One FFT gives every J_m(x_max)."""
    z = np.full((len(zeros), max(map(len, zeros)) + 1), math.inf)
    for row, zs in zip(z, zeros):
        row[: len(zs)] = zs
    a, b, end = z[:-1], z[1:], np.isinf(z)
    ok = (a < b) | (end[:-1] & end[1:])
    ok[:, :-1] &= (b[:, :-1] < a[:, 1:]) | end[:-1, 1:]
    apart = (z[:, 1:] > z[:, :-1] + 1.0) | end[:, 1:]
    bad = ~apart.all(axis=1) | np.isin(orders, strays)
    bad[:-1] |= (np.diff(orders) == 1) & ~ok.all(axis=1)
    f = _table(np.array([float(x_max)]), orders[0], orders[-1])[orders - orders[0], 0]
    odd = np.array([len(zs) % 2 == 1 for zs in zeros])
    bad |= (abs(f) > 10.0 * (_ABS_TOL + _REL_TOL * x_max)) & ((f < 0.0) != odd)
    if bad.any():
        raise ConvergenceError(
            f"zeros of order {orders[bad][0]} fail the bracket, spacing,"
            " interlacing or sign certificate"
        )


def bessel_zeros_below(
    m: int | Sequence[int], x_max: float
) -> list[float] | list[list[float]]:
    """All positive zeros of J_m strictly below x_max, ascending.

    m is one order, giving one list, or a strictly increasing sequence of
    orders, giving one list per order, found in one batch.
    """
    single = np.ndim(m) == 0
    orders = [m] if single else list(m)
    for order in orders:
        _check_order(order)
    orders = np.array(orders, dtype=np.int64)
    if orders.size == 0 or np.any(np.diff(orders) <= 0):
        raise ValueError(f"orders must be a strictly increasing sequence, got {m!r}")
    if not (x_max > 0.0 and math.isfinite(x_max)):
        raise ValueError(f"x_max must be positive and finite, got {x_max!r}")
    bm, lo, hi, z = _brackets(orders, x_max)
    below = z < x_max
    zeros = np.split(z[below], np.searchsorted(bm[below], orders[1:]))
    _certify(orders, zeros, x_max, strays=bm[(z < lo) | (z > hi)])
    lists = [zs.tolist() for zs in zeros]
    return lists[0] if single else lists
