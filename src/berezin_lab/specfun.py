"""Special functions: Beta, integer-order Bessel J, Bessel zeros.

Beta goes through the C library's log-Gamma so large arguments do not
overflow, and its symmetry in (a, b) is exact by construction.

The Bessel evaluator combines the ascending series (small argument) with
trapezoidal quadrature of the cosine integral representation

    J_m(x) = (1/pi) * int_0^pi cos(m*theta - x*sin(theta)) dtheta.

The integrand extends to a smooth even 2*pi-periodic function, so the
trapezoidal rule is spectrally accurate; aliasing leaves an error of order
J_{2n-m}(x), which is negligible once 2n - m clears the turning point x by a
few transition widths x^(1/3).

One batched engine serves every Bessel routine: its kernel evaluates (m, x)
points in groups of equal node count, each with exactly the arithmetic of a
lone evaluation. A unit-step sign scan brackets the zeros of all requested
orders at once (consecutive zeros of J_m are more than one apart). It reads
J_j(x) at each integer x for every order j <= x + P, P = 15, negative ones
too, from one FFT of exp(i x sin t) (Jacobi-Anger, DLMF 10.12.1), on a
power-of-two node count no smaller than the kernel's 2n at m = x + P + 1, so
its aliasing is as negligible as the kernel's. The scan uses the signs of
J_m. Each zero's Newton refinement starts at the root of the degree-P Taylor
polynomial of J_m about the bracket end where |J_m| is smaller; its
coefficients come from the neighbouring orders at that end (DLMF 10.6.7),
at no kernel cost, and the start lies within 2e-15 (1 + x) of the zero (the
largest gap for x < 1000). From these starts, Newton steps with
J_m' = (m/x) J_m - J_{m+1} (DLMF 10.6.2) refine all brackets in lockstep;
every zero below x = 1000 takes one step.
A step that lands in the closed bracket is taken and any other step bisects;
a step within tolerance ends the refinement, also when it rounds onto a
bracket end, so each zero is a converged Newton iterate, within a few ulps
of the true zero. A certificate raises ConvergenceError unless each zero
lies in its own scan bracket (a unit interval with a checked sign change, so
each zero is tied to exactly one sign change), each order's zeros are more
than one apart, adjacent orders interlace, j_{m,k} < j_{m+1,k} < j_{m,k+1}
(DLMF 10.21.3), and the sign of J_m(x_max) matches the parity of each
order's count, which catches a lost last zero; the sign test is
inconclusive, and skipped, where |J_m(x_max)| is within ten refinement
tolerances of zero.

The refinement tolerance is fixed: a step is within tolerance once it moves
x by at most 1e-13 (1 + |x|), and a zero that needs more than 100 steps
raises ConvergenceError.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .errors import ConvergenceError

__all__ = [
    "beta",
    "bessel_j",
    "bessel_zeros_below",
]


# Refinement tolerance and step budget (see the module docstring).
_ABS_TOL = 1e-13
_REL_TOL = 1e-13
_MAX_ITER = 100


def beta(a: float, b: float) -> float:
    """Euler Beta function via log-Gamma."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta requires positive arguments, got {a!r}, {b!r}")
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


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
    return float(_j(np.array([int(m)]), np.array([float(x)]))[0])


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


# Largest (points x nodes) array the quadrature, or the scan's FFT, forms at
# once, and the most Taylor coefficients the Newton starts hold at once.
_BLOCK = 1 << 18

# Degree of the Taylor polynomial that starts each zero's Newton refinement,
# and the Newton passes taken on it (see _taylor_starts).
_DEGREE = 15
_PASSES = 8


def _node_count(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid intervals n on [0, pi] for J_m(x): the aliasing term
    J_{2n-m}(x) has 2n - m >= x + 14 (x/2)^(1/3) + 20."""
    # Python's ** is C pow; np.power may differ from it in the last bit.
    root = np.array([v ** (1.0 / 3.0) for v in (0.5 * x).tolist()])
    return np.ceil(0.5 * (m + x + 14.0 * root + 20.0)).astype(np.int64)


@functools.cache
def _nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 trapezoid nodes on [0, pi] and their sines, made once per n."""
    theta = np.linspace(0.0, math.pi, n + 1)
    sin = np.sin(theta)
    theta.flags.writeable = sin.flags.writeable = False
    return theta, sin


def _j(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_m(x) elementwise over 1-D arrays of orders m >= 0 and x >= 0."""
    out = np.empty(x.shape)
    small = x <= _SERIES_LIMIT
    out[small] = [_j_series(a, b) for a, b in zip(m[small].tolist(), x[small].tolist())]
    big = np.flatnonzero(~small)
    nodes = _node_count(m[big], x[big])
    order = np.argsort(nodes, kind="stable")
    big, nodes = big[order], nodes[order]
    starts = np.flatnonzero(np.diff(nodes, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], len(big))):
        n = int(nodes[lo])
        theta, sin = _nodes(n)
        rows = max(1, _BLOCK // (n + 1))
        for s in range(lo, hi, rows):
            i = big[s : min(s + rows, hi)]
            vals = np.cos(m[i, None] * theta - x[i, None] * sin)
            out[i] = (0.5 * (vals[:, 0] + vals[:, -1]) + vals[:, 1:-1].sum(axis=1)) / n
    return out


def _brackets(
    orders: np.ndarray, x_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Brackets (m, lo, hi) with lo < x_max around the zeros of each J_m, in
    order, and a Newton start for each zero (see _taylor_starts).

    J_m is positive on (0, j_{m,1}) and zeros are separated by more than one,
    so scanning x = m, m + 1, ... cannot skip a sign change; a grid value of
    exactly zero gets the bracket of width one centred on it.

    One FFT per integer x gives J_j(x) for every order j, negative ones too:
    by DLMF 10.12.1, exp(i x sin t) = sum_j J_j(x) exp(i j t), so the FFT of
    its values at N equispaced t on [0, 2 pi), over N, is J_j(x) +
    sum_{k != 0} J_{j+kN}(x). The table keeps the orders m - P .. m + P of
    every requested m <= x, P = _DEGREE. N is the kernel's node count on the
    whole period at order x + P + 1, 2 n(x + P + 1, x), rounded up to a power
    of two, so each alias has order at least N - x - P > x + 14 (x/2)^(1/3) +
    20, as negligible as the kernel's. N depends on x alone, so each value,
    and each start, is the same in any batch.
    """
    points = np.arange(orders[0], math.floor(x_max) + 2)
    nodes = _node_count(points + _DEGREE + 1, points)
    sizes = 2 ** np.ceil(np.log2(2.0 * nodes)).astype(np.int64)
    base = orders[0] - _DEGREE  # table row r holds order base + r
    table = np.empty((orders[-1] + _DEGREE + 1 - base, points.size))
    groups = np.flatnonzero(np.diff(sizes, prepend=-1))
    for g, g_end in zip(groups, np.append(groups[1:], points.size)):
        n = int(sizes[g])
        sin = np.sin(2.0 * math.pi / n * np.arange(n))
        rows = max(1, _BLOCK // n)
        for s in range(g, g_end, rows):
            xs = points[s : min(s + rows, g_end)]
            coef = np.fft.fft(np.exp(1j * np.multiply.outer(xs, sin))).real
            j = np.arange(base, min(xs[-1], orders[-1]) + _DEGREE + 1)
            table[: j.size, s : s + xs.size] = coef[:, j % n].T / n
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
    return m, lo, hi, _taylor_starts(table, m - orders[0], near, x0, lo, hi)


def _taylor_starts(
    table: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    x0: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Newton starts in [lo, hi]: the root of the degree-P Taylor polynomial of
    J_m about x0, where table[row + i, col] holds J_{m-P+i}(x0), i <= 2P.

    Its coefficients are J_m^(k)(x0) / k! with J_m^(k) = 2^-k sum_j (-1)^j
    C(k, j) J_{m-k+2j} (DLMF 10.6.7), so they cost no kernel points. As
    |J_m^(k)| <= 1, the polynomial is off by at most |t|^(P+1) / (P+1)! at
    t = x - x0. A fixed number of Newton passes on it, each clipped to the
    bracket, and sums taken in a fixed order make every start independent of
    the batch. Brackets go in blocks of at most _BLOCK coefficients.
    """
    out = np.empty(x0.size)
    per = max(1, _BLOCK // (_DEGREE + 1))
    for s in range(0, x0.size, per):
        b = slice(s, s + per)
        coef = np.zeros((_DEGREE + 1, x0[b].size))
        for i in range(2 * _DEGREE + 1):
            values = table[rows[b] + i, cols[b]]  # J_{m-P+i}(x0) = J_{m-k+2j}(x0)
            for k in range(abs(i - _DEGREE), _DEGREE + 1, 2):
                j = (i - _DEGREE + k) // 2
                w = (-1) ** j * math.comb(k, j) / (2.0**k * math.factorial(k))
                coef[k] += w * values
        t, t_lo, t_hi = np.zeros(coef.shape[1]), lo[b] - x0[b], hi[b] - x0[b]
        for _ in range(_PASSES):
            p, dp = coef[_DEGREE], 0.0
            for c in coef[-2::-1]:
                p, dp = p * t + c, dp * t + p
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.clip(t - p / dp, t_lo, t_hi)
        out[b] = x0[b] + t
    return out


def _newton(
    m: np.ndarray, k: np.ndarray, lo: np.ndarray, hi: np.ndarray, start: np.ndarray
) -> np.ndarray:
    """Refine the brackets of the k-th zeros of J_m in lockstep from start (the
    bracket midpoint where start is not inside); each takes exactly the steps
    it takes alone.

    J_m > 0 below j_{m,1}, so J_m(lo) has the sign (-1)^(k-1). A Newton step
    that lands in the closed bracket is taken, any other step bisects, and a
    step within tolerance ends the refinement: one that rounds onto a bracket
    end, or a zero step from an exact root, is converged.
    """
    lo_positive = k % 2 == 1
    x = np.where((lo < start) & (start < hi), start, 0.5 * (lo + hi))
    z = np.empty_like(x)
    idx = np.arange(x.size)
    for _ in range(_MAX_ITER):
        if not idx.size:
            break
        fx, above = np.split(_j(np.concatenate([m, m + 1]), np.tile(x, 2)), 2)
        up = (fx > 0.0) == lo_positive
        lo, hi = np.where(up, x, lo), np.where(up, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - fx / (m / x * fx - above)  # J_m' = (m/x) J_m - J_{m+1}
        x_new = np.where((lo <= x_new) & (x_new <= hi), x_new, 0.5 * (lo + hi))
        done = abs(x_new - x) <= _ABS_TOL + _REL_TOL * abs(x_new)
        z[idx[done]] = x_new[done]
        go = ~done
        m, lo, hi, lo_positive = m[go], lo[go], hi[go], lo_positive[go]
        x, idx = x_new[go], idx[go]
    if idx.size:
        raise ConvergenceError(
            f"zero refinement for order {m[0]} stalled after {_MAX_ITER} iterations"
        )
    return z


def _certify(
    orders: np.ndarray, zeros: list[np.ndarray], x_max: float, strays: np.ndarray
) -> None:
    """Raise ConvergenceError if an order is in strays (the orders of zeros
    found outside their own scan bracket), or unless each order's zeros are
    more than one apart, adjacent orders interlace, and sign(J_m(x_max)) =
    (-1)^count (J_m > 0 below its first zero). As |J_m'| <= 1, a zero within
    tolerance of x_max may lie on either side, so the sign test is
    inconclusive, and skipped, where |J_m(x_max)| <= 10 (_ABS_TOL + _REL_TOL
    x_max): about 1e-12 for small x_max."""
    z = np.full((len(zeros), max(map(len, zeros)) + 1), math.inf)
    for row, zs in zip(z, zeros):
        row[: len(zs)] = zs
    a, b, end = z[:-1], z[1:], np.isinf(z)
    ok = (a < b) | (end[:-1] & end[1:])
    ok[:, :-1] &= (b[:, :-1] < a[:, 1:]) | end[:-1, 1:]
    apart = (z[:, 1:] > z[:, :-1] + 1.0) | end[:, 1:]
    bad = ~apart.all(axis=1) | np.isin(orders, strays)
    bad[:-1] |= (np.diff(orders) == 1) & ~ok.all(axis=1)
    f = _j(orders, np.full(orders.size, float(x_max)))
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
    bm, lo, hi, start = _brackets(orders, x_max)
    k = np.arange(bm.size) - np.searchsorted(bm, bm) + 1
    z = _newton(bm, k, lo, hi, start)
    below = z < x_max
    zeros = np.split(z[below], np.searchsorted(bm[below], orders[1:]))
    _certify(orders, zeros, x_max, strays=bm[(z < lo) | (z > hi)])
    lists = [zs.tolist() for zs in zeros]
    return lists[0] if single else lists
