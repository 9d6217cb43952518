"""Remainder function of one-dimensional Dirichlet Riesz means and its minimum.

f_mu(A) is the gap between the semiclassical value and the lattice sum of
(1 - k^2/A^2)_+^mu over a section of scaled length A; its infimum over
A >= 1 sizes the negative boundary correction the improved bounds can carry.
f_mu has kinks at integer A (a new lattice term enters), so the minimizer is
located by a coarse scan refined with golden-section searches whose brackets
never straddle an integer.

The scan needs no upper limit from the caller. Poisson summation gives
f_mu(A) = 1/2 - A sum_{k>=1} g(Ak), with the Fourier transform
g(xi) = Gamma(mu+1) sqrt(pi) (pi xi)^-(mu+1/2) J_{mu+1/2}(2 pi xi) of
(1 - t^2)_+^mu. With |J_nu| <= 1 (DLMF 10.14.1) and zeta(s) <= s/(s-1),
|f_mu(A) - 1/2| <= C_mu A^-(mu-1/2), C_mu = Gamma(mu+1) pi^-mu
(mu+1/2)/(mu-1/2), for mu > 1/2. So f_mu exceeds a found value e < 1/2 for
every A beyond A0 = (C_mu / (1/2 - e))^(1/(mu-1/2)), and the scan stops at
the first integer at or past A0. A0 stays within the scan limit of 60 for
1.162 <= mu <= 505.4, which holds the guaranteed regime mu >= 2 of every
practical (sigma, d).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConvergenceError, EnumerationLimitError, Record
from .specfun import beta
from .spectra import ENUMERATION_LIMIT

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "RemainderResult", "f_mu", "lattice_sum", "epsilon_mu",
    "nu_bounds", "nu_ceiling", "nu_nonneg_cap",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_STEP = 1e-3
# Golden-section brackets stop once no wider than this.
_TOL = 1e-12
# The scan covers at most [1, _SCAN_LIMIT]; an A0 beyond it raises.
_SCAN_LIMIT = 60
# Elements of the (j, r) array lattice_sum builds per block.
_BLOCK = 1 << 18


class RemainderResult(Record):
    __slots__ = _fields = ("mu", "epsilon", "argmin_a", "scan_upper")


def _check_mu(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError(f"mu must be finite and > 0, got {mu!r}")


def f_mu(mu: float, a: ArrayLike) -> ArrayLike:
    """Remainder at scaled lengths a >= 1 (elementwise); tends to 1/2."""
    _check_mu(mu)
    a = np.asarray(a, dtype=float)
    if not np.all(a >= 1.0):
        raise ValueError(f"f_mu requires A >= 1, got {a!r}")
    return 0.5 * a * beta(1.0 + mu, 0.5) - lattice_sum(mu, a)


def lattice_sum(e: float, r: ArrayLike) -> ArrayLike:
    """Sum over j >= 1 of (1 - j^2/r^2)_+^e, elementwise over r > 0, for e > 0.

    The terms are added one at a time in increasing j whatever the shape of
    r, so each value depends only on its own r. The r values are taken in
    blocks that keep the (j, r) array near _BLOCK elements. A sum over more
    lattice indices j < r than the enumeration limit raises
    EnumerationLimitError before any array is built.
    """
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    top = flat.max(initial=0.0)
    if not top < ENUMERATION_LIMIT + 1:
        raise EnumerationLimitError(
            f"lattice sum at scaled section length {top:.6g} would exceed the"
            f" limit of {ENUMERATION_LIMIT} lattice indices"
        )
    out = np.empty(flat.size)
    step = max(1, _BLOCK // max(int(top), 1))
    for start in range(0, flat.size, step):
        block = flat[start : start + step]
        # numpy reduces axis 0 of a (jmax, n) array one row at a time, except
        # for n == 1, where it sums the lone column pairwise; so pad to two.
        cols = np.resize(block, max(block.size, 2))
        j2 = np.arange(1.0, int(cols.max()) + 1.0) ** 2
        # An r*r that is 0 or subnormal has no term: 1 - inf clips to 0.
        with np.errstate(divide="ignore", over="ignore"):
            t = np.subtract(1.0, np.multiply.outer(j2, 1.0 / (cols * cols)))
        np.maximum(t, 0.0, out=t)
        np.power(t, e, out=t)
        out[start : start + block.size] = t.sum(axis=0)[: block.size]
    return out.reshape(r.shape)[()]


def _golden_min(
    fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima of fn over the brackets [lo, hi], all in lockstep.

    Each bracket takes the same steps it would take alone and stops once it
    is no wider than tol; fn is evaluated once per step on the live brackets.
    """
    lo, hi = lo.copy(), hi.copy()
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = fn(c), fn(d)
    live = hi - lo > tol
    while live.any():
        left = live & (fc < fd)
        right = live & ~left
        hi[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = hi[left] - _GOLDEN * (hi[left] - lo[left])
        lo[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = lo[right] + _GOLDEN * (hi[right] - lo[right])
        fx = np.empty_like(lo)
        fx[live] = fn(np.where(left, c, d)[live])
        fc[left] = fx[left]
        fd[right] = fx[right]
        live = hi - lo > tol
    x = 0.5 * (lo + hi)
    return x, fn(x)


def _log_tail_constant(mu: float) -> float:
    """log C_mu, |f_mu(A) - 1/2| <= C_mu A^-(mu-1/2) for A >= 1 and mu > 1/2;
    in logs because C_mu overflows a float from mu near 170."""
    ratio = (mu + 0.5) / (mu - 0.5)
    return math.lgamma(mu + 1.0) - mu * math.log(math.pi) + math.log(ratio)


@lru_cache(maxsize=128)
def epsilon_mu(mu: float) -> RemainderResult:
    """Global minimum of f_mu over A >= 1.

    Unit segments [1, 2], [2, 3], ... are scanned on a fine grid until the
    next one starts beyond A0, computed from the smallest grid value so far
    (the refined minimum is no larger, so A0 is conservative); then the
    bracket around each segment's grid minimum is refined by golden-section
    search (all segments in lockstep). Raises ConvergenceError where A0
    exceeds _SCAN_LIMIT: for mu < 1.162 (every mu <= 1/2 included), and for
    mu > 505.4, as C_mu^(1/(mu-1/2)) grows like mu/(e pi).
    """
    _check_mu(mu)
    if not mu > 0.5:
        raise ConvergenceError(f"f_mu minimum for mu={mu} has no tail bound (A0=inf)")
    try:
        log_c = _log_tail_constant(mu)
    except OverflowError:
        msg = f"f_mu minimum for mu={mu} has no tail bound (log C_mu overflows)"
        raise ConvergenceError(msg) from None
    npts = int(math.ceil(1.0 / _SCAN_STEP)) + 1

    # Candidates in scan order, each segment's grid minimum and then its
    # refined minimum; the first of the smallest values wins.
    grid_x, grid_f, lo, hi = [], [], [], []
    seg, a0 = 1, math.inf
    while seg < a0:
        if seg >= _SCAN_LIMIT:
            raise ConvergenceError(
                f"f_mu minimum for mu={mu} is bounded only beyond A0={a0:.6g},"
                f" past the scan limit {_SCAN_LIMIT}"
            )
        grid = np.linspace(seg, seg + 1.0, npts)
        vals = f_mu(mu, grid)
        i = int(np.argmin(vals))
        grid_x.append(grid[i])
        grid_f.append(vals[i])
        lo.append(grid[max(i - 1, 0)])
        hi.append(grid[min(i + 1, npts - 1)])
        seg += 1
        low = min(grid_f)
        if low < 0.5:
            # clamped below overflow: only whether A0 passes the limit matters
            a0 = math.exp(min((log_c - math.log(0.5 - low)) / (mu - 0.5), 700.0))
    gold_x, gold_f = _golden_min(
        lambda t: f_mu(mu, t), np.array(lo), np.array(hi), _TOL
    )
    cand_x = np.column_stack([grid_x, gold_x]).ravel()
    cand_f = np.column_stack([grid_f, gold_f]).ravel()
    k = int(np.argmin(cand_f))
    return RemainderResult(float(mu), float(cand_f[k]), float(cand_x[k]), float(seg))


def nu_nonneg_cap(mu: float) -> float:
    """Largest weight that keeps the corrected bound nonnegative: 2 B(1 + mu, 1/2).

    With mu = sigma + (d - 1)/2, pi L_{sigma,d} = L_{sigma,d-1} B(1 + mu, 1/2)/2,
    so where vol(Omega_Lambda) >= (pi / sqrt(Lambda)) d(Omega_Lambda), as on every
    sliced domain, improved_rhs >= L_{sigma,d-1} d(Omega_Lambda) Lambda^mu
    (B(1 + mu, 1/2)/2 - nu/4), which is nonnegative for nu up to this cap.
    """
    return 2.0 * beta(1.0 + mu, 0.5)


def nu_ceiling(mu: float) -> float:
    """A-priori ceiling on the guaranteed weight: 4 epsilon_mu is at most
    4 min(f_mu(1), lim f_mu) = 2 min(1, B(1 + mu, 1/2)), since f_mu(1) is
    B(1 + mu, 1/2)/2 and f_mu tends to 1/2: nu_nonneg_cap clipped at 2."""
    return min(2.0, nu_nonneg_cap(mu))


def nu_bounds(sigma: float, dim: int) -> tuple[float, float]:
    """Guaranteed weight 4 epsilon_mu and its ceiling nu_ceiling(mu) at
    (sigma, dim), mu = sigma + (dim - 1)/2.

    Raises ValueError outside the guaranteed regime sigma >= 3/2, dim >= 2.
    """
    if not sigma >= 1.5:
        raise ValueError("nu_bounds requires sigma >= 3/2")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 2):
        raise ValueError("nu_bounds requires integer dim >= 2")
    mu = sigma + 0.5 * (dim - 1)
    return 4.0 * epsilon_mu(mu).epsilon, nu_ceiling(mu)
