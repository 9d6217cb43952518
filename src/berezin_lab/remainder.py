"""Remainder function of one-dimensional Dirichlet Riesz means and its minimum.

f_mu(A) is the gap between the semiclassical value and the lattice sum of
(1 - k^2/A^2)_+^mu over a section of scaled length A; its infimum over
A >= 1 sizes the negative boundary correction the improved bounds can carry.
f_mu has kinks at integer A (a new lattice term enters), so the minimizer is
located by a coarse scan refined with golden-section searches whose brackets
never straddle an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike

from .errors import TailGuardError
from .specfun import beta

__all__ = [
    "RemainderResult", "f_mu", "lattice_sum", "epsilon_mu",
    "nu_bounds", "nu_ceiling", "nu_nonneg_cap",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_STEP = 1e-3
DEFAULT_SCAN_UPPER = 60.0
DEFAULT_TOL = 1e-12
# Elements of the (j, r) array lattice_sum builds per block.
_BLOCK = 1 << 18


@dataclass(frozen=True)
class RemainderResult:
    mu: float
    epsilon: float
    argmin_a: float
    scan_upper: float
    tol: float


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
    blocks that keep the (j, r) array near _BLOCK elements.
    """
    r = np.asarray(r, dtype=float)
    flat = r.ravel()
    out = np.empty(flat.size)
    step = max(1, _BLOCK // max(int(flat.max(initial=0.0)), 1))
    for start in range(0, flat.size, step):
        block = flat[start : start + step]
        # numpy reduces axis 0 of a (jmax, n) array one row at a time, except
        # for n == 1, where it sums the lone column pairwise; so pad to two.
        cols = np.resize(block, max(block.size, 2))
        j2 = np.arange(1.0, int(cols.max()) + 1.0) ** 2
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


@lru_cache(maxsize=128)
def epsilon_mu(
    mu: float, scan_upper: float = DEFAULT_SCAN_UPPER, tol: float = DEFAULT_TOL
) -> RemainderResult:
    """Global minimum of f_mu over [1, scan_upper], with a tail guard.

    Each unit segment is scanned on a fine grid, and the bracket around its
    grid minimum is refined by golden-section search (all segments in
    lockstep). The guard verifies that f_mu stays above the located minimum
    out to 4 * scan_upper and raises TailGuardError otherwise, so a minimum
    hiding beyond the scan cannot be reported silently.
    """
    _check_mu(mu)
    if not scan_upper >= 2.0:
        raise ValueError(f"scan_upper must be >= 2, got {scan_upper!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")

    # Candidates in scan order, each segment's grid minimum and then its
    # refined minimum; the first of the smallest values wins.
    grid_x, grid_f, lo, hi = [], [], [], []
    seg = 1.0
    while seg < scan_upper:
        s0, s1 = seg, min(seg + 1.0, scan_upper)
        npts = max(int(math.ceil((s1 - s0) / _SCAN_STEP)) + 1, 3)
        grid = np.linspace(s0, s1, npts)
        vals = f_mu(mu, grid)
        i = int(np.argmin(vals))
        grid_x.append(grid[i])
        grid_f.append(vals[i])
        lo.append(grid[max(i - 1, 0)])
        hi.append(grid[min(i + 1, npts - 1)])
        seg += 1.0
    gold_x, gold_f = _golden_min(
        lambda t: f_mu(mu, t), np.array(lo), np.array(hi), tol
    )
    cand_x = np.column_stack([grid_x, gold_x]).ravel()
    cand_f = np.column_stack([grid_f, gold_f]).ravel()
    k = int(np.argmin(cand_f))
    best_f, best_x = float(cand_f[k]), float(cand_x[k])

    tail = np.linspace(scan_upper, 4.0 * scan_upper, 257)
    if float(np.min(f_mu(mu, tail))) <= best_f:
        raise TailGuardError(
            f"f_mu minimum for mu={mu} may lie beyond scan_upper={scan_upper}"
        )
    return RemainderResult(
        mu=float(mu),
        epsilon=best_f,
        argmin_a=best_x,
        scan_upper=float(scan_upper),
        tol=float(tol),
    )


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


def nu_bounds(sigma: float, dim: int, scan_upper: float = DEFAULT_SCAN_UPPER,
              tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Guaranteed weight 4 epsilon_mu and its ceiling nu_ceiling(mu) at
    (sigma, dim), mu = sigma + (dim - 1)/2.

    Raises ValueError outside the guaranteed regime sigma >= 3/2, dim >= 2.
    """
    if not sigma >= 1.5:
        raise ValueError("nu_bounds requires sigma >= 3/2")
    if not (isinstance(dim, int) and not isinstance(dim, bool) and dim >= 2):
        raise ValueError("nu_bounds requires integer dim >= 2")
    mu = sigma + 0.5 * (dim - 1)
    return 4.0 * epsilon_mu(mu, scan_upper, tol).epsilon, nu_ceiling(mu)
