"""Exact Dirichlet spectra: the engines, the merge, counting and Riesz means.

Each domain family in geometry, which imports this module, gives its values
from an engine here, and enumerate_spectrum merges them. Box eigenvalues are
pi^2 * sum (n_i / a_i)^2 over positive integer multi-indices; a union's
spectrum is the multiset union of its boxes' (a box is a one-box union); disk
eigenvalues are (j_{m,k} / R)^2 with multiplicity one for m = 0 and two for
m >= 1. Enumeration is strict below the cutoff.
A box is walked one coordinate at a time, in numpy over all prefixes at once:
a prefix keeps the indices whose all-ones completion is below the cutoff, so
each kept prefix leads to entries, which come in the order of nested loops.
EnumerationLimitError is raised once a level keeps more than ENUMERATION_LIMIT
prefixes, exactly when the box has more than that many entries, before that
array exists. The same constant bounds remainder's lattice sums and the
command-line grids.
The merge is one sort of the values, each repeated by its multiplicity (equal
values are indistinguishable), then the anchor rule: v joins the current entry
when v - first <= 1e-9 * v for the entry's first value, else starts one, so a
run of neighbours each within 1e-9 of the next can still split. A Spectrum
keeps the positions, in ascending order with multiplicity, of the eigenvalues
joined to a first value that differs from them in any bit (rounding twins, or
distinct values closer than 1e-9), and their gaps (v - first) / v. Its
merge_record, for all eigenvalues or the lowest few, is how many of those
there are (merge_joins) and the widest gap among them (merge_max_gap, 0.0 if
none).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    CutoffExceededError,
    Domain,
    EnumerationLimitError,
    Record,
    check_domain,
)
from .specfun import bessel_zeros_below

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

__all__ = [
    "Spectrum",
    "ENUMERATION_LIMIT",
    "enumerate_spectrum",
    "counting",
    "riesz_mean",
]

_MERGE_REL_TOL = 1e-9
ENUMERATION_LIMIT = 2_000_000
_FIELD_DTYPES = {
    "eigenvalues": np.float64,
    "multiplicities": np.int64,
    "join_positions": np.int64,
    "join_gaps": np.float64,
}


class Spectrum(Record):
    """Distinct eigenvalues below a cutoff, ascending, and their multiplicities,
    with the positions and gaps of the joined eigenvalues, as read-only arrays.
    Equal only to itself; its instance dict holds the cached properties."""

    _fields = ("cutoff", *_FIELD_DTYPES)
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        cutoff: float,
        eigenvalues: ArrayLike,
        multiplicities: ArrayLike,
        join_positions: ArrayLike,
        join_gaps: ArrayLike,
    ) -> None:
        arrays = (eigenvalues, multiplicities, join_positions, join_gaps)
        dtypes = _FIELD_DTYPES.values()
        super().__init__(cutoff, *(_readonly(a, t) for a, t in zip(arrays, dtypes)))

    def merge_record(self, count: int | None = None) -> tuple[int, float]:
        """merge_joins and merge_max_gap of the `count` lowest eigenvalues, with
        multiplicity, or of all of them."""
        k = np.searchsorted(self.join_positions, math.inf if count is None else count)
        return int(k), float(np.max(self.join_gaps[:k], initial=0.0))

    @property
    def values(self) -> tuple[tuple[float, int], ...]:
        """(eigenvalue, multiplicity) pairs, built on each access."""
        return tuple(zip(self.eigenvalues.tolist(), self.multiplicities.tolist()))

    @cached_property
    def cumulative_counts(self) -> np.ndarray:
        return _readonly(np.cumsum(self.multiplicities))

    @cached_property
    def expanded(self) -> np.ndarray:
        """Eigenvalues repeated by multiplicity, ascending."""
        return _readonly(np.repeat(self.eigenvalues, self.multiplicities))

    @property
    def total_count(self) -> int:
        return int(self.cumulative_counts[-1]) if self.eigenvalues.size else 0


def _readonly(a: ArrayLike, dtype: type | None = None) -> np.ndarray:
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


def enumerate_spectrum(dom: Domain, cutoff: float) -> Spectrum:
    """All eigenvalues strictly below cutoff, the domain's own, merged and sorted."""
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise ValueError(f"cutoff must be positive and finite, got {cutoff!r}")
    return Spectrum(float(cutoff), *_merge(check_domain(dom).eigenvalues(cutoff)))


def _check_limit(entries: int) -> None:
    if entries > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"enumeration exceeded the limit of {ENUMERATION_LIMIT} entries"
        )


def _box_eigenvalues(sides: tuple[float, ...], cutoff: float) -> np.ndarray:
    d, pi2, budget = len(sides), math.pi**2, cutoff / math.pi**2 * (1.0 + 1e-12)
    limit = ENUMERATION_LIMIT
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = (1.0 / np.square(np.asarray(sides, dtype=float))).tolist()  # inf if a*a underflows
        tail = [sum(w[j + 1 :]) for j in range(d)]  # least the unset indices add

        def kept(i: int, acc: np.ndarray, n: np.ndarray) -> np.ndarray:
            # n after a prefix leads to an entry iff its all-ones completion
            # passes every comparison of the walk (each one is monotone in n).
            c, ok = acc + (n * n) * w[i], np.ones(acc.shape, dtype=bool)
            for j in range(i, d - 1):
                ok &= c + tail[j] <= budget
                c = c + w[j + 1]
            return ok & (pi2 * c < cutoff)

        # Per prefix the kept n are 1..lo, found from the guess, its neighbour, then
        # bisection. Kept prefixes lead to distinct entries, so the check is exact.
        acc = np.zeros(1)
        for i in range(d):
            guess = np.sqrt(np.maximum(cutoff / pi2 - tail[i] - acc, 0.0) / w[i])
            k, first = np.fmax(np.fmin(guess, limit + 1), 1).astype(np.int64), True
            lo, hi = np.zeros_like(k), np.full_like(k, limit + 2)  # kept(lo), not kept(hi)
            while np.any(hi - lo > 1):
                t = kept(i, acc, k)
                lo, hi = np.where(t, np.maximum(lo, k), lo), np.where(t, hi, np.minimum(hi, k))
                k, first = (np.where(t, k + 1, k - 1) if first else (lo + hi) // 2), False
            _check_limit(int(lo.sum()))
            n = np.arange(1, lo.sum() + 1) - np.repeat(np.cumsum(lo) - lo, lo)
            acc = np.repeat(acc, lo) + (n * n) * w[i]
    return pi2 * acc


def _disk_eigenvalues(radius: float, cutoff: float) -> np.ndarray:
    # Lower bound on the entries, from the inscribed square (Dirichlet
    # monotonicity): its lattice count below the cutoff is at least the area
    # pi*(r - sqrt(2))^2/4, r = R*sqrt(2*cutoff)/pi; an entry holds <= 2 values.
    r = radius * math.sqrt(2.0 * cutoff) / math.pi
    if r > math.sqrt(2.0) and math.pi * (r - math.sqrt(2.0)) ** 2 / 8.0 > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"enumeration would exceed the limit of {ENUMERATION_LIMIT} entries"
        )
    z_max = radius * math.sqrt(cutoff) * (1.0 + 1e-12)
    orders = np.arange(math.floor(z_max) + 1)
    zeros = bessel_zeros_below(orders, z_max)
    lams = np.square(np.concatenate(zeros, dtype=float) / radius)
    mult = np.repeat(np.where(orders == 0, 1, 2), [len(zs) for zs in zeros])
    below = lams < cutoff
    _check_limit(int(np.count_nonzero(below)))  # distinct zeros, not values
    return np.repeat(lams[below], mult[below])


def _merge(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Entries by the anchor rule, and the positions and gaps of the joined
    values, from the eigenvalues v repeated by multiplicity, which it sorts in
    place. A gap above the tolerance always splits; only runs wider than the
    tolerance are walked value by value."""
    v.sort()
    start = np.ones(v.size, dtype=bool)
    np.greater(np.diff(v), _MERGE_REL_TOL * np.abs(v[1:]), out=start[1:])
    runs, inner, first = _runs(start)
    vi, vf = v[inner], v[first]
    wide = first[vi - vf > _MERGE_REL_TOL * np.abs(vi)]
    wide = wide[np.diff(wide, prepend=-1) != 0]  # first is non-decreasing
    if wide.size:
        ends = np.append(runs[1:], v.size)[np.searchsorted(runs, wide)]
        for s, e in zip(wide.tolist(), ends.tolist()):
            anchor = float(v[s])
            for k, x in enumerate(v[s + 1 : e].tolist(), s + 1):
                if x - anchor > _MERGE_REL_TOL * abs(x):
                    start[k] = True
                    anchor = x
        runs, inner, first = _runs(start)
        vi, vf = v[inner], v[first]
    entries, counts = v[runs], np.diff(runs, append=v.size)
    del start, runs, first  # before the record's arrays are made
    joined = vi != vf
    vi = vi[joined]
    return entries, counts, inner[joined], (vi - vf[joined]) / vi


def _runs(start: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where entries start, where values join the entry before them, and where
    the entry of each joining value starts."""
    runs, inner = np.flatnonzero(start), np.flatnonzero(~start)
    return runs, inner, runs[np.cumsum(start)[inner] - 1]


def _check_query(spec: Spectrum, lam: ArrayLike) -> np.ndarray:
    lam = np.asarray(lam, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"lambda must be finite, got {lam!r}")
    if np.any(lam > spec.cutoff):
        raise CutoffExceededError(
            f"query at lambda={lam.max()} exceeds the enumerated cutoff {spec.cutoff}"
        )
    return lam


def counting(spec: Spectrum, lam: ArrayLike) -> ArrayLike:
    """Number of eigenvalues strictly below lam, with multiplicity (elementwise)."""
    lam = _check_query(spec, lam)
    ends = np.searchsorted(spec.eigenvalues, lam, side="left")
    counts = np.concatenate(([0], spec.cumulative_counts))[ends]
    return counts if counts.ndim else int(counts)


def riesz_mean(spec: Spectrum, sigma: float, lam: ArrayLike) -> ArrayLike:
    """Sum of (lam - eigenvalue)_+^sigma, elementwise; sigma = 0 gives counting.

    One search finds each lam's eigenvalues below it, and each sum runs over
    that prefix only, in one buffer reused for every lam, so no (grid x
    spectrum) array and no fresh temporary per lam is formed.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    lam = _check_query(spec, lam)
    if sigma == 0.0:
        return np.asarray(counting(spec, lam), dtype=float)[()]
    ev, weight = spec.eigenvalues, spec.multiplicities.astype(float)
    ends = np.searchsorted(ev, lam, side="left")
    buf, out = np.empty(ev.size), []
    for x, i in zip(lam.flat, ends.flat):
        t = np.subtract(x, ev[:i], out=buf[:i])
        t **= sigma
        t *= weight[:i]
        out.append(t.sum())
    return np.reshape(out, lam.shape)[()]
