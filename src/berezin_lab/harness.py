"""Grid sweeps over spectral cutoffs and eigenvalue counts, with verdicts.

Each sweep enumerates the spectrum once at the grid maximum, evaluates every
column over the whole grid at once as an array, and keeps those arrays as the
report's table; row dicts are built only on request.

Inequality verdicts use a scale-aware slack: lhs <= rhs + slack * max(1, |rhs|).
A fail verdict always sits next to the raw values and the signed margin
rhs - lhs, so violations are quantified, not just flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator, Sequence

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
from .errors import InsufficientCutoffError, UnsupportedDomainError
from .geometry import (
    AxisBox,
    BoxUnion,
    Domain,
    moment_J,
    slicing_stats,
    surface,
    volume,
)
from .remainder import epsilon_mu, nu_nonneg_cap
from .spectra import Spectrum, counting, enumerate_spectrum, riesz_mean
from .version import TOOL_VERSION

__all__ = [
    "SweepConfig",
    "BoundReport",
    "sweep_riesz",
    "sweep_sums",
    "asymptotic_diagnostics",
]

RIESZ_COLUMNS = (
    "lambda",
    "n",
    "riesz_mean",
    "eta",
    "s_classical",
    "sliced_bound",
    "improved_rhs",
    "two_term_riesz",
    "vol_omega_lambda",
    "d_lambda",
)
RIESZ_CHECKS = (
    "s_le_sliced",
    "sliced_le_improved",
    "improved_le_classical",
    "berezin",
    "polya",
    "improved_nonneg",
)

SUMS_COLUMNS = (
    "n_index",
    "lambda_n",
    "s1",
    "s_sigma",
    "s_classical_sigma",
    "li_yau_rhs",
    "melas_rhs",
    "eigenvalue_lower",
    "two_term_sum",
)
SUMS_CHECKS = ("li_yau", "lambda_lower", "melas", "holder_upper")

ASYMP_COLUMNS = (
    "lambda",
    "riesz_mean",
    "s_classical",
    "ratio_main",
    "ratio_second",
)
ASYMP_CHECKS = ("berezin",)


@dataclass(frozen=True)
class SweepConfig:
    """Inputs of a sweep, as the `check`, `sweep` and `sums` commands set them.

    No quadrature setting: it would only reach GenericSliced domains, which
    enumerate_spectrum rejects, so no sweep could use it.
    """

    domain: Domain
    sigma: float
    lambda_grid: tuple[float, ...] | None = None
    n_grid: tuple[int, ...] | None = None
    nu: float | None = None  # None selects the guaranteed default weight
    melas_m: float | None = None
    slack: float = 1e-9

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if not self.slack > 0.0:
            raise ValueError(f"slack must be positive, got {self.slack!r}")
        for name, grid in (("lambda_grid", self.lambda_grid), ("n_grid", self.n_grid)):
            if grid is not None:
                if len(grid) == 0:
                    raise ValueError(f"{name} must not be empty")
                if any(b <= a for a, b in zip(grid, grid[1:])):
                    raise ValueError(f"{name} must be strictly increasing")


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

        One printf template serves them all: %d for integer columns, %s for
        strings and %.17g for floats. A NaN cell is an empty field, so a float
        column holding one is formatted cell by cell.
        """
        cols = [c[which] for c in self.columns.values()]
        nan = [c.dtype.kind == "f" and np.isnan(c).any() for c in cols]
        specs = (_SPECS.get(c.dtype.kind, "%s") for c in cols)
        template = ",".join("%s" if n else f for f, n in zip(specs, nan)) + "\n"
        for lo in range(0, len(cols[0]) if cols else 0, _CSV_BLOCK):
            block = [c[lo : lo + _CSV_BLOCK].tolist() for c in cols]
            for j in np.flatnonzero(nan):
                block[j] = ["" if v != v else "%.17g" % v for v in block[j]]
            yield "".join([template % row for row in zip(*block)])

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
_CSV_BLOCK = 4096
# printf field per numpy dtype kind; other columns hold strings.
_SPECS = {"b": "%d", "i": "%d", "u": "%d", "f": "%.17g"}


# One str object per verdict, shared by every row.
_VERDICTS = np.array(("pass", "fail", "n/a"), dtype=object)


def _check_le(
    lhs: ArrayLike, rhs: ArrayLike, slack: float
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise verdicts of lhs <= rhs with slack, and margins rhs - lhs."""
    lhs, rhs = np.broadcast_arrays(
        np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    )
    na = np.isnan(lhs) | np.isnan(rhs)
    ok = lhs <= rhs + slack * np.maximum(1.0, np.abs(rhs))
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


def _base_metadata(cfg: SweepConfig) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "domain": repr(cfg.domain),
        "sigma": cfg.sigma,
        "slack": cfg.slack,
    }


def sweep_riesz(cfg: SweepConfig) -> BoundReport:
    """Riesz-mean chain over a lambda grid: counting, means, and all bounds."""
    if cfg.lambda_grid is None:
        raise ValueError("sweep_riesz needs lambda_grid")
    dom = cfg.domain
    d = dom.dim
    p = SemiclassicalParams(cfg.sigma, d)
    lam = np.array(cfg.lambda_grid, dtype=float)
    spec = enumerate_spectrum(dom, cfg.lambda_grid[-1])
    vol = volume(dom)
    surf = _try_surface(dom)
    tiling = isinstance(dom, (AxisBox, BoxUnion))
    sliced_ok = cfg.sigma >= 1.5 and d >= 2
    mu = cfg.sigma + 0.5 * (d - 1)

    eps_info = None
    if cfg.nu is not None:
        nu = float(cfg.nu)
        nu_mode = "explicit"
    elif sliced_ok:
        eps_info = epsilon_mu(mu)
        nu = 4.0 * eps_info.epsilon
        nu_mode = "default-from-remainder-minimum"
    else:
        nu = math.nan
        nu_mode = "n/a"
    exploratory = nu_mode == "explicit"
    improved_ok = d >= 2 and math.isfinite(nu) and (cfg.sigma >= 1.5 or exploratory)
    # The corrected bound is nonnegative on every domain only for nu up to
    # this cap, so improved_nonneg is n/a above it.
    nu_cap = nu_nonneg_cap(mu) if d >= 2 else math.nan

    n = counting(spec, lam)
    s_val = riesz_mean(spec, cfg.sigma, lam)
    eta = phase_space_eta(d, vol, lam)
    scl = s_classical(p, vol, lam)
    st = slicing_stats(dom, lam)
    sliced = sliced_bound(dom, p, lam) if sliced_ok else math.nan
    improved = (
        improved_rhs(
            params=p,
            lam=lam,
            vol_omega_lambda=st.vol_omega_lambda,
            d_lambda=st.d_lambda,
            nu=nu,
            exploratory=exploratory,
        )
        if improved_ok
        else math.nan
    )
    ms1 = (
        two_term_riesz(p, vol, surf, lam)
        if surf is not None and cfg.sigma > 0.0
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
        "s_le_sliced": _check_le(s_val, sliced, cfg.slack),
        "sliced_le_improved": _check_le(sliced, improved, cfg.slack),
        "improved_le_classical": _check_le(improved, scl, cfg.slack),
        # A NaN side turns a check that does not apply into n/a.
        "berezin": _check_le(s_val, scl if cfg.sigma >= 1.0 else math.nan, cfg.slack),
        "polya": _check_le(n, eta if tiling else math.nan, cfg.slack),
        "improved_nonneg": _check_le(
            0.0, improved if nu <= nu_cap * (1.0 + 1e-12) else math.nan, cfg.slack
        ),
    }
    columns = _table(len(lam), values, checks)
    metadata = _base_metadata(cfg)
    metadata.update(
        {
            "kind": "riesz",
            "nu": nu,
            "nu_mode": nu_mode,
            "nu_nonneg_cap": nu_cap,
            "lambda_max": cfg.lambda_grid[-1],
            "eigenvalues_enumerated": spec.total_count,
            "merge_joins": spec.merge_joins,
            "merge_max_gap": spec.merge_max_gap,
        }
    )
    if eps_info is not None:
        metadata["epsilon"] = eps_info.epsilon
        metadata["epsilon_argmin_a"] = eps_info.argmin_a
        metadata["epsilon_mu"] = eps_info.mu
    return BoundReport("riesz", columns, RIESZ_CHECKS, metadata)


def _spectrum_for_count(dom: Domain, count: int) -> Spectrum:
    d = dom.dim
    vol = volume(dom)
    lam = 1.35 * ((count + 8) / (lt_value(0.0, d) * vol)) ** (2.0 / d) + 10.0
    for _ in range(8):
        spec = enumerate_spectrum(dom, lam)
        if spec.total_count >= count:
            return spec
        lam *= 1.4
    raise InsufficientCutoffError(
        f"could not enumerate {count} eigenvalues below cutoff {lam}"
    )


def sweep_sums(cfg: SweepConfig) -> BoundReport:
    """Partial-sum side over an index grid: Li-Yau family and asymptotics."""
    if cfg.n_grid is None:
        raise ValueError("sweep_sums needs n_grid")
    dom = cfg.domain
    d = dom.dim
    p = SemiclassicalParams(cfg.sigma, d)
    n_max = cfg.n_grid[-1]
    spec = _spectrum_for_count(dom, n_max)
    vol = volume(dom)
    surf = _try_surface(dom)
    moment = moment_J(dom) if cfg.melas_m is not None else None

    n = np.array(cfg.n_grid)
    eigs = spec.expanded
    lam_n = eigs[n - 1]
    s1 = np.cumsum(eigs)[n - 1]
    s_sig = np.cumsum(eigs**cfg.sigma)[n - 1] if cfg.sigma > 0.0 else math.nan
    scl_sig = sum_classical(p, vol, n) if cfg.sigma > 0.0 else math.nan
    ly = li_yau_rhs(d, vol, n)
    mel = (
        melas_rhs(d, vol, moment, n, cfg.melas_m)
        if cfg.melas_m is not None
        else math.nan
    )
    lam_low = eigenvalue_lower(d, vol, n)
    ms2 = (
        two_term_sum(p, vol, surf, n)
        if surf is not None and cfg.sigma > 0.0
        else math.nan
    )
    if cfg.sigma > 1.0:
        conj_expo = cfg.sigma / (cfg.sigma - 1.0)
        holder_rhs = s_sig ** (1.0 / cfg.sigma) * n.astype(float) ** (1.0 / conj_expo)
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
        "li_yau": _check_le(ly, s1, cfg.slack),
        "lambda_lower": _check_le(lam_low, lam_n, cfg.slack),
        "melas": _check_le(mel, s1, cfg.slack),
        "holder_upper": _check_le(s1, holder_rhs, cfg.slack),
    }
    columns = _table(len(n), values, checks)
    metadata = _base_metadata(cfg)
    metadata.update(
        {
            "kind": "sums",
            "n_max": n_max,
            "cutoff_used": spec.cutoff,
            "merge_joins": spec.merge_joins,
            "merge_max_gap": spec.merge_max_gap,
            "melas_m": "none" if cfg.melas_m is None else f"{cfg.melas_m} (external constant)",
        }
    )
    return BoundReport("sums", columns, SUMS_CHECKS, metadata)


def asymptotic_diagnostics(
    dom: Domain,
    sigma: float,
    lambda_list: Sequence[float],
    slack: float = 1e-9,
) -> BoundReport:
    """High-energy convergence of the Riesz mean toward its two-term form.

    ratio_main = S / S_classical should climb toward one along the grid;
    ratio_second compares the observed deficit with the boundary term and
    should drift toward one. Surface measure is required, so callback-backed
    domains are rejected.
    """
    lams = tuple(float(v) for v in lambda_list)
    if len(lams) < 2 or any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda_list must hold at least two increasing values")
    if not sigma > 0.0:
        raise ValueError("asymptotic diagnostics require sigma > 0")
    d = dom.dim
    p = SemiclassicalParams(sigma, d)
    surf = surface(dom)
    vol = volume(dom)
    spec = enumerate_spectrum(dom, lams[-1])

    lam = np.array(lams)
    s_val = riesz_mean(spec, sigma, lam)
    scl = s_classical(p, vol, lam)
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
    checks = {"berezin": _check_le(s_val, scl if sigma >= 1.0 else math.nan, slack)}
    columns = _table(len(lam), values, checks)

    ratios = ratio_main.tolist()
    monotone = all(b > a for a, b in zip(ratios, ratios[1:]))
    metadata = {
        "tool_version": TOOL_VERSION,
        "kind": "asymptotics",
        "domain": repr(dom),
        "sigma": sigma,
        "ratio_main_monotone_verdict": "pass" if monotone else "fail",
        "ratio_second_first": ratio_second[0].item(),
        "ratio_second_last": ratio_second[-1].item(),
    }
    return BoundReport("asymptotics", columns, ASYMP_CHECKS, metadata)
