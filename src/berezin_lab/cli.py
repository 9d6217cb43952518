"""Command line front end.

Subcommands:
    constants    semiclassical constants for one (sigma, dim)
    epsilon      remainder minimum and admissible correction weights
    spectrum     enumerate eigenvalues of a domain below a cutoff
    check        evaluate the full bound chain at a single energy
    sweep        Riesz-mean bounds over a geometric energy grid
    sums         eigenvalue-sum bounds over an index grid
    asymptotics  high-energy ratios against the two-term expansion

--domain takes a domain's text form; geometry's module docstring gives the grammar.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
usage or malformed input, 3 a numeric procedure failed to converge or a
value overflowed.
"""

from __future__ import annotations

import argparse
import io
import math
import sys

import numpy as np

from .constants import SemiclassicalParams, c_const, lt_value
from .errors import (
    DomainParseError,
    EnumerationLimitError,
    NumericFailure,
    UnsupportedDomainError,
)
from .geometry import parse_domain, render_domain
from .harness import BoundReport, asymptotic_diagnostics, sweep_riesz, sweep_sums
from .remainder import epsilon_mu, nu_bounds, nu_ceiling
from .spectra import ENUMERATION_LIMIT, enumerate_spectrum
from .version import TOOL_VERSION

__all__ = ["main", "build_parser"]

_AT_MOST = f"at most {ENUMERATION_LIMIT:,}"  # bound of --points and --n-max


def _show(v: float) -> str:
    return f"{float(v):.17g}"


def _nu_argument(text: str) -> float | None:
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a number, got {text!r}"
        ) from None


def _emit_csv(report: BoundReport, dest: str) -> None:
    if dest == "-":
        sys.stdout.flush()  # what was printed comes before the table
        dest = sys.stdout.buffer
    report.to_csv(dest)


def _positive(flag: str, value: float) -> float:
    """A grid endpoint, rejected before numpy builds a grid from it."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {value!r}")
    return value


def _at_least(flag: str, size: int, least: int = 1) -> None:
    """A grid size too small for its command: exit 2, naming the flag."""
    if size < least:
        raise ValueError(f"{flag} must be >= {least}, got {size}")


def _bound_grid(flag: str, size: int, per_entry: int = 1) -> None:
    """Exit 3 before building a grid larger than any enumeration could serve."""
    cap = per_entry * ENUMERATION_LIMIT
    if size > cap:
        raise EnumerationLimitError(
            f"{flag} {size} exceeds {cap}, the most that the enumeration limit of "
            f"{ENUMERATION_LIMIT} entries allows"
        )


def _energy_grid(args: argparse.Namespace, start: float) -> np.ndarray:
    """--points energies from start up to --lambda-max, geometrically spaced; one
    point is --lambda-max alone. Each flag is checked in turn, and named."""
    _at_least("--points", args.points)
    end = _positive("--lambda-max", args.lambda_max)
    if args.points > 1 and end <= start:
        raise ValueError(f"--lambda-max must be > the grid start {start!r}, got {end!r}")
    _bound_grid("--points", args.points)
    return np.geomspace(start if args.points > 1 else end, end, args.points)


def _add_domain_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", required=True, help="domain text, e.g. box:1x2;axis=1")


def _add_report_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--csv", default=None, help="write the row table to this path ('-' = stdout)"
    )


def _constants_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)


def _epsilon_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=None, help="remainder exponent")
    p.add_argument("--sigma", type=float, default=None, help="with --dim, sets mu")
    p.add_argument("--dim", type=int, default=None)


def _spectrum_options(p: argparse.ArgumentParser) -> None:
    _add_domain_options(p)
    p.add_argument("--cutoff", type=float, required=True)
    _add_report_options(p)


def _check_options(p: argparse.ArgumentParser) -> None:
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument(
        "--nu",
        type=_nu_argument,
        default=None,
        help="correction weight, 'auto' (default) uses the guaranteed one",
    )
    _add_report_options(p)


def _sweep_options(p: argparse.ArgumentParser) -> None:
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument(
        "--points", type=int, required=True, help=f"grid size, {_AT_MOST}"
    )
    p.add_argument("--nu", type=_nu_argument, default=None)
    _add_report_options(p)


def _sums_options(p: argparse.ArgumentParser) -> None:
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument(
        "--n-max", type=int, required=True, help=f"{_AT_MOST}, twice that for a disk"
    )
    p.add_argument(
        "--points",
        type=int,
        default=None,
        help=f"log-subsample to about this many indices, {_AT_MOST} (default: all)",
    )
    p.add_argument("--melas-m", type=float, default=None)
    _add_report_options(p)


def _asymptotics_options(p: argparse.ArgumentParser) -> None:
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument(
        "--lambda", dest="lam", type=float, default=100.0, help="grid start"
    )
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--points", type=int, default=8, help=f"grid size, {_AT_MOST}")
    _add_report_options(p)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with `command` alone; either way
    its usage line, printed for unrecognized arguments, names every one."""
    parser = argparse.ArgumentParser(
        prog="berezin-lab",
        description="Spectral bounds for the Dirichlet Laplacian on explicit domains.",
    )
    parser.add_argument(
        "--version", action="version", version=f"berezin-lab {TOOL_VERSION}"
    )
    if command is None:
        # without a metavar, the error for a missing command names "command"
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        every = "{" + ",".join(_COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=every)
    for name, (help_line, add_options, _) in _COMMANDS.items():
        if command in (None, name):
            add_options(sub.add_parser(name, help=help_line))
    return parser


def _cmd_constants(args: argparse.Namespace) -> int:
    p = SemiclassicalParams(args.sigma, args.dim)
    # Every value is computed before the first line is printed.
    values = {
        "lt_classical": lt_value(p.sigma, p.dim),
        "lt_lower_dim": lt_value(p.sigma, p.dim - 1),
        "counting_constant": lt_value(0.0, p.dim),
    }
    if p.sigma > 0.0:
        values["c_const"] = c_const(p)
    print(f"sigma = {_show(p.sigma)}")
    print(f"dim = {p.dim}")
    for name, value in values.items():
        print(f"{name} = {_show(value)}")
    return 0


def _cmd_epsilon(args: argparse.Namespace) -> int:
    window = None
    if args.mu is not None:
        if args.sigma is not None or args.dim is not None:
            raise ValueError("give either --mu or the pair --sigma/--dim, not both")
        mu = args.mu
    elif args.sigma is not None and args.dim is not None:
        mu = args.sigma + 0.5 * (args.dim - 1)
        # Rejects a (sigma, dim) outside the guaranteed regime before any output.
        window = nu_bounds(args.sigma, args.dim)
    else:
        raise ValueError("epsilon needs --mu, or both --sigma and --dim")
    res = epsilon_mu(mu)
    print(f"mu = {_show(res.mu)}")
    print(f"epsilon = {_show(res.epsilon)}")
    print(f"argmin_a = {_show(res.argmin_a)}")
    print(f"four_epsilon = {_show(4.0 * res.epsilon)}")
    print(f"admissible_upper = {_show(nu_ceiling(mu))}")
    if window is not None:
        print(f"nu_lower = {_show(window[0])}")
        print(f"nu_upper = {_show(window[1])}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    spec = enumerate_spectrum(dom, args.cutoff)
    report = BoundReport(
        "spectrum",
        {
            "eigenvalue": spec.eigenvalues,
            "multiplicity": spec.multiplicities,
            "cumulative_count": spec.cumulative_counts,
        },
        (),
    )
    if args.csv is not None:
        _emit_csv(report, args.csv)
        if args.csv != "-":
            print(f"wrote {report.n_rows} rows to {args.csv}")
        return 0
    print(f"domain = {render_domain(dom)}")
    print(f"cutoff = {_show(args.cutoff)}")
    print(f"distinct = {spec.eigenvalues.size}")
    print(f"total = {spec.total_count}")
    # the table is the CSV after its comment line, with spaces for commas
    table = io.BytesIO()
    report.to_csv(table)
    sys.stdout.write(table.getvalue().split(b"\n", 1)[1].replace(b",", b" ").decode())
    return 0


def _report_exit(report: BoundReport, csv: str | None) -> int:
    if csv is not None:
        _emit_csv(report, csv)
    print(report.summary())
    return 0 if report.all_passed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    grid = [_positive("--lambda", args.lam)]
    report = sweep_riesz(dom, args.sigma, grid, nu=args.nu)
    if args.csv is not None:
        _emit_csv(report, args.csv)
    row = report.rows[0]
    print(f"berezin-lab v{TOOL_VERSION} check")
    print(f"domain = {render_domain(dom)}")
    print(f"nu = {_show(report.metadata['nu'])} ({report.metadata['nu_mode']})")
    # The value columns come first, then a verdict and a margin per check.
    for name in list(row)[: len(row) - 2 * len(report.checks)]:
        value = row[name]
        print(f"{name} = {value if isinstance(value, int) else _show(value)}")
    for name in report.checks:
        margin = row[f"{name}_margin"]
        tail = "" if math.isnan(margin) else f" margin={margin:.6g}"
        print(f"check {name}: {row[name]}{tail}")
    verdict = "PASS" if report.all_passed else "FAIL"
    print(f"VERDICT: {verdict}")
    return 0 if report.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    report = sweep_riesz(dom, args.sigma, _energy_grid(args, 1.0), nu=args.nu)
    return _report_exit(report, args.csv)


def _cmd_sums(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    if args.points is not None:
        _at_least("--points", args.points)
    _at_least("--n-max", args.n_max)
    _bound_grid("--n-max", args.n_max, dom.eigenvalues_per_entry)
    if args.points is None:
        grid = np.arange(1, args.n_max + 1)
    else:
        _bound_grid("--points", args.points)
        raw = np.geomspace(1.0, float(args.n_max), args.points)
        raw = np.rint(raw).astype(np.int64)
        grid = raw[np.diff(raw, prepend=0) != 0]  # raw is non-decreasing
    report = sweep_sums(dom, args.sigma, grid, melas_m=args.melas_m)
    return _report_exit(report, args.csv)


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    _at_least("--points", args.points, 2)
    grid = _energy_grid(args, _positive("--lambda", args.lam))
    report = asymptotic_diagnostics(dom, args.sigma, grid)
    return _report_exit(report, args.csv)


# Each subcommand: its help line, the function that adds its options and its handler.
_COMMANDS = {
    "constants": (
        "semiclassical constants for one (sigma, dim)", _constants_options, _cmd_constants
    ),
    "epsilon": ("remainder minimum and correction weights", _epsilon_options, _cmd_epsilon),
    "spectrum": ("eigenvalues of a domain below a cutoff", _spectrum_options, _cmd_spectrum),
    "check": ("full bound chain at a single energy", _check_options, _cmd_check),
    "sweep": ("Riesz-mean bounds over an energy grid", _sweep_options, _cmd_sweep),
    "sums": ("eigenvalue-sum bounds over an index grid", _sums_options, _cmd_sums),
    "asymptotics": (
        "high-energy two-term diagnostics", _asymptotics_options, _cmd_asymptotics
    ),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A command in first place takes every later argument, so its parser
    # alone parses them; anything else is parsed with every command built.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 (--help, --version) or 2
        return exc.code
    try:
        return _COMMANDS[args.command][2](args)
    # ArithmeticError: a closed form overflowed, or divided by an underflowed 0
    except (NumericFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DomainParseError, UnsupportedDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
