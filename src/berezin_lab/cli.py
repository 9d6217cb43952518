"""Command line front end.

Subcommands:
    constants    semiclassical constants for one (sigma, dim)
    epsilon      remainder minimum and admissible correction weights
    spectrum     enumerate eigenvalues of a domain below a cutoff
    check        evaluate the full bound chain at a single energy
    sweep        Riesz-mean bounds over a geometric energy grid
    sums         eigenvalue-sum bounds over an index grid
    asymptotics  high-energy ratios against the two-term expansion

Domains are given as text: "box:1x2", "disk:0.75",
"union:box(1x1)@(0,0)+box(2x0.5)@(1,0)". A box or a union may be followed
by ";axis=<i>" to slice along coordinate i instead of the last one; a disk
takes no axis, since its sliced quantities do not depend on the direction.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
usage or malformed input, 3 a numeric procedure failed to converge or a
value overflowed.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .constants import (
    SemiclassicalParams,
    c_const,
    dimension_reduction_identity_residual,
    lt_value,
    polya_counting_factor,
    rho_lower,
    unit_ball_volume,
)
from .errors import (
    DomainParseError,
    EnumerationLimitError,
    NumericFailure,
    UnsupportedDomainError,
)
from .geometry import AxisBox, BoxUnion, Disk, Domain
from .harness import (
    BoundReport,
    RIESZ_CHECKS,
    RIESZ_COLUMNS,
    asymptotic_diagnostics,
    sweep_riesz,
    sweep_sums,
)
from .remainder import epsilon_mu, nu_bounds, nu_ceiling
from .spectra import ENUMERATION_LIMIT, enumerate_spectrum
from .version import TOOL_VERSION

__all__ = [
    "main",
    "parse_domain",
    "render_domain",
    "build_parser",
]

_UNION_BOX = re.compile(r"box\(([^()]*)\)@\(([^()]*)\)")
_AT_MOST = f"at most {ENUMERATION_LIMIT:,}"  # bound of --points and --n-max


def _parse_number(token: str, what: str, pos: int, positive: bool = True) -> float:
    try:
        v = float(token)
    except ValueError:
        raise DomainParseError(f"could not read {what} from {token!r}", pos) from None
    if not (math.isfinite(v) and (v > 0.0 or not positive)):
        need = "positive and finite" if positive else "finite"
        raise DomainParseError(f"{what} must be {need}, got {token!r}", pos)
    return v


def _parse_list(
    body: str, sep: str, what: str, start: int, positive: bool = True
) -> tuple[float, ...]:
    values = []
    pos = start
    for token in body.split(sep):
        values.append(_parse_number(token, what, pos, positive))
        pos += len(token) + 1
    return tuple(values)


def parse_domain(text: str) -> Domain:
    """Build a domain from its text form; see the module docstring."""
    body = text.strip()
    axis = None
    if ";" in body:
        body, _, tail = body.partition(";")
        opt = re.fullmatch(r"\s*axis=(\d+)\s*", tail)
        if opt is None:
            raise DomainParseError(
                f"unrecognized option {tail!r}, expected axis=<int>", len(body) + 1
            )
        axis = int(opt.group(1))
    kind, sep, rest = body.partition(":")
    if not sep:
        raise DomainParseError("expected <kind>:<parameters>", 0)
    start = len(kind) + 1

    def check_axis(d: int) -> None:
        if axis is not None and not 1 <= axis <= d:
            msg = f"slicing_axis must lie in [1, {d}], got {axis}"
            raise DomainParseError(msg, len(body) + 1)

    if kind == "box":
        sides = _parse_list(rest, "x", "side length", start)
        check_axis(len(sides))
        return AxisBox(sides, slicing_axis=axis)
    if kind == "disk":
        radius = _parse_number(rest, "radius", start)
        if axis is not None:
            msg = "a disk takes no axis: its sections are the same in every direction"
            raise DomainParseError(msg, len(body) + 1)
        return Disk(radius)
    if kind == "union":
        boxes = []
        pos = start
        for part in re.split(r"\+(?=box\()", rest):  # not the + of an exponent
            match = _UNION_BOX.fullmatch(part)
            if match is None:
                raise DomainParseError(
                    f"expected box(<sides>)@(<origin>), got {part!r}", pos
                )
            sides = _parse_list(match.group(1), "x", "side length", pos + 4)
            at = pos + 4 + len(match.group(1)) + 3
            origin = _parse_list(match.group(2), ",", "origin coordinate", at, False)
            if len(origin) != len(sides):
                raise DomainParseError(
                    f"origin has {len(origin)} coordinates for {len(sides)} sides", pos
                )
            boxes.append(AxisBox(sides, origin))
            pos += len(part) + 1
        check_axis(boxes[0].dim)
        try:
            return BoxUnion(tuple(boxes), slicing_axis=axis)
        except ValueError as exc:
            raise DomainParseError(str(exc), start) from None
    raise DomainParseError(f"unknown domain kind {kind!r}", 0)


def _join(values: tuple[float, ...], sep: str) -> str:
    return sep.join(repr(v) for v in values)


def render_domain(dom: Domain) -> str:
    """Inverse of parse_domain, up to box-versus-union spelling.

    A box with a nonzero origin only exists in the union branch of the
    grammar, so it renders as a one-box union.
    """
    if isinstance(dom, Disk):
        return f"disk:{dom.radius!r}"
    if isinstance(dom, AxisBox) and not any(dom.origin):
        text = f"box:{_join(dom.sides, 'x')}"
    else:
        parts = (
            f"box({_join(b.sides, 'x')})@({_join(b.origin, ',')})" for b in dom.boxes
        )
        text = "union:" + "+".join(parts)
    if dom.slicing_axis != dom.dim:
        text += f";axis={dom.slicing_axis}"
    return text


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
    report.to_csv(sys.stdout if dest == "-" else dest)


def _positive(flag: str, value: float) -> float:
    """A grid endpoint, rejected before numpy builds a grid from it."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{flag} must be positive and finite, got {value!r}")
    return value


def _grid_end(flag: str, end: float, start: float, size: int) -> None:
    """Exit 2, naming the flag, for a grid that would reach above its end."""
    if end < start or (end == start and size > 1):
        op = ">" if size > 1 else ">="
        raise ValueError(f"{flag} must be {op} the grid start {start!r}, got {end!r}")


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


def _add_domain_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", required=True, help="domain text, e.g. box:1x2;axis=1")


def _add_report_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--csv", default=None, help="write the row table to this path ('-' = stdout)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="berezin-lab",
        description="Spectral bounds for the Dirichlet Laplacian on explicit domains.",
    )
    parser.add_argument(
        "--version", action="version", version=f"berezin-lab {TOOL_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="semiclassical constants for one (sigma, dim)")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)

    p = sub.add_parser("epsilon", help="remainder minimum and correction weights")
    p.add_argument("--mu", type=float, default=None, help="remainder exponent")
    p.add_argument("--sigma", type=float, default=None, help="with --dim, sets mu")
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("spectrum", help="eigenvalues of a domain below a cutoff")
    _add_domain_options(p)
    p.add_argument("--cutoff", type=float, required=True)
    p.add_argument("--csv", default=None, help="write the table here ('-' = stdout)")

    p = sub.add_parser("check", help="full bound chain at a single energy")
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

    p = sub.add_parser("sweep", help="Riesz-mean bounds over an energy grid")
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument(
        "--points", type=int, required=True, help=f"grid size from 1.0 up, {_AT_MOST}"
    )
    p.add_argument("--nu", type=_nu_argument, default=None)
    _add_report_options(p)

    p = sub.add_parser("sums", help="eigenvalue-sum bounds over an index grid")
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

    p = sub.add_parser("asymptotics", help="high-energy two-term diagnostics")
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument(
        "--lambda", dest="lam", type=float, default=100.0, help="grid start"
    )
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--points", type=int, default=8, help=f"grid size, {_AT_MOST}")
    _add_report_options(p)

    return parser


def _cmd_constants(args: argparse.Namespace) -> int:
    p = SemiclassicalParams(args.sigma, args.dim)
    # Every value is computed before the first line is printed.
    values = {
        "lt_classical": lt_value(p.sigma, p.dim),
        "lt_lower_dim": lt_value(p.sigma, p.dim - 1),
        "counting_constant": lt_value(0.0, p.dim),
        "unit_ball_volume": unit_ball_volume(p.dim),
        "polya_counting_factor": polya_counting_factor(p.dim),
    }
    if p.sigma > 0.0:
        values["c_const"] = c_const(p)
    if p.sigma >= 1.0:
        values["rho_lower"] = rho_lower(p)
    if p.dim >= 2:
        values["dimension_reduction_residual"] = dimension_reduction_identity_residual(p)
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
    if args.csv is not None:
        report = BoundReport(
            "spectrum",
            {
                "eigenvalue": spec.eigenvalues,
                "multiplicity": spec.multiplicities,
                "cumulative_count": spec.cumulative_counts,
            },
            (),
        )
        _emit_csv(report, args.csv)
        if args.csv != "-":
            print(f"wrote {report.n_rows} rows to {args.csv}")
        return 0
    print(f"domain = {render_domain(dom)}")
    print(f"cutoff = {_show(args.cutoff)}")
    print(f"distinct = {spec.eigenvalues.size}")
    print(f"total = {spec.total_count}")
    print("eigenvalue multiplicity cumulative_count")
    columns = (spec.eigenvalues, spec.multiplicities, spec.cumulative_counts)
    for value, mult, count in zip(*(c.tolist() for c in columns)):
        print(f"{_show(value)} {mult} {count}")
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
    row = {name: column.tolist()[0] for name, column in report.columns.items()}
    print(f"berezin-lab v{TOOL_VERSION} check")
    print(f"domain = {render_domain(dom)}")
    print(f"nu = {_show(report.metadata['nu'])} ({report.metadata['nu_mode']})")
    for name in RIESZ_COLUMNS:
        value = row[name]
        print(f"{name} = {value if isinstance(value, int) else _show(value)}")
    for name in RIESZ_CHECKS:
        margin = row[f"{name}_margin"]
        tail = "" if math.isnan(margin) else f" margin={margin:.6g}"
        print(f"check {name}: {row[name]}{tail}")
    verdict = "PASS" if report.all_passed else "FAIL"
    print(f"VERDICT: {verdict}")
    return 0 if report.all_passed else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    _at_least("--points", args.points)
    lambda_max = _positive("--lambda-max", args.lambda_max)
    _grid_end("--lambda-max", lambda_max, 1.0, args.points)
    _bound_grid("--points", args.points)
    grid = np.geomspace(1.0, lambda_max, args.points)
    report = sweep_riesz(dom, args.sigma, grid, nu=args.nu)
    return _report_exit(report, args.csv)


def _cmd_sums(args: argparse.Namespace) -> int:
    dom = parse_domain(args.domain)
    if args.points is not None:
        _at_least("--points", args.points)
    _at_least("--n-max", args.n_max)
    # An entry holds one box eigenvalue, or up to two disk eigenvalues.
    _bound_grid("--n-max", args.n_max, 2 if isinstance(dom, Disk) else 1)
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
    lam = _positive("--lambda", args.lam)
    lambda_max = _positive("--lambda-max", args.lambda_max)
    _grid_end("--lambda-max", lambda_max, lam, args.points)
    _bound_grid("--points", args.points)
    grid = np.geomspace(lam, lambda_max, args.points)
    report = asymptotic_diagnostics(dom, args.sigma, grid)
    return _report_exit(report, args.csv)


_HANDLERS = {
    "constants": _cmd_constants,
    "epsilon": _cmd_epsilon,
    "spectrum": _cmd_spectrum,
    "check": _cmd_check,
    "sweep": _cmd_sweep,
    "sums": _cmd_sums,
    "asymptotics": _cmd_asymptotics,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _HANDLERS[args.command](args)
    # ArithmeticError: a closed form overflowed, or divided by an underflowed 0
    except (NumericFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DomainParseError, UnsupportedDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
