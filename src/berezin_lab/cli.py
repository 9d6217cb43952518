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
"union:box(1x1)@(0,0)+box(2x0.5)@(1,0)", each optionally followed by
";axis=<i>" to slice along coordinate i instead of the last one.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad
usage or malformed input, 3 a numeric procedure failed to converge.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import sys
from typing import IO

import numpy as np

from .constants import (
    SemiclassicalParams,
    c_const,
    dimension_reduction_identity_residual,
    lt_classical,
    lt_value,
    polya_counting_factor,
    rho_lower,
    unit_ball_volume,
)
from .errors import DomainParseError, NumericFailure, UnsupportedDomainError
from .geometry import AxisBox, BoxUnion, Disk, Domain, GenericSliced
from .harness import (
    BoundReport,
    RIESZ_CHECKS,
    RIESZ_COLUMNS,
    SweepConfig,
    asymptotic_diagnostics,
    sweep_riesz,
    sweep_sums,
)
from .remainder import epsilon_mu, nu_bounds, nu_ceiling
from .spectra import enumerate_spectrum
from .version import TOOL_VERSION

__all__ = [
    "main",
    "parse_domain",
    "render_domain",
    "build_parser",
]

_UNION_BOX = re.compile(r"box\(([^()]*)\)@\(([^()]*)\)")


def _fail(message: str, position: int) -> DomainParseError:
    return DomainParseError(message, position)


def _parse_positive(token: str, what: str, pos: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise _fail(f"could not read {what} from {token!r}", pos) from None
    if not (math.isfinite(v) and v > 0.0):
        raise _fail(f"{what} must be positive and finite, got {token!r}", pos)
    return v


def _parse_sides(body: str, start: int) -> tuple[float, ...]:
    sides = []
    pos = start
    for token in body.split("x"):
        sides.append(_parse_positive(token, "side length", pos))
        pos += len(token) + 1
    return tuple(sides)


def _parse_origin(body: str, start: int) -> tuple[float, ...]:
    origin = []
    pos = start
    for token in body.split(","):
        try:
            v = float(token)
        except ValueError:
            raise _fail(f"could not read origin coordinate from {token!r}", pos) from None
        if not math.isfinite(v):
            raise _fail(f"origin coordinate must be finite, got {token!r}", pos)
        origin.append(v)
        pos += len(token) + 1
    return tuple(origin)


def parse_domain(text: str) -> Domain:
    """Build a domain from its text form; see the module docstring."""
    body = text.strip()
    axis = None
    if ";" in body:
        body, _, tail = body.partition(";")
        opt = re.fullmatch(r"\s*axis=(\d+)\s*", tail)
        if opt is None:
            raise _fail(
                f"unrecognized option {tail!r}, expected axis=<int>", len(body) + 1
            )
        axis = int(opt.group(1))
    kind, sep, rest = body.partition(":")
    if not sep:
        raise _fail("expected <kind>:<parameters>", 0)
    start = len(kind) + 1
    if kind == "box":
        return AxisBox(_parse_sides(rest, start), slicing_axis=axis)
    if kind == "disk":
        return Disk(_parse_positive(rest, "radius", start), slicing_axis=axis)
    if kind == "union":
        boxes = []
        pos = start
        for part in rest.split("+"):
            match = _UNION_BOX.fullmatch(part)
            if match is None:
                raise _fail(
                    f"expected box(<sides>)@(<origin>), got {part!r}", pos
                )
            sides = _parse_sides(match.group(1), pos + 4)
            origin = _parse_origin(match.group(2), pos + 4 + len(match.group(1)) + 3)
            if len(origin) != len(sides):
                raise _fail(
                    f"origin has {len(origin)} coordinates for {len(sides)} sides", pos
                )
            boxes.append(AxisBox(sides, origin))
            pos += len(part) + 1
        try:
            return BoxUnion(tuple(boxes), slicing_axis=axis)
        except ValueError as exc:
            raise _fail(str(exc), start) from None
    raise _fail(f"unknown domain kind {kind!r}", 0)


def _join(values: tuple[float, ...], sep: str) -> str:
    return sep.join(repr(v) for v in values)


def render_domain(dom: Domain) -> str:
    """Inverse of parse_domain, up to box-versus-union spelling.

    A box with a nonzero origin only exists in the union branch of the
    grammar, so it renders as a one-box union.
    """
    if isinstance(dom, GenericSliced):
        raise UnsupportedDomainError("callback-backed domains have no text form")
    if isinstance(dom, Disk):
        text = f"disk:{dom.radius!r}"
        default_axis = 2
    elif isinstance(dom, AxisBox):
        default_axis = dom.dim
        if all(o == 0.0 for o in dom.origin):
            text = f"box:{_join(dom.sides, 'x')}"
        else:
            text = f"union:box({_join(dom.sides, 'x')})@({_join(dom.origin, ',')})"
    else:
        default_axis = dom.dim
        parts = [
            f"box({_join(b.sides, 'x')})@({_join(b.origin, ',')})" for b in dom.boxes
        ]
        text = "union:" + "+".join(parts)
    if dom.slicing_axis != default_axis:
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


def _domain_from_args(args: argparse.Namespace) -> Domain:
    dom = parse_domain(args.domain)
    if getattr(args, "axis", None) is not None:
        dom = dataclasses.replace(dom, slicing_axis=args.axis)
    return dom


def _add_domain_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--domain", required=True, help="domain text, e.g. box:1x2")
    p.add_argument(
        "--axis", type=int, default=None, help="override the slicing coordinate"
    )


def _add_report_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--slack",
        type=float,
        default=1e-9,
        help="relative tolerance granted to every inequality (default 1e-9)",
    )
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
    p.add_argument("--points", type=int, required=True, help="grid size from 1.0 up")
    p.add_argument("--nu", type=_nu_argument, default=None)
    _add_report_options(p)

    p = sub.add_parser("sums", help="eigenvalue-sum bounds over an index grid")
    _add_domain_options(p)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument(
        "--points",
        type=int,
        default=None,
        help="log-subsample to about this many indices (default: all)",
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
    p.add_argument("--points", type=int, default=8)
    _add_report_options(p)

    return parser


def _cmd_constants(args: argparse.Namespace) -> int:
    p = SemiclassicalParams(args.sigma, args.dim)
    print(f"sigma = {_show(p.sigma)}")
    print(f"dim = {p.dim}")
    print(f"lt_classical = {_show(lt_classical(p))}")
    print(f"lt_lower_dim = {_show(lt_value(p.sigma, p.dim - 1))}")
    print(f"counting_constant = {_show(lt_value(0.0, p.dim))}")
    print(f"unit_ball_volume = {_show(unit_ball_volume(p.dim))}")
    print(f"polya_counting_factor = {_show(polya_counting_factor(p.dim))}")
    if p.sigma > 0.0:
        print(f"c_const = {_show(c_const(p))}")
    if p.sigma >= 1.0:
        print(f"rho_lower = {_show(rho_lower(p))}")
    if p.dim >= 2:
        print(
            "dimension_reduction_residual = "
            f"{_show(dimension_reduction_identity_residual(p))}"
        )
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
    dom = _domain_from_args(args)
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
    dom = _domain_from_args(args)
    cfg = SweepConfig(
        domain=dom,
        sigma=args.sigma,
        lambda_grid=(args.lam,),
        nu=args.nu,
        slack=args.slack,
    )
    report = sweep_riesz(cfg)
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
    dom = _domain_from_args(args)
    grid = tuple(float(v) for v in np.geomspace(1.0, args.lambda_max, args.points))
    cfg = SweepConfig(
        domain=dom,
        sigma=args.sigma,
        lambda_grid=grid,
        nu=args.nu,
        slack=args.slack,
    )
    report = sweep_riesz(cfg)
    return _report_exit(report, args.csv)


def _cmd_sums(args: argparse.Namespace) -> int:
    dom = _domain_from_args(args)
    if args.n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {args.n_max}")
    if args.points is None:
        grid = tuple(range(1, args.n_max + 1))
    else:
        raw = np.geomspace(1.0, float(args.n_max), args.points)
        grid = tuple(sorted({int(round(v)) for v in raw}))
    cfg = SweepConfig(
        domain=dom,
        sigma=args.sigma,
        n_grid=grid,
        melas_m=args.melas_m,
        slack=args.slack,
    )
    report = sweep_sums(cfg)
    return _report_exit(report, args.csv)


def _cmd_asymptotics(args: argparse.Namespace) -> int:
    dom = _domain_from_args(args)
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    lams = tuple(float(v) for v in np.geomspace(args.lam, args.lambda_max, args.points))
    report = asymptotic_diagnostics(dom, args.sigma, lams, args.slack)
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
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (DomainParseError, UnsupportedDomainError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
