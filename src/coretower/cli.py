"""Command-line surface: cores, quotients, towers, series, verification.

Exit codes: 0 when everything checked out, 1 when a verification found a
mismatch, 2 on usage errors.  Output is deterministic; with --format json
the stdout payload is a single JSON document whose big integers are
decimal strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from mpmath import mp

from . import asymptotics, genfun
from . import series as qs
from .partitions import Partition, make_partition
from .tower import _defect, core_tower, t_core, t_quotient

PRECISION_ENV = "CORETOWER_PRECISION"


@dataclass
class CliConfig:
    fmt: str = "plain"
    precision: int = 50
    brute_ceiling: int = 30


def _parse_partition(text: str) -> Partition:
    if text == "":
        return Partition()
    pieces = text.split(",")
    if not all(piece.isascii() and piece.isdigit() for piece in pieces):
        raise ValueError(f"bad partition syntax {text!r}; expected comma-separated parts")
    return make_partition(tuple(map(int, pieces)))


def _fmt_parts(lam: Partition) -> str:
    return ",".join(str(p) for p in lam.parts)


def _fmt_paren(lam: Partition) -> str:
    return "(" + _fmt_parts(lam) + ")"


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _require_plain_or_json(cfg: CliConfig, where: str) -> None:
    if cfg.fmt == "csv":
        raise ValueError(f"csv format is not available for {where}")


def _cmd_core(cfg: CliConfig, args) -> int:
    _require_plain_or_json(cfg, "core output")
    lam = _parse_partition(args.partition)
    core = t_core(lam, args.t)
    if cfg.fmt == "json":
        _print_json({"t": args.t, "partition": list(lam.parts), "core": list(core.parts)})
    else:
        print(_fmt_parts(core))
    return 0


def _cmd_quotient(cfg: CliConfig, args) -> int:
    _require_plain_or_json(cfg, "quotient output")
    lam = _parse_partition(args.partition)
    quotient = t_quotient(lam, args.t)
    if cfg.fmt == "json":
        _print_json(
            {
                "t": args.t,
                "partition": list(lam.parts),
                "quotient": [list(c.parts) for c in quotient],
            }
        )
    else:
        for r, comp in enumerate(quotient):
            print(f"{r}: {_fmt_parts(comp)}")
    return 0


def _int_list(xs, depth: int) -> str:
    """xs as json.dumps(xs, indent=2) renders it at the given nesting depth."""
    if not xs:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(map(str, xs)) + "\n" + "  " * depth + "]"


def _cmd_tower(cfg: CliConfig, args) -> int:
    _require_plain_or_json(cfg, "tower output")
    lam = _parse_partition(args.partition)
    tower = core_tower(lam, args.t)
    d = _defect(lam, args.t, tower.row_sizes)
    # Written directly: json.dumps with indent uses its slow pure-Python encoder.
    if cfg.fmt == "json":
        rows = ",\n    ".join(
            "[\n      " + ",\n      ".join(_int_list(p.parts, 3) for p in r) + "\n    ]"
            for r in tower.rows
        )
        print(
            f'{{\n  "t": {args.t},\n  "partition": {_int_list(lam.parts, 1)},\n'
            f'  "rows": [\n    {rows}\n  ],\n'
            f'  "row_sizes": {_int_list(tower.row_sizes, 1)},\n  "defect": {d}\n}}'
        )
    else:
        print(f"t={args.t} partition={_fmt_parts(lam)} size={lam.size}")
        for j, row in enumerate(tower.rows):
            cells = " ".join(_fmt_paren(p) for p in row)
            print(f"row {j}: {cells} size={tower.row_sizes[j]}")
        print(f"defect={d}")
    return 0


def _cmd_series(cfg: CliConfig, args) -> int:
    family = args.family
    if family in ("T", "cores") and args.j is None:
        raise ValueError(f"series {family} requires --j")
    if family == "D" and args.j is not None:
        raise ValueError("series D takes no --j")
    j = args.j if args.j is not None else 0
    order = args.order
    if args.mode in ("brute", "both") and order > cfg.brute_ceiling:
        raise ValueError(
            f"order {order} exceeds the brute-force ceiling {cfg.brute_ceiling}; "
            f"raise --brute-ceiling explicitly if you mean it"
        )
    closed_form, enumerated = genfun.FAMILIES[family]
    if args.mode == "both":
        _require_plain_or_json(cfg, "verification reports")
        report = genfun.compare_series(
            f"series.{family}",
            closed_form(j, args.t, order),
            enumerated(j, args.t, order),
            t=args.t,
            j=args.j,
        )
        if cfg.fmt == "json":
            _print_json(report.to_json_dict())
        else:
            print(report.describe())
        return 0 if report.passed else 1

    result = (closed_form if args.mode == "closed" else enumerated)(j, args.t, order)
    if cfg.fmt == "json":
        _print_json(qs.to_json_dict(result))
    elif cfg.fmt == "csv":
        sys.stdout.write(qs.to_csv(result))
    else:
        for n, c in enumerate(result.coeffs):
            print(f"{n} {c}")
    return 0


def _cmd_verify(cfg: CliConfig, args) -> int:
    _require_plain_or_json(cfg, "verification reports")
    t, order = args.t, args.order
    if args.what == "congruence":
        reports = [
            genfun.check_congruence(t, order, claim="np"),
            genfun.check_congruence(t, order, claim="multiples"),
        ]
    elif args.what == "recursion":
        reports = [genfun.check_recursion(t, order)]
    else:
        reports = [genfun.monotonicity_check(t, order)]
    if cfg.fmt == "json":
        _print_json({"reports": [r.to_json_dict() for r in reports]})
    else:
        for r in reports:
            print(r.describe())
    return 0 if all(r.passed for r in reports) else 1


def _cmd_asympt_defect(cfg: CliConfig, args) -> int:
    try:
        ns = tuple(int(piece) for piece in args.samples.split(","))
    except ValueError:
        raise ValueError(f"bad sample list {args.samples!r}")
    samples = asymptotics.defect_samples(args.t, ns, dps=cfg.precision)
    if cfg.fmt == "json":
        _print_json(
            [
                {
                    "n": s.n,
                    "exact": str(s.exact),
                    "predicted_main_term": mp.nstr(s.predicted_main_term, 15),
                    "predicted_np_over_t1": mp.nstr(s.predicted_np_over_t1, 15),
                    "ratio": mp.nstr(s.ratio, 15),
                }
                for s in samples
            ]
        )
    else:
        sys.stdout.write(asymptotics.samples_to_csv(samples))
    return 0


def _cmd_asympt_transform(cfg: CliConfig, args) -> int:
    _require_plain_or_json(cfg, "transform output")
    residual = asymptotics.eisenstein_transform_residual(
        args.m, args.eps, dps=cfg.precision
    )
    if cfg.fmt == "json":
        _print_json({"m": args.m, "eps": args.eps, "residual": mp.nstr(residual, 12)})
    else:
        print(f"residual {mp.nstr(residual, 12)}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (default plain)",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=None,
        help=f"working decimal digits for float evaluations "
        f"(default 50, override with ${PRECISION_ENV})",
    )
    parser.add_argument(
        "--brute-ceiling",
        type=int,
        default=30,
        help="largest order allowed for brute-force enumeration (default 30)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coretower",
        description="Exact t-core tower statistics and series verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, blurb in (
        ("core", _cmd_core, "t-core of a partition"),
        ("quotient", _cmd_quotient, "t-quotient components of a partition"),
        ("tower", _cmd_tower, "core tower rows, row sizes, and defect"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_common(p)
        p.add_argument("--t", type=int, required=True, help="modulus, at least 2")
        p.add_argument(
            "partition",
            nargs="?",
            default="",
            help="comma-separated parts; empty for the empty partition",
        )
        p.set_defaults(handler=handler)

    p = sub.add_parser("series", help="exact series, closed form or brute force")
    _add_common(p)
    p.add_argument("family", choices=tuple(genfun.FAMILIES))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--j", type=int, default=None, help="tower row (T and cores only)")
    p.add_argument("--order", type=int, default=100)
    p.add_argument("--mode", choices=("closed", "brute", "both"), default="closed")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", help="run an identity or congruence check")
    _add_common(p)
    p.add_argument("what", choices=("congruence", "recursion", "monotone"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, default=100)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("asympt", help="asymptotic comparisons")
    asympt_sub = p.add_subparsers(dest="target", required=True)

    pd = asympt_sub.add_parser("defect", help="exact vs predicted total defects")
    _add_common(pd)
    pd.add_argument("--t", type=int, required=True)
    pd.add_argument("--samples", default="100,200,400", help="comma-separated sizes")
    pd.set_defaults(handler=_cmd_asympt_defect)

    pt = asympt_sub.add_parser("transform", help="Eisenstein inversion residual")
    _add_common(pt)
    pt.add_argument("--m", type=int, required=True)
    pt.add_argument("--eps", required=True, help="decimal in (0, 1]")
    pt.set_defaults(handler=_cmd_asympt_transform)

    return parser


def _config(args) -> CliConfig:
    """Validated settings; a bad value raises ValueError, never a traceback."""
    precision = args.precision
    if precision is None:
        raw = os.environ.get(PRECISION_ENV, "50")
        try:
            precision = int(raw)
        except ValueError:
            raise ValueError(f"${PRECISION_ENV} must be an integer, got {raw!r}")
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    if args.brute_ceiling < 0:
        raise ValueError(
            f"--brute-ceiling must be nonnegative, got {args.brute_ceiling}"
        )
    return CliConfig(
        fmt=args.format,
        precision=precision,
        brute_ceiling=args.brute_ceiling,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(_config(args), args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
