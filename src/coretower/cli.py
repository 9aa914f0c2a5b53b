"""Command-line surface: cores, quotients, towers, series, verification.

Exit codes: 0 when everything checked out, 1 when a verification found a
mismatch, 2 on usage errors or when memory runs out.  Output is
deterministic; with --format json the stdout payload is a single JSON
document whose big integers are decimal strings.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache, partial
from itertools import chain, repeat
from typing import Iterator

from mpmath import mp

from . import asymptotics, genfun
from . import series as qs
from .partitions import Partition, make_partition
from .tower import _defect, core_tower, t_core, t_quotient

# A defect sample's shown digits plus five guard digits; with fewer, some go wrong.
MIN_PRECISION = asymptotics.SHOWN_DIGITS + 5

_PIECE = 512  # characters of a text split at a time by _parse_ints


def _pieces(text: str) -> Iterator[str]:
    """text cut at commas into pieces of about _PIECE characters: their runs
    are text.split(","), in order, and no more than one piece's are held at
    once."""
    start = 0
    while (end := text.find(",", start + _PIECE)) >= 0:
        yield text[start:end]
        start = end + 1
    yield text[start:]


class _Ints(dict):
    """Each comma-separated run met so far mapped to its int, or to None
    when it is not all digits."""

    def __missing__(self, run: str) -> int | None:
        self[run] = value = int(run) if run.isdigit() else None
        return value


def _parse_ints(text: str, error: str) -> tuple[int, ...]:
    """The comma-separated plain ASCII digit runs of text, else ValueError(error).
    Each distinct run is read by int() once, in order of first appearance,
    and no list of all the runs is built."""
    if text.isascii():
        values = _Ints()
        runs = chain.from_iterable(map(str.split, _pieces(text), repeat(",")))
        parts = tuple(map(values.__getitem__, runs))
        if None not in values.values():
            return parts
    raise ValueError(error)


def _parse_partition(text: str) -> Partition:
    if text == "":
        return Partition()
    error = f"bad partition syntax {text!r}; expected comma-separated parts"
    return make_partition(_parse_ints(text, error))


def _fmt_parts(parts) -> str:
    return ",".join(map(str, parts))


def _json(payload) -> str:
    import json  # here, so that a command that writes no JSON does not load it
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, payload, text: str) -> None:
    """Write payload as indented JSON under --format json, else text, which
    ends with its own newline."""
    if args.format == "json":
        text = _json(payload)
    sys.stdout.write(text)


def _cmd_core(args) -> int:
    lam = _parse_partition(args.partition)
    core = t_core(lam, args.t)
    payload = {"t": args.t, "partition": list(lam.parts), "core": list(core.parts)}
    _emit(args, payload, _fmt_parts(core.parts) + "\n")
    return 0


def _cmd_quotient(args) -> int:
    lam = _parse_partition(args.partition)
    quotient = [list(c.parts) for c in t_quotient(lam, args.t)]
    text = "".join(f"{r}: {_fmt_parts(parts)}\n" for r, parts in enumerate(quotient))
    _emit(args, {"t": args.t, "partition": list(lam.parts), "quotient": quotient}, text)
    return 0


def _int_list(xs, depth: int) -> str:
    """xs as json.dumps(xs, indent=2) renders it at the given nesting depth."""
    if not xs:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(map(str, xs)) + "\n" + "  " * depth + "]"


def _row_text(row, width: int, empty: str, sep: str, fmt) -> str:
    """The width cells of a tower row joined by sep: fmt(parts) at each
    (index, parts) of row, empty at the others, each run of empty cells
    one repeated string."""
    blank, pieces, last = empty + sep, [], 0
    for i, parts in row:
        pieces += blank * (i - last), fmt(parts), sep
        last = i + 1
    if last < width:
        pieces += blank * (width - last - 1), empty
    else:
        pieces.pop()
    return "".join(pieces)


def _cmd_tower(args) -> int:
    text, t = args.partition, args.t
    lam = _parse_partition(text)
    tower = core_tower(lam, t)
    d = _defect(lam, lam.size, t, tower.row_sizes)
    # An accepted text with no leading zero is its parts' own rendering.
    if text[:1] == "0" or ",0" in text:
        text = _fmt_parts(lam.parts)
    # Written directly: json.dumps with indent uses its slow pure-Python encoder.
    if args.format == "json":
        fmt = cache(lambda parts: _int_list(parts, 3))
        rows = ",\n    ".join(
            "[\n      " + _row_text(row, t**j, "[]", ",\n      ", fmt) + "\n    ]"
            for j, row in enumerate(tower.entries)
        )
        partition = "[\n    " + text.replace(",", ",\n    ") + "\n  ]" if text else "[]"
        print(
            f'{{\n  "t": {t},\n  "partition": {partition},\n'
            f'  "rows": [\n    {rows}\n  ],\n'
            f'  "row_sizes": {_int_list(tower.row_sizes, 1)},\n  "defect": {d}\n}}'
        )
    else:
        print(f"t={t} partition={text} size={lam.size}")
        fmt = cache(lambda parts: "(" + _fmt_parts(parts) + ")")
        for j, row in enumerate(tower.entries):
            cells = _row_text(row, t**j, "()", " ", fmt)
            print(f"row {j}: {cells} size={tower.row_sizes[j]}")
        print(f"defect={d}")
    return 0


def _cmd_series(args) -> int:
    ceiling = args.brute_ceiling
    if ceiling < 0:
        raise ValueError(f"--brute-ceiling must be nonnegative, got {ceiling}")
    family = args.family
    closed_form, _, takes_j = genfun.FAMILIES[family]
    if takes_j and args.j is None:
        raise ValueError(f"series {family} requires --j")
    if not takes_j and args.j is not None:
        raise ValueError(f"series {family} takes no --j")
    order = args.order
    if args.mode in ("brute", "both") and order > ceiling:
        raise ValueError(
            f"order {order} exceeds the brute-force ceiling {ceiling}; "
            f"raise --brute-ceiling explicitly if you mean it"
        )
    enumerated = partial(genfun.enumerated, family)
    if args.mode == "both":
        if args.format == "csv":
            raise ValueError("csv format is not available for verification reports")
        report = genfun.compare_series(
            f"series.{family}",
            closed_form(args.j, args.t, order),
            enumerated(args.j, args.t, order),
            t=args.t,
            j=args.j,
        )
        _emit(args, report.to_json_dict(), report.describe() + "\n")
        return 0 if report.passed else 1

    build = closed_form if args.mode == "closed" else enumerated
    result = build(args.j, args.t, order)
    # Only the rendering asked for is built: each is a str() per coefficient,
    # all of them before the one write, so a coefficient past the str()
    # digit limit leaves stdout empty.
    if args.format == "json":
        sys.stdout.write(_json(qs.to_json_dict(result)))
    elif args.format == "csv":
        sys.stdout.write(qs.to_csv(result))
    else:
        sys.stdout.write("".join(f"{n} {c}\n" for n, c in enumerate(result.coeffs)))
    return 0


def _cmd_verify(args) -> int:
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
    payload = {"reports": [r.to_json_dict() for r in reports]}
    _emit(args, payload, "".join(r.describe() + "\n" for r in reports))
    return 0 if all(r.passed for r in reports) else 1


def _precision(args) -> int:
    """--precision (default asymptotics.DEFAULT_DPS), at least MIN_PRECISION."""
    precision = args.precision
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION}, got {precision}")
    return precision


def _cmd_asympt_defect(args) -> int:
    ns = _parse_ints(args.samples, f"bad sample list {args.samples!r}")
    samples = asymptotics.defect_samples(args.t, ns, dps=_precision(args))
    # Plain output is the csv table.
    _emit(args, [s.columns() for s in samples], asymptotics.samples_to_csv(samples))
    return 0


def _cmd_asympt_transform(args) -> int:
    residual = asymptotics.eisenstein_transform_residual(
        args.m, args.eps, dps=_precision(args)
    )
    # nstr of a mantissa past 4300 digits would exceed Python's int-str limit.
    with mp.workdps(100):
        shown = mp.nstr(+residual, 12)
    payload = {"m": args.m, "eps": args.eps, "residual": shown}
    _emit(args, payload, f"residual {shown}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coretower",
        description="Exact t-core tower statistics and series verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command takes --format; one without a csv form names itself in
    # no_csv, and main refuses csv before any work.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (default plain)",
    )
    fmt.set_defaults(no_csv=None)
    precision = argparse.ArgumentParser(add_help=False)
    precision.add_argument(
        "--precision",
        type=int,
        default=asymptotics.DEFAULT_DPS,
        help=f"working decimal digits for float evaluations, at least {MIN_PRECISION} "
        f"(default {asymptotics.DEFAULT_DPS})",
    )

    for name, handler, blurb in (
        ("core", _cmd_core, "t-core of a partition"),
        ("quotient", _cmd_quotient, "t-quotient components of a partition"),
        ("tower", _cmd_tower, "core tower rows, row sizes, and defect"),
    ):
        p = sub.add_parser(name, help=blurb, parents=[fmt])
        p.add_argument("--t", type=int, required=True, help="modulus, at least 2")
        p.add_argument(
            "partition",
            nargs="?",
            default="",
            help="comma-separated parts; empty for the empty partition",
        )
        p.set_defaults(handler=handler, no_csv=f"{name} output")

    p = sub.add_parser(
        "series", help="exact series, closed form or brute force", parents=[fmt]
    )
    p.add_argument(
        "--brute-ceiling",
        type=int,
        default=30,
        help="largest order allowed for brute-force enumeration (default 30)",
    )
    p.add_argument("family", choices=tuple(genfun.FAMILIES))
    p.add_argument("--t", type=int, required=True)
    with_j = " and ".join(f for f, (_, _, takes_j) in genfun.FAMILIES.items() if takes_j)
    p.add_argument("--j", type=int, default=None, help=f"tower row ({with_j} only)")
    p.add_argument("--order", type=int, default=100)
    p.add_argument("--mode", choices=("closed", "brute", "both"), default="closed")
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser(
        "verify", help="run an identity or congruence check", parents=[fmt]
    )
    p.add_argument("what", choices=("congruence", "recursion", "monotone"))
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--order", type=int, default=100)
    p.set_defaults(handler=_cmd_verify, no_csv="verification reports")

    p = sub.add_parser("asympt", help="asymptotic comparisons")
    asympt_sub = p.add_subparsers(dest="target", required=True)

    pd = asympt_sub.add_parser(
        "defect", help="exact vs predicted total defects", parents=[fmt, precision]
    )
    pd.add_argument("--t", type=int, required=True)
    pd.add_argument("--samples", default="100,200,400", help="comma-separated sizes")
    pd.set_defaults(handler=_cmd_asympt_defect)

    pt = asympt_sub.add_parser(
        "transform", help="Eisenstein inversion residual", parents=[fmt, precision]
    )
    pt.add_argument("--m", type=int, required=True)
    pt.add_argument("--eps", required=True, help="decimal in (0, 1]")
    pt.set_defaults(handler=_cmd_asympt_transform, no_csv="transform output")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on its first call in the process; parsing
    leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args, extras = parser.parse_known_args(argv)
        flags = [a.split("=", 1)[0] for a in extras if a.startswith("--")]
        if extras and not flags:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if flags:
        # argparse would name the values after the flag as the strays, and
        # may have taken one of them as a positional argument.
        command = " ".join(filter(None, (args.command, getattr(args, "target", None))))
        print(
            f"error: unrecognized arguments: {command} does not take {flags[0]}",
            file=sys.stderr,
        )
        return 2
    try:
        if args.format == "csv" and args.no_csv:
            raise ValueError(f"csv format is not available for {args.no_csv}")
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # An order or size past what a list or float can hold, say.
        print(f"error: too large: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
