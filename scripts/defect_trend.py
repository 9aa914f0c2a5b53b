#!/usr/bin/env python3
"""Tabulate how fast average defects approach n/(t-1).

Prints a CSV table of exact total defects against both predictions for a
ladder of sizes; the ratio column should creep toward 1 as n grows.  Each
table is `coretower asympt defect` for one modulus, so bad input exits 2
with the CLI's one-line error; the tables are printed only once every
modulus has succeeded, so a refusal leaves stdout empty.

Usage:
  python scripts/defect_trend.py [--t 2,3,5] [--samples 100,200,400] [--dps N]
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coretower.cli import main as coretower  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", default="2,3,5", help="comma-separated moduli")
    parser.add_argument("--samples", default="100,200,400",
                        help="comma-separated sizes")
    parser.add_argument("--dps", help="working decimal digits "
                        "(default: the CLI's --precision default)")
    args = parser.parse_args()
    precision = [] if args.dps is None else ["--precision", args.dps]

    tables = []
    for t in args.t.split(","):
        with contextlib.redirect_stdout(io.StringIO()) as table:
            code = coretower(["asympt", "defect", "--t", t, "--samples", args.samples,
                              *precision])
        if code:
            return code
        tables.append(f"# t={t}\n{table.getvalue()}")
    print(*tables, sep="", end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
