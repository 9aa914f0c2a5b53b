#!/usr/bin/env python3
"""Run the whole identity battery and print one line per check.

Usage:
  python scripts/verify_identities.py [--order 30] [--congruence-order 200]

Exits 1 if any check fails, and 2 with a one-line error on bad input
such as a negative order.  Note that the vanishing-at-multiples
congruence check reports a genuine counterexample (t=2, n=6), so a
nonzero exit is the expected, honest outcome; see the README section
"Known false congruence".
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from coretower import (  # noqa: E402
    check_congruence,
    check_recursion,
    compare_series,
    monotonicity_check,
    telescoped_row_weight_check,
)
from coretower.genfun import FAMILIES, enumerated  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--order", type=int, default=30,
                        help="truncation order for enumeration-backed checks")
    parser.add_argument("--congruence-order", type=int, default=200,
                        help="truncation order for congruence and recursion checks")
    args = parser.parse_args()

    small = min(args.order, 25)
    # (label, family, t, j, order): closed form against enumeration.
    battery = [
        ("row-weights", "T", t, j, args.order) for t in (2, 3, 4, 5) for j in (0, 1, 2)
    ]
    battery += [("defects", "D", t, None, small) for t in (2, 3, 5)]
    battery += [
        ("generalized-cores", "cores", t, j, small)
        for j, t in ((0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 2))
    ]
    reports = []
    for label, family, t, j, order in battery:
        closed = FAMILIES[family][0](j, t, order)
        reports.append(
            compare_series(label, closed, enumerated(family, j, t, order), t=t, j=j)
        )
    for t in range(2, 8):
        reports.append(check_congruence(t, args.congruence_order, claim="np"))
        reports.append(check_congruence(t, args.congruence_order, claim="multiples"))
        reports.append(check_recursion(t, args.congruence_order))
    for t in (2, 3, 5):
        reports.append(monotonicity_check(t, args.congruence_order))
    for t in (2, 3):
        for j in (0, 1, 2):
            reports.append(telescoped_row_weight_check(t, j, args.order))

    for report in reports:
        print(report.describe())
    failed = [r for r in reports if not r.passed]
    print(f"\n{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)
