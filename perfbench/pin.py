#!/usr/bin/env python3
"""Record the pinned exit code and stdout SHA-256 of every batch op.

Usage:
  python3 perfbench/pin.py

Runs the closed_sweep and brute_verify op lists once each, in fresh
interpreters, against the coretower sources of this checkout, and writes
perfbench/expected.json.  Run it only at a commit whose outputs are known
to be right: the benchmark treats every later difference as a failed op.
"""

import json
import sys

from run import OUT, run_round
import oracle
import workloads


def main() -> int:
    OUT.mkdir(exist_ok=True)
    expected = {}
    for name, ops in (
        ("closed_sweep", workloads.closed_sweep_ops()),
        ("brute_verify", workloads.brute_verify_ops()),
    ):
        ops_path = OUT / f"{name}.pin.ops.json"
        ops_path.write_text(json.dumps(ops))
        result = run_round(name, ops_path, 0, traced=False)
        if result["errors"]:
            print(f"{name}: ops raised or wrote to stderr: {result['errors']}",
                  file=sys.stderr)
            return 1
        expected[name] = {
            oracle.op_key(op): {"rc": rc, "sha256": digest}
            for op, rc, digest in zip(ops, result["codes"], result["digests"])
        }
        print(f"{name}: {len(ops)} ops pinned, exit codes "
              f"{sorted(set(result['codes']))}")
    with open(oracle.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
