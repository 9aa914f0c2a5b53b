"""Correctness checks for benchmark ops, run after the ops, outside timing.

Batch workloads (closed_sweep, brute_verify) do not depend on the seed, so
each op's exit code and stdout SHA-256 are pinned in expected.json.  The
pinned codes include exit 1 from `verify congruence`, the known false
"vanishing at multiples" congruence, which is a correct outcome here.

point_queries outputs are checked against invariants computed by code
other than the timed path.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Residual bound for `asympt transform` at the default 50 digits.
TRANSFORM_PRECISION = 50
# Largest tower row the point_queries inputs may produce; the pre-tower
# row guard in coretower.tower uses the same limit.
MAX_ROW_ENTRIES = 1 << 20


def op_key(op: list[str]) -> str:
    return " ".join(op)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check_pinned(workload: str, ops, codes, digests) -> dict[int, str]:
    """Failures by op index for ops with a pinned exit code and digest."""
    pins = load_expected()[workload]
    failures = {}
    for i, op in enumerate(ops):
        pin = pins.get(op_key(op))
        if pin is None:
            failures[i] = "no pinned output for this op"
        elif codes[i] != pin["rc"]:
            failures[i] = f"exit code {codes[i]}, expected {pin['rc']}"
        elif digests[i] != pin["sha256"]:
            failures[i] = "stdout differs from the pinned output"
    return failures


def _parse_parts(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",")) if text else ()


def has_no_hook_divisible_by(parts, t: int) -> bool:
    """True when no hook length of the partition is divisible by t.

    On the beta-set {parts[i] + k - 1 - i}, hook lengths are the gaps
    b - c between a bead b and an empty position c < b.  One is divisible
    by t exactly when some bead b >= t has no bead at b - t.
    """
    k = len(parts)
    beads = {p + k - 1 - i for i, p in enumerate(parts)}
    return all(b < t or b - t in beads for b in beads)


def _check_partition_group(t: int, lam, core_out, quot_out, tower_out) -> str | None:
    from coretower.partitions import Partition
    from coretower.tower import reconstruct

    core = _parse_parts(core_out.strip())
    quotient = []
    for r, line in enumerate(quot_out.splitlines()):
        label, _, body = line.partition(":")
        if int(label) != r:
            return f"quotient component {label} out of order"
        quotient.append(_parse_parts(body.strip()))
    if len(quotient) != t:
        return f"quotient has {len(quotient)} components, expected {t}"
    size = sum(lam)
    if size != sum(core) + t * sum(sum(q) for q in quotient):
        return "|lambda| != |core| + t * |quotient|"
    rebuilt = reconstruct(Partition(core), [Partition(q) for q in quotient], t)
    if rebuilt.parts != lam:
        return "reconstruct(core, quotient) does not give back the partition"
    if not has_no_hook_divisible_by(core, t):
        return "core has a hook length divisible by t"

    tower = json.loads(tower_out)
    if tuple(tower["partition"]) != lam or tower["t"] != t:
        return "tower output names a different partition"
    rows = tower["rows"]
    if [tuple(p) for p in rows[0]] != [core]:
        return "tower row 0 is not the core"
    if max(len(row) for row in rows) > MAX_ROW_ENTRIES:
        return "tower row exceeds the row materialisation limit"
    for j, row in enumerate(rows):
        if tower["row_sizes"][j] != sum(sum(p) for p in row):
            return f"row size {j} does not match its entries"
        if not all(has_no_hook_divisible_by(p, t) for p in row if p):
            return f"tower row {j} has an entry with a hook divisible by t"
    if sum(tower["row_sizes"]) + (t - 1) * tower["defect"] != size:
        return "sum of row sizes + (t-1) * defect != |lambda|"
    return None


def check_point_queries(ops, codes, outputs, src) -> dict[int, str]:
    """Failures by op index.  reconstruct, which is not on the timed path,
    is imported from the coretower sources under src."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    failures = {}
    groups: dict[tuple[int, str], dict[str, int]] = {}
    for i, op in enumerate(ops):
        if codes[i] != 0:
            failures[i] = f"exit code {codes[i]}, expected 0"
        elif op[0] == "asympt":
            head, _, value = outputs[i].strip().partition(" ")
            try:
                small = float(value) < 10.0 ** -(TRANSFORM_PRECISION - 5)
            except ValueError:
                small = False
            if head != "residual" or not small:
                failures[i] = f"transform residual {outputs[i].strip()!r} too large"
        else:
            t = int(op[op.index("--t") + 1])
            groups.setdefault((t, op[-1]), {})[op[0]] = i
    for (t, text), idx in groups.items():
        if set(idx) != {"core", "quotient", "tower"}:
            reason = "partition lacks one of core, quotient, tower"
        else:
            try:
                reason = _check_partition_group(
                    t, _parse_parts(text),
                    outputs[idx["core"]], outputs[idx["quotient"]], outputs[idx["tower"]],
                )
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"output does not parse: {exc!r}"
        if reason is not None:
            for i in idx.values():
                failures.setdefault(i, reason)
    return failures
