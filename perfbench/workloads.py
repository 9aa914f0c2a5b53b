"""Seeded op lists for the three benchmark workloads.

An op is the argv list of one `coretower` CLI call.  The seed fixes every
op list completely; the program under test only ever sees these lists.

- closed_sweep: closed-form series and the order-200 style checks at a
  ladder of truncation orders.  Fixed ops; the seed shuffles their order.
- brute_verify: closed form against enumeration at the brute-force
  ceiling, for the family list of scripts/verify_identities.py.  Fixed
  ops; the seed shuffles their order.
- point_queries: core, quotient and tower of large random partitions,
  plus Eisenstein transform residuals.  Inputs are drawn from the seed.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("closed_sweep", "brute_verify", "point_queries")

CLOSED_ORDERS = (200, 400, 800)
CLOSED_TS = (2, 3, 5)
BRUTE_ORDER = 30

# point_queries shape: PQ_PER_T partitions for each t, three ops each,
# plus PQ_EPS_PER_M transforms for each m: 3 * 27 * 3 + 3 * 3 = 252 ops.
PQ_TS = (2, 3, 5)
PQ_PER_T = 27
PQ_LOG10_N = (4.0, 6.0)
PQ_MS = (1, 2, 3)
PQ_EPS_PER_M = 3
PQ_EPS = (0.005, 0.05)

# Boltzmann sampling stops at the part size beyond which the expected
# number of remaining parts is below this.
_BOLTZMANN_TAIL = 1e-6


def closed_sweep_ops() -> list[list[str]]:
    ops = []
    for order in CLOSED_ORDERS:
        o = str(order)
        for t in map(str, CLOSED_TS):
            ops.append(["series", "D", "--t", t, "--order", o])
            ops.append(["series", "T", "--j", "0", "--t", t, "--order", o])
            ops.append(["series", "T", "--j", "1", "--t", t, "--order", o])
            ops.append(["series", "cores", "--j", "0", "--t", t, "--order", o])
            for what in ("congruence", "recursion", "monotone"):
                ops.append(["verify", what, "--t", t, "--order", o])
        samples = f"{order // 4},{order // 2},{order}"
        ops.append(["asympt", "defect", "--t", "2", "--samples", samples])
    return ops


def brute_verify_ops() -> list[list[str]]:
    order = str(BRUTE_ORDER)
    ops = []
    for t in (2, 3, 4, 5):
        for j in (0, 1, 2):
            ops.append(["series", "T", "--j", str(j), "--t", str(t), "--order", order])
    for t in (2, 3, 5):
        ops.append(["series", "D", "--t", str(t), "--order", order])
    for j, t in ((0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (2, 2)):
        ops.append(["series", "cores", "--j", str(j), "--t", str(t), "--order", order])
    return [op + ["--mode", "both"] for op in ops]


def boltzmann_partition(rng: random.Random, n: int) -> tuple[int, ...]:
    """A Boltzmann-distributed partition whose expected size is about n.

    Each part size k appears a geometric number of times with ratio x**k,
    where x = exp(-pi / sqrt(6 n)); the size lands within a few percent
    of n for n >= 10**4.
    """
    log_x = -math.pi / math.sqrt(6 * n)
    one_minus_x = -math.expm1(log_x)
    counts = []
    k = 1
    while True:
        xk = math.exp(k * log_x)
        if xk / (one_minus_x * one_minus_x) < _BOLTZMANN_TAIL:
            break
        u = 1.0 - rng.random()  # in (0, 1]
        counts.append((k, int(math.log(u) / (k * log_x))))
        k += 1
    parts = []
    for k, m in reversed(counts):
        parts.extend([k] * m)
    return tuple(parts)


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of count equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def point_queries_ops(seed: int) -> list[list[str]]:
    """Draws are stratified so that every seed covers the whole n and eps
    ranges evenly; the seed moves each draw inside its slice."""
    rng = random.Random(seed)
    ops = []
    for t in PQ_TS:
        for log_n in _stratified(rng, *PQ_LOG10_N, PQ_PER_T):
            parts = boltzmann_partition(rng, round(10**log_n))
            text = ",".join(map(str, parts))
            ts = str(t)
            ops.append(["core", "--t", ts, text])
            ops.append(["quotient", "--t", ts, text])
            ops.append(["tower", "--t", ts, "--format", "json", text])
    lo, hi = (math.log10(e) for e in PQ_EPS)
    for m in PQ_MS:
        for log_eps in _stratified(rng, lo, hi, PQ_EPS_PER_M):
            eps = f"{10**log_eps:.6f}"
            ops.append(["asympt", "transform", "--m", str(m), "--eps", eps])
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[list[str]]:
    if workload == "closed_sweep":
        ops = closed_sweep_ops()
    elif workload == "brute_verify":
        ops = brute_verify_ops()
    elif workload == "point_queries":
        return point_queries_ops(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops
