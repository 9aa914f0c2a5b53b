"""Reference oracles that the tests compare the library against.

Each computes a result the library also computes, by a route that shares
none of its code: rim-hook deletion on the part lists instead of the
abacus, trial division and the Lambert form in place of the sieved
divisor sums, enumeration of the partitions with no part divisible by t,
and the schoolbook Cauchy product in place of the packed one.
"""

from math import isqrt

from coretower import IntSeries, Partition, enumerate_partitions


def removable_rim_hooks(lam: Partition, t: int) -> list[tuple[int, int, Partition]]:
    """All ways to remove one rim hook of length t, as (top_row, bottom_row, result).

    Works directly on the part lists, with no abacus involved: a removable
    rim hook spanning rows a..b (0-based) forces the intermediate new parts
    to hug the old boundary, leaving one consistency condition on row b.
    """
    parts = lam.parts
    k = len(parts)
    found = []
    for a in range(k):
        for b in range(a, k):
            last = parts[a] + (b - a) - t
            below = parts[b + 1] if b + 1 < k else 0
            if below <= last <= parts[b] - 1:
                new = (
                    list(parts[:a])
                    + [parts[i + 1] - 1 for i in range(a, b)]
                    + [last]
                    + list(parts[b + 1 :])
                )
                found.append((a, b, Partition(tuple(p for p in new if p > 0))))
    return found


def t_core_by_rim_hooks(lam: Partition, t: int) -> Partition:
    """t-core computed by greedy rim-hook deletion, as an independent cross-check.

    Deletes the removable t-rim-hook with the largest row indices first;
    any deletion order reaches the same core, which is what the abacus
    comparison tests assert.
    """
    if t < 2:
        raise ValueError(f"modulus t must be at least 2, got {t}")
    current = lam
    while True:
        hooks = removable_rim_hooks(current, t)
        if not hooks:
            return current
        current = max(hooks, key=lambda h: (h[0], h[1]))[2]


def divisor_sum(n: int) -> int:
    """sigma_1(n), the sum of the divisors of n >= 1, by trial division to sqrt(n)."""
    s = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            s += d
            if d != n // d:
                s += n // d
    return s


def divisor_sum_series_lambert(order: int) -> IntSeries:
    """Same series as divisor_sum_series via the Lambert form: sum of
    n q**n / (1 - q**n)."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    out = [0] * (order + 1)
    for n in range(1, order + 1):
        for multiple in range(n, order + 1, n):
            out[multiple] += n
    return IntSeries(tuple(out))


def regular_partition_counts_brute(t: int, order: int) -> IntSeries:
    """Counts of partitions of n = 0..order with no part divisible by t, by
    enumeration; the oracle for regular_partition_series."""
    if t < 2:
        raise ValueError(f"modulus t must be at least 2, got {t}")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    counts = (
        sum(all(p % t for p in lam.parts) for lam in enumerate_partitions(n))
        for n in range(order + 1)
    )
    return IntSeries(tuple(counts))


def mul_dense(a: IntSeries, b: IntSeries) -> IntSeries:
    """Cauchy product truncated at the common order, coefficient by
    coefficient: the O(N**2) reference for series.mul."""
    n = a.truncation_order
    out = [0] * (n + 1)
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n + 1 - i):
                out[i + j] += ai * b.coeffs[j]
    return IntSeries(tuple(out))
