"""Generating functions for tower statistics, built two independent ways.

Each series of interest has a closed form assembled from exact q-series
primitives and a brute-force twin obtained by enumerating all partitions
of each size and measuring them directly.  compare_series() walks the two
coefficient lists and reports the first mismatch, if any; the congruence,
recursion, and monotonicity checkers produce the same report type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .partitions import enumerate_partitions, partition_count
from .series import (
    IntSeries,
    divisor_sum_series,
    euler_product,
    div,
    pochhammer_inf,
    series_one,
    series_zero,
    substitute_power,
)
from .tower import _defect, tower_row_sizes

Mismatch = tuple[int, int, int]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking one identity coefficient-by-coefficient.

    first_mismatch is (n, closed_value, brute_value); status is "pass"
    exactly when it is absent.
    """

    identity_name: str
    t: int | None
    j: int | None
    order_checked: int
    status: str
    first_mismatch: Mismatch | None

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail"):
            raise ValueError(f"status must be 'pass' or 'fail', got {self.status!r}")
        if (self.status == "pass") != (self.first_mismatch is None):
            raise ValueError("status must be 'pass' exactly when there is no mismatch")

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def describe(self) -> str:
        bits = [self.identity_name]
        if self.t is not None:
            bits.append(f"t={self.t}")
        if self.j is not None:
            bits.append(f"j={self.j}")
        bits.append(f"order={self.order_checked}")
        line = " ".join(bits)
        if self.passed:
            return f"{line}: PASS"
        n, closed_value, brute_value = self.first_mismatch
        return f"{line}: FAIL at n={n}: got {closed_value}, expected {brute_value}"

    def to_json_dict(self) -> dict:
        mismatch = None
        if self.first_mismatch is not None:
            n, closed_value, brute_value = self.first_mismatch
            mismatch = {
                "n": n,
                "closed_value": str(closed_value),
                "brute_value": str(brute_value),
            }
        return {
            "identity": self.identity_name,
            "t": self.t,
            "j": self.j,
            "order_checked": self.order_checked,
            "status": self.status,
            "first_mismatch": mismatch,
        }


def _report(
    name: str, t: int | None, j: int | None, order: int, mismatch: Mismatch | None
) -> VerificationReport:
    status = "pass" if mismatch is None else "fail"
    return VerificationReport(name, t, j, order, status, mismatch)


def compare_series(
    identity_name: str,
    closed: IntSeries,
    brute: IntSeries,
    t: int | None = None,
    j: int | None = None,
) -> VerificationReport:
    """Coefficientwise comparison of two series of equal truncation order."""
    if closed.truncation_order != brute.truncation_order:
        raise ValueError("compared series must have equal truncation orders")
    mismatch = None
    for n, (c, b) in enumerate(zip(closed.coeffs, brute.coeffs)):
        if c != b:
            mismatch = (n, c, b)
            break
    return _report(identity_name, t, j, closed.truncation_order, mismatch)


def _check_params(t: int, j: int = 0, order: int = 0) -> None:
    if t < 2:
        raise ValueError(f"modulus t must be at least 2, got {t}")
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")


def _power_within(base: int, exponent: int, cap: int) -> int | None:
    """base**exponent, or None as soon as it exceeds cap."""
    p = 1
    for _ in range(exponent):
        p *= base
        if p > cap:
            return None
    return p


def row_weight_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form for the series whose coefficient of q**n is the total
    size of tower row j over all partitions of n.

    Assembled as (t**j S(q**(t**j)) - t**(j+2) S(q**(t**(j+1)))) / (q;q)_inf
    with S the divisor-sum series; terms whose substitution exponent
    exceeds the order vanish identically below the truncation.
    """
    _check_params(t, j, order)
    g = divisor_sum_series(order)
    num = series_zero(order)
    m1 = _power_within(t, j, order)
    if m1 is not None:
        num = num + m1 * substitute_power(g, m1)
    m2 = _power_within(t, j + 1, order)
    if m2 is not None:
        num = num - (m2 * t) * substitute_power(g, m2)
    return div(num, euler_product(order))


@lru_cache(maxsize=None)
def _census(t: int, n: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """One pass over the partitions of n for modulus t.

    Returns the tower row totals by row index, the total defect, and the
    number of partitions by tower length (index L counts towers of L rows).
    Integers only, so the cache holds no partitions.
    """
    rows: list[int] = []
    lengths: list[int] = []
    defects = 0
    for lam in enumerate_partitions(n):
        sizes = tower_row_sizes(lam, t)
        rows.extend([0] * (len(sizes) - len(rows)))
        for j, size in enumerate(sizes):
            rows[j] += size
        lengths.extend([0] * (len(sizes) + 1 - len(lengths)))
        lengths[len(sizes)] += 1
        defects += _defect(lam, t, sizes)
    return tuple(rows), defects, tuple(lengths)


def row_weight_series_brute(j: int, t: int, order: int) -> IntSeries:
    """Brute-force twin of row_weight_series by full enumeration."""
    _check_params(t, j, order)
    rows = (_census(t, n)[0] for n in range(order + 1))
    return IntSeries(tuple(r[j] if j < len(r) else 0 for r in rows))


def defect_series(t: int, order: int) -> IntSeries:
    """Closed form for the series of total defects of all partitions of n.

    The numerator sums t**k S(q**(t**k)) over k >= 1 while t**k fits below
    the truncation order; that cutoff is exact, not an approximation.
    """
    _check_params(t, order=order)
    g = divisor_sum_series(order)
    num = series_zero(order)
    power = t
    while power <= order:
        num = num + power * substitute_power(g, power)
        power *= t
    return div(num, euler_product(order))


def defect_series_brute(t: int, order: int) -> IntSeries:
    _check_params(t, order=order)
    return IntSeries(tuple(_census(t, n)[1] for n in range(order + 1)))


def generalized_core_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form counting partitions whose pre-tower row j+1 is empty.

    With T = t**(j+1) this is (q**T; q**T)_inf**T / (q; q)_inf.  For j = 0
    it is the classical t-core counting series.
    """
    _check_params(t, j, order)
    T = _power_within(t, j + 1, order)
    num = series_one(order) if T is None else pochhammer_inf(T, T, order)
    return div(num, euler_product(order))


def generalized_core_series_brute(j: int, t: int, order: int) -> IntSeries:
    _check_params(t, j, order)
    return IntSeries(tuple(sum(_census(t, n)[2][: j + 2]) for n in range(order + 1)))


# Family name -> (closed form, enumeration twin), each called as f(j, t, order);
# D ignores j.  The entries look the functions up when called, so a wrapper
# installed on a module attribute sees every call.
FAMILIES: dict[str, tuple[Callable[[int, int, int], IntSeries], ...]] = {
    "T": (
        lambda j, t, order: row_weight_series(j, t, order),
        lambda j, t, order: row_weight_series_brute(j, t, order),
    ),
    "D": (
        lambda j, t, order: defect_series(t, order),
        lambda j, t, order: defect_series_brute(t, order),
    ),
    "cores": (
        lambda j, t, order: generalized_core_series(j, t, order),
        lambda j, t, order: generalized_core_series_brute(j, t, order),
    ),
}


def core_size_totals(t: int, order: int) -> list[int]:
    """Sum of t-core sizes over all partitions of n, for n = 0..order.

    Read from the closed form, which enumeration validates separately up
    to the brute-force ceiling.
    """
    return list(row_weight_series(0, t, order).coeffs)


def regular_partition_series(t: int, order: int) -> IntSeries:
    """Counts of partitions with no part divisible by t, from the product
    (q**t; q**t)_inf / (q; q)_inf."""
    _check_params(t, order=order)
    return div(pochhammer_inf(t, 1, order), euler_product(order))


def check_congruence(t: int, order: int, claim: str = "both") -> VerificationReport:
    """Checks core-size congruences mod t**2 against exact values.

    claim "np": total core size at n agrees with n*p(n) mod t**2.
    claim "multiples": total core size at multiples of t vanishes mod t**2.
    claim "both": both, scanned together in increasing n.
    The mismatch triple holds residues mod t**2: (n, observed, required).
    """
    if claim not in ("np", "multiples", "both"):
        raise ValueError(f"unknown claim {claim!r}")
    _check_params(t, order=order)
    totals = core_size_totals(t, order)
    tsq = t * t
    mismatch = None
    for n in range(order + 1):
        observed = totals[n] % tsq
        if claim in ("np", "both"):
            required = (n * partition_count(n)) % tsq
            if observed != required:
                mismatch = (n, observed, required)
                break
        if claim in ("multiples", "both") and n % t == 0:
            if observed != 0:
                mismatch = (n, observed, 0)
                break
    return _report(f"congruence.{claim}", t, None, order, mismatch)


def check_recursion(t: int, order: int) -> VerificationReport:
    """Checks the exact recursion relating total core sizes to n*p(n) and
    counts of partitions with no part divisible by t."""
    _check_params(t, order=order)
    totals = core_size_totals(t, order)
    regular = regular_partition_series(t, order).coeffs
    weights = [(m, m * partition_count(m // t)) for m in range(t, order + 1, t)]
    mismatch = None
    for n in range(order + 1):
        correction = 0
        for m, weight in weights:
            if m > n:
                break
            correction += weight * regular[n - m]
        rhs = n * partition_count(n) - t * correction
        if totals[n] != rhs:
            mismatch = (n, totals[n], rhs)
            break
    return _report("recursion", t, None, order, mismatch)


def monotonicity_check(t: int, order: int) -> VerificationReport:
    """Checks the defect series has nonnegative, weakly increasing
    coefficients from n = 1 on.

    A mismatch (n, value, bound) means coefficient n dropped below bound,
    which is 0 for the sign check and the previous coefficient otherwise.
    """
    _check_params(t, order=order)
    coeffs = defect_series(t, order).coeffs
    mismatch = None
    for n in range(1, order + 1):
        if coeffs[n] < 0:
            mismatch = (n, coeffs[n], 0)
            break
        if n >= 2 and coeffs[n] < coeffs[n - 1]:
            mismatch = (n, coeffs[n], coeffs[n - 1])
            break
    return _report("monotonicity", t, None, order, mismatch)


def telescoped_row_weight_check(t: int, j: int, order: int) -> VerificationReport:
    """Checks that the t**k-weighted row series summed over k <= j telescopes
    to (S(q) - t**(2j+2) S(q**(t**(j+1)))) / (q;q)_inf."""
    _check_params(t, j, order)
    lhs = series_zero(order)
    for k in range(j + 1):
        lhs = lhs + (t**k) * row_weight_series(k, t, order)
    g = divisor_sum_series(order)
    num = g
    m = _power_within(t, j + 1, order)
    if m is not None:
        num = num - (m * m) * substitute_power(g, m)
    rhs = div(num, euler_product(order))
    return compare_series("telescoped-row-weights", lhs, rhs, t=t, j=j)
