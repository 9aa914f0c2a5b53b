"""Generating functions for tower statistics, built two independent ways.

Each series of interest has a closed form assembled from exact q-series
primitives and a brute-force twin obtained by enumerating all partitions
of each size and measuring them directly.  compare_series() walks the two
coefficient lists and reports the first mismatch, if any; the congruence,
recursion, and monotonicity checkers produce the same report type.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Callable, Iterable

from .partitions import Partition, _decode, _words, partition_count
from .series import (
    IntSeries,
    divisor_sum_series,
    euler_product,
    div,
    mul_nonnegative,
    pochhammer_inf,
    series_zero,
)
from .tower import _check_modulus, _defect, _row_sizes

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


def _first(triples: Iterable[Mismatch]) -> Mismatch | None:
    """The first (n, got, want) with got != want, or None."""
    return next(((n, got, want) for n, got, want in triples if got != want), None)


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
    mismatch = _first(zip(count(), closed.coeffs, brute.coeffs))
    return _report(identity_name, t, j, closed.truncation_order, mismatch)


def _check_params(t: int, j: int = 0, order: int = 0) -> None:
    if t < 2:
        raise ValueError(f"modulus t must be at least 2, got {t}")
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")


def _sigma_over_eta(order: int, weights: Iterable[tuple[int, int]]) -> IntSeries:
    """(Sum of c S(q**m) over the pairs (m, c) with m <= order) / (q;q)_inf,
    with S the divisor-sum series; a pair with m > order vanishes below the
    truncation."""
    g = divisor_sum_series(order).coeffs
    num = [0] * (order + 1)
    for m, c in weights:
        if m <= order:
            num[::m] = [a + c * s for a, s in zip(num[::m], g)]
    return div(IntSeries(tuple(num)), euler_product(order))


def row_weight_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form for the series whose coefficient of q**n is the total
    size of tower row j over all partitions of n.

    Assembled as (t**j S(q**(t**j)) - t**(j+2) S(q**(t**(j+1)))) / (q;q)_inf
    with S the divisor-sum series.  The power t**j is capped at
    t**order.bit_length(), which already exceeds the order.
    """
    _check_params(t, j, order)
    m = t ** min(j, order.bit_length())
    return _sigma_over_eta(order, ((m, m), (t * m, -t * t * m)))


@lru_cache(maxsize=None)
def _census(t: int, n: int) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """One pass over the partitions of n for modulus t.

    Returns the tower row totals by row index, the total defect, and the
    number of partitions by tower length (index L counts towers of L rows).
    Integers only, so the cache holds no partitions.  Each partition is
    walked as its position word, straight from the enumeration; the
    quotient components below row 0 have size at most n/t and recur across
    many partitions of n, so their row sizes are memoised for this pass,
    keyed by the component's word.  Partitions with the same row sizes are
    counted together, and the totals and the defect check run once for
    each distinct tuple of row sizes.
    """
    _check_modulus(t)
    memo: dict = {}
    tally = Counter(_row_sizes(word, n, t, memo) for word in _words(n))
    rows: list[int] = []
    lengths: list[int] = []
    defects = 0
    for sizes, k in tally.items():
        rows.extend([0] * (len(sizes) - len(rows)))
        for j, size in enumerate(sizes):
            rows[j] += k * size
        lengths.extend([0] * (len(sizes) + 1 - len(lengths)))
        lengths[len(sizes)] += k
        try:
            defects += k * _defect(None, n, t, sizes)
        except ArithmeticError:
            # The check depends on (n, t, sizes) only, so it fails for every
            # partition with these sizes: name the first one.
            witness = next(w for w in _words(n) if _row_sizes(w, n, t, {}) == sizes)
            _defect(Partition._trusted(_decode(witness)), n, t, sizes)
            raise
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
    powers = (t**k for k in range(1, order.bit_length() + 1))
    return _sigma_over_eta(order, ((m, m) for m in powers))


def defect_series_brute(t: int, order: int) -> IntSeries:
    _check_params(t, order=order)
    return IntSeries(tuple(_census(t, n)[1] for n in range(order + 1)))


def generalized_core_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form counting partitions whose pre-tower row j+1 is empty.

    With T = t**(j+1) this is (q**T; q**T)_inf**T / (q; q)_inf.  For j = 0
    it is the classical t-core counting series.  Past the order, where T is
    capped as in row_weight_series, the numerator is 1.
    """
    _check_params(t, j, order)
    T = t ** min(j + 1, order.bit_length())
    return div(pochhammer_inf(T, T, order), euler_product(order))


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

    def residues():
        for n in range(order + 1):
            observed = totals[n] % tsq
            if claim != "multiples":
                yield n, observed, (n * partition_count(n)) % tsq
            if claim != "np" and n % t == 0:
                yield n, observed, 0

    return _report(f"congruence.{claim}", t, None, order, _first(residues()))


def check_recursion(t: int, order: int) -> VerificationReport:
    """Checks the exact recursion relating total core sizes to n*p(n) and
    counts of partitions with no part divisible by t: the correction at n
    is the convolution sum over t | m <= n of m*p(m/t) * regular[n - m]."""
    _check_params(t, order=order)
    totals = core_size_totals(t, order)
    regular = regular_partition_series(t, order)
    weights = [0] * (order + 1)
    for m in range(t, order + 1, t):
        weights[m] = m * partition_count(m // t)
    correction = mul_nonnegative(IntSeries(tuple(weights)), regular).coeffs
    mismatch = _first(
        (n, totals[n], n * partition_count(n) - t * correction[n])
        for n in range(order + 1)
    )
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
    # Row k vanishes below the truncation once t**k > order.
    for k in range(min(j, order.bit_length()) + 1):
        lhs = lhs + (t**k) * row_weight_series(k, t, order)
    m = t ** min(j + 1, order.bit_length())
    rhs = _sigma_over_eta(order, ((1, 1), (m, -m * m)))
    return compare_series("telescoped-row-weights", lhs, rhs, t=t, j=j)
