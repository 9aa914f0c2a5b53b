"""Truncated formal power series in q with exact integer coefficients.

All arithmetic is exact; no floats enter this module.  A series carries
its truncation order N (inclusive) and binary operations insist on equal
orders, so mixed-order arithmetic can never happen silently.  Use
truncate() to drop to a common order explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt


class OrderMismatchError(ValueError):
    """Raised when two series of different truncation orders are combined."""


@dataclass(frozen=True)
class IntSeries:
    """Coefficients c_0 ... c_N of a power series truncated at order N."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")

    @property
    def truncation_order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> int:
        if not 0 <= n <= self.truncation_order:
            raise IndexError(
                f"coefficient {n} outside truncation order {self.truncation_order}"
            )
        return self.coeffs[n]

    def __add__(self, other: "IntSeries") -> "IntSeries":
        return add(self, other)

    def __sub__(self, other: "IntSeries") -> "IntSeries":
        return add(self, negate(other))

    def __neg__(self) -> "IntSeries":
        return negate(self)

    def __mul__(self, other: "IntSeries") -> "IntSeries":
        return mul(self, other)

    def __rmul__(self, scalar: int) -> "IntSeries":
        return IntSeries(tuple(scalar * c for c in self.coeffs))

    def __truediv__(self, other: "IntSeries") -> "IntSeries":
        return div(self, other)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"IntSeries(N={self.truncation_order}, [{head}{tail}])"


def _require_same_order(a: IntSeries, b: IntSeries) -> int:
    if a.truncation_order != b.truncation_order:
        raise OrderMismatchError(
            f"truncation orders differ: {a.truncation_order} vs {b.truncation_order}"
        )
    return a.truncation_order


def series_zero(order: int) -> IntSeries:
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return IntSeries((0,) * (order + 1))


def series_one(order: int) -> IntSeries:
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return IntSeries((1,) + (0,) * order)


def add(a: IntSeries, b: IntSeries) -> IntSeries:
    _require_same_order(a, b)
    return IntSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def negate(a: IntSeries) -> IntSeries:
    return IntSeries(tuple(-x for x in a.coeffs))


def mul(a: IntSeries, b: IntSeries) -> IntSeries:
    """Cauchy product truncated at the common order."""
    n = _require_same_order(a, b)
    out = [0] * (n + 1)
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs):
        if ai:
            for j in range(n + 1 - i):
                bj = bc[j]
                if bj:
                    out[i + j] += ai * bj
    return IntSeries(tuple(out))


def div(a: IntSeries, b: IntSeries) -> IntSeries:
    """Exact quotient a/b for b with constant coefficient +1 or -1.

    Satisfies mul(div(a, b), b) == a up to the truncation order; the unit
    constant term keeps every intermediate value an integer.
    """
    n = _require_same_order(a, b)
    b0 = b.coeffs[0]
    if b0 not in (1, -1):
        raise ValueError(f"divisor constant coefficient must be +1 or -1, got {b0}")
    sparse = [(k, bk) for k, bk in enumerate(b.coeffs) if k and bk]
    out = [0] * (n + 1)
    for m in range(n + 1):
        acc = a.coeffs[m]
        for k, bk in sparse:
            if k > m:
                break
            acc -= bk * out[m - k]
        out[m] = acc if b0 == 1 else -acc
    return IntSeries(tuple(out))


def truncate(a: IntSeries, order: int) -> IntSeries:
    """Drop a series to a smaller truncation order."""
    if order < 0 or order > a.truncation_order:
        raise ValueError(
            f"cannot truncate order {a.truncation_order} series to order {order}"
        )
    return IntSeries(a.coeffs[: order + 1])


def substitute_power(a: IntSeries, m: int) -> IntSeries:
    """f(q) -> f(q**m), truncation order preserved."""
    if m < 1:
        raise ValueError("substitution exponent must be at least 1")
    if m == 1:
        return a
    n = a.truncation_order
    out = [0] * (n + 1)
    for i in range(n // m + 1):
        out[i * m] = a.coeffs[i]
    return IntSeries(tuple(out))


def q_derivative(a: IntSeries) -> IntSeries:
    """The operator q d/dq: multiplies coefficient n by n."""
    return IntSeries(tuple(n * c for n, c in enumerate(a.coeffs)))


def _pentagonal_terms(order: int) -> list[tuple[int, int]]:
    """Nonzero terms (k, coefficient) of (q; q)_infinity with 1 <= k <= order.

    Euler's pentagonal number theorem: the coefficient is (-1)**j at the
    generalized pentagonal numbers j(3j - 1)/2 and j(3j + 1)/2, j >= 1, and
    zero elsewhere, so there are about sqrt(8 order / 3) terms.
    """
    terms = []
    j = 1
    while (k := j * (3 * j - 1) // 2) <= order:
        sign = -1 if j % 2 else 1
        terms.append((k, sign))
        if k + j <= order:
            terms.append((k + j, sign))
        j += 1
    return terms


@lru_cache(maxsize=None)
def pochhammer_inf(a: int, e: int, order: int) -> IntSeries:
    """(q**a; q**a)_infinity ** e, truncated: the product of (1 - q**(a*k))**e.

    No series is multiplied.  (q; q)_infinity to order N = order // a is
    read off Euler's pentagonal number theorem (about sqrt(N) terms, each
    +1 or -1).  For e > 1 it is raised to the e-th power by J. C. P.
    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): g_0 = 1 and
    n g_n = sum over the nonzero f_k of ((e + 1) k - n) f_k g_(n-k).  The
    result is then spread to q -> q**a.  The cost is about O(N**1.5), that
    is O(order**1.5 / a**1.5) coefficient products.

    The division by n in the recurrence is exact over the integers; a
    nonzero remainder raises ArithmeticError rather than losing precision.
    """
    if a < 1 or e < 1:
        raise ValueError("step and exponent must be positive")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    n_max = order // a
    terms = _pentagonal_terms(n_max)
    g = [1] + [0] * n_max
    if e == 1:
        for k, fk in terms:
            g[k] = fk
    else:
        for n in range(1, n_max + 1):
            acc = 0
            for k, fk in terms:
                if k > n:
                    break
                acc += ((e + 1) * k - n) * fk * g[n - k]
            quotient, remainder = divmod(acc, n)
            if remainder:
                raise ArithmeticError(
                    f"Miller recurrence left remainder {remainder} at n={n}"
                )
            g[n] = quotient
    out = [0] * (order + 1)
    out[::a] = g
    return IntSeries(tuple(out))


def euler_product(order: int) -> IntSeries:
    """(q; q)_infinity truncated, read off the pentagonal number theorem.

    Same as pochhammer_inf(1, 1, order): about sqrt(order) nonzero terms,
    built in O(order) time.
    """
    return pochhammer_inf(1, 1, order)


@lru_cache(maxsize=None)
def partition_series(order: int) -> IntSeries:
    """1/(q; q)_infinity, whose coefficient of q**n counts partitions of n."""
    return div(series_one(order), euler_product(order))


def divisor_sum(n: int) -> int:
    """sigma_1(n), the sum of the divisors of n >= 1, by trial division to sqrt(n)."""
    s = 0
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            s += d
            if d != n // d:
                s += n // d
    return s


@lru_cache(maxsize=None)
def divisor_sum_series(order: int) -> IntSeries:
    """Sum over n >= 1 of sigma_1(n) q**n, computed by per-n divisor sums."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    return IntSeries((0,) + tuple(divisor_sum(n) for n in range(1, order + 1)))


def to_json_dict(a: IntSeries) -> dict:
    """JSON form with coefficients as decimal strings (they outgrow doubles)."""
    return {
        "truncation_order": a.truncation_order,
        "coeffs": [str(c) for c in a.coeffs],
    }


def from_json_dict(d: dict) -> IntSeries:
    coeffs = tuple(int(c) for c in d["coeffs"])
    series = IntSeries(coeffs)
    if series.truncation_order != d["truncation_order"]:
        raise ValueError("truncation_order does not match the coefficient count")
    return series


def to_csv(a: IntSeries) -> str:
    """CSV rendering with one (n, coefficient) row per order."""
    lines = ["n,coefficient"]
    lines.extend(f"{n},{c}" for n, c in enumerate(a.coeffs))
    return "\n".join(lines) + "\n"
