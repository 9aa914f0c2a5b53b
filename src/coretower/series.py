"""Truncated formal power series in q with exact integer coefficients.

All arithmetic is exact; no floats enter this module.  A series carries
its truncation order N (inclusive) and binary operations insist on equal
orders, so mixed-order arithmetic can never happen silently.  Use
truncate() to drop to a common order explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence


class OrderMismatchError(ValueError):
    """Raised when two series of different truncation orders are combined."""


@dataclass(frozen=True)
class IntSeries:
    """Coefficients c_0 ... c_N of a power series truncated at order N."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if (types := set(map(type, self.coeffs))) != {int}:
            names = ", ".join(sorted(t.__name__ for t in types - {int}))
            raise TypeError(f"series coefficients must be int, got {names}")

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
        return add(self, -other)

    def __neg__(self) -> "IntSeries":
        return negate(self)

    def __mul__(self, other: "IntSeries | int") -> "IntSeries":
        if isinstance(other, int):
            return IntSeries(tuple(other * c for c in self.coeffs))
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: "IntSeries") -> "IntSeries":
        return div(self, other)

    def __repr__(self) -> str:
        head = ", ".join(map(_shown, self.coeffs[:8]))
        tail = ", ..." if len(self.coeffs) > 8 else ""
        return f"IntSeries(N={self.truncation_order}, [{head}{tail}])"


def _shown(c: int) -> str:
    """c in decimal, or its bit length past str()'s digit limit."""
    try:
        return str(c)
    except ValueError:
        return f"<{c.bit_length()}-bit int>"


def _require_same_order(a: IntSeries, b: IntSeries) -> int:
    if not (isinstance(a, IntSeries) and isinstance(b, IntSeries)):
        names = f"{type(a).__name__} and {type(b).__name__}"
        raise TypeError(f"series operands required, got {names}")
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
    """Cauchy product truncated at the common order, by one big-integer
    product (Kronecker substitution) of signed coefficients.  No product
    coefficient exceeds top_a * top_b * (N + 1), with top = max |c|, so
    byte slots one bit wider than that and than every operand coefficient
    hold each coefficient c as a balanced digit, stored as c + half.
    Packing takes that bias (half in every slot) off again, and decoding
    adds it back, which carries each slot's borrow into the next."""
    n = _require_same_order(a, b) + 1
    top_a, top_b = max(map(abs, a.coeffs)), max(map(abs, b.coeffs))
    width = max(top_a, top_b, top_a * top_b * n).bit_length() // 8 + 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes(half.to_bytes(width, "little") * n, "little")

    def pack(xs: tuple[int, ...]) -> int:
        packed = b"".join((x + half).to_bytes(width, "little") for x in xs)
        return int.from_bytes(packed, "little") - bias

    low = (pack(a.coeffs) * pack(b.coeffs) + bias) & ((1 << 8 * width * n) - 1)
    data = low.to_bytes(n * width, "little")
    slots = (data[i : i + width] for i in range(0, n * width, width))
    return IntSeries(tuple(int.from_bytes(x, "little") - half for x in slots))


def div(a: IntSeries, b: IntSeries) -> IntSeries:
    """Exact quotient a/b for b with constant coefficient +1 or -1.

    Satisfies mul(div(a, b), b) == a up to the truncation order; the unit
    constant term keeps every intermediate value an integer.
    """
    _require_same_order(a, b)
    return IntSeries(tuple(_divide([], a.coeffs, b.coeffs)))


def _divide(out: list[int], a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Extends out, the first coefficients of a/b, through a's last one.

    Coefficient m takes off, for each value v of b's terms past the constant,
    v times one C-level sum of out[m - k] over their k <= m.  Appending keeps
    out[m - k] at out[-k], so each value's index list grows by -k once m
    reaches k: for (q;q)_inf, two lists, at the pentagonal numbers.
    """
    b0 = b[0]
    if b0 not in (1, -1):
        raise ValueError(f"divisor constant coefficient must be +1 or -1, got {b0}")
    terms = [(k, bk) for k, bk in enumerate(b[: len(a)]) if k and bk][::-1]
    groups: dict[int, list[int]] = {}
    get = out.__getitem__
    for m in range(len(out), len(a)):
        while terms and terms[-1][0] <= m:
            k, bk = terms.pop()
            groups.setdefault(bk, []).append(-k)
        acc = a[m]
        for v, idx in groups.items():
            acc -= v * sum(map(get, idx))
        out.append(acc if b0 == 1 else -acc)
    return out


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
    out = [0] * (a.truncation_order + 1)
    out[::m] = a.coeffs[: a.truncation_order // m + 1]
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


@lru_cache(maxsize=None, typed=True)
def pochhammer_inf(a: int, e: int, order: int) -> IntSeries:
    """(q**a; q**a)_infinity ** e, truncated: the product of (1 - q**(a*k))**e.

    (q; q)_infinity to order N = order // a is read off Euler's pentagonal
    number theorem (about sqrt(N) terms, each +1 or -1), raised to the
    e-th power by binary exponentiation with mul (at most 2 log2(e)
    products, none for e = 1), and spread to q -> q**a.
    """
    if a < 1 or e < 1:
        raise ValueError("step and exponent must be positive")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    eta = [1] + [0] * (order // a)
    for k, sign in _pentagonal_terms(order // a):
        eta[k] = sign
    power = base = IntSeries(tuple(eta))
    for bit in bin(e)[3:]:  # the bits of e after its leading 1
        power = mul(power, power)
        if bit == "1":
            power = mul(power, base)
    out = [0] * (order + 1)
    out[::a] = power.coeffs
    return IntSeries(tuple(out))


def euler_product(order: int) -> IntSeries:
    """(q; q)_infinity truncated, read off the pentagonal number theorem.

    Same as pochhammer_inf(1, 1, order): about sqrt(order) nonzero terms,
    built in O(order) time.
    """
    return pochhammer_inf(1, 1, order)


def partition_series(order: int) -> IntSeries:
    """1/(q; q)_infinity, whose coefficient of q**n counts partitions of n."""
    return div(series_one(order), euler_product(order))


@lru_cache(maxsize=None)
def divisor_sum_series(order: int) -> IntSeries:
    """Sum over n >= 1 of sigma_1(n) q**n, sieved: each d adds itself to
    the coefficients of its multiples, O(order log order) in all."""
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    s = [0] * (order + 1)
    for d in range(1, order + 1):
        s[d::d] = [x + d for x in s[d::d]]
    return IntSeries(tuple(s))


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
