"""Generating functions for tower statistics, built two independent ways.

Each series of interest has a closed form assembled from exact q-series
primitives and a brute-force twin obtained by enumerating all partitions
of each size and measuring them directly.  compare_series() walks the two
coefficient lists and reports the first mismatch, if any; the congruence,
recursion, and monotonicity checkers produce the same report type.

Every closed form is a numerator over (q;q)_inf, and keeps one quotient
per arguments but the order for the life of the process (see _over_eta):
each coefficient of a form is divided once per process, whichever orders
its callers ask for, and in whatever sequence.  The brute-force twins read one
census sweep per t (_census), and every sweep reads the position words of
each n from one store (_stored), which builds each n once per process by
concatenation from the stored words of smaller sizes.
"""

from __future__ import annotations

from collections import Counter
from functools import wraps
from itertools import chain, count, repeat
from operator import index, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .partitions import Partition, _decode, partition_count
from .series import (
    IntSeries,
    _divide,
    _require_same_order,
    _shown,
    divisor_sum_series,
    euler_product,
    div,
    mul,
    pochhammer_inf,
    series_zero,
)
from .tower import _RowSizes, _defect

Mismatch = tuple[int, int, int]


class VerificationReport(NamedTuple):
    """Outcome of checking one identity coefficient-by-coefficient.

    first_mismatch is (n, closed_value, brute_value); status is "pass"
    exactly when it is absent.
    """

    identity_name: str
    t: int | None
    j: int | None
    order_checked: int
    first_mismatch: Mismatch | None

    @property
    def status(self) -> str:
        return "pass" if self.first_mismatch is None else "fail"

    @property
    def passed(self) -> bool:
        return self.first_mismatch is None

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
        n, closed_value, brute_value = map(_shown, self.first_mismatch)
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
    order = _require_same_order(closed, brute)
    mismatch = _first(zip(count(), closed.coeffs, brute.coeffs))
    return VerificationReport(identity_name, t, j, order, mismatch)


def _check_params(t: int, j: int = 0, order: int = 0) -> None:
    if t < 2:
        raise ValueError(f"modulus t must be at least 2, got {t}")
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    if order < 0:
        raise ValueError("truncation order must be nonnegative")


def _sigma(order: int, weights: Iterable[tuple[int, int]]) -> IntSeries:
    """The sum of c S(q**m) over the pairs (m, c) with m <= order, with S
    the divisor-sum series; a pair with m > order vanishes below the
    truncation."""
    g = divisor_sum_series(order).coeffs
    num = [0] * (order + 1)
    for m, c in weights:
        if m <= order:
            num[::m] = [a + c * s for a, s in zip(num[::m], g)]
    return IntSeries(tuple(num))


def _over_eta(numerator: Callable[..., IntSeries]) -> Callable[..., IntSeries]:
    """The closed form numerator(*args) / (q;q)_inf, args ending in (t, order).

    The quotient for args but the order is kept for the process, at the
    highest order asked: a lower order is read off it, a higher one divides
    on from the last kept coefficient, as a numerator at a lower order is a
    prefix of the one at a higher order (capped powers of t included).  Args
    must be integers before the lookup: 2.0 == 2 would find t = 2's quotient.
    """
    kept: dict[tuple[int, ...], list[int]] = {}

    @wraps(numerator)
    def closed_form(*args: int) -> IntSeries:
        *head, t, order = args = tuple(map(index, args))
        _check_params(t, *head, order=order)
        out = kept.setdefault(args[:-1], [])
        if len(out) <= order:
            _divide(out, numerator(*args).coeffs, euler_product(order).coeffs)
        return IntSeries(tuple(out[: order + 1]))

    closed_form.cache_clear = kept.clear
    return closed_form


@_over_eta
def row_weight_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form for the series whose coefficient of q**n is the total
    size of tower row j over all partitions of n.

    Assembled as (t**j S(q**(t**j)) - t**(j+2) S(q**(t**(j+1)))) / (q;q)_inf
    with S the divisor-sum series.  The power t**j is capped at
    t**order.bit_length(), which already exceeds the order.
    """
    m = t ** min(j, order.bit_length())
    return _sigma(order, ((m, m), (t * m, -t * t * m)))


_sweeps: dict[int, tuple] = {}  # the one census sweep kept for each t


def _census(t: int, order: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """_sweep(t, order), read off the sweep kept for t; a higher order replaces it."""
    if not 0 <= order < len(_sweeps.get(t, ())):
        _sweeps[t] = _sweep(t, order)
    return _sweeps[t][: order + 1]


# _store[m][b] holds the words of m with largest part b, b = 0..m, for the
# life of the process (see _stored).
_store: list[tuple[tuple[str, ...], ...]] = []
_CHUNK = 1024  # most words in one stored string


def _stored(n: int) -> tuple[str, ...]:
    """The position words of the partitions of n, in the order _words(n)
    yields them, as strings of up to _CHUNK words joined by spaces: every
    sweep reads them, and each n is built once per process.  A string, not
    a tuple of words, keeps the store to the words' characters.

    A partition of m with largest part a is a followed by a partition of
    m - a with largest part b <= a; its word is the shorter word, whose
    beads keep their positions, then a - b 0s and the new top bead.  So
    the group of m with largest part a is the groups of m - a for b =
    min(a, m - a) down to 0, each with its tail on every word, in
    reverse-lexicographic order, and the groups for a = m down to 1 are
    _words(m).  A tail goes on each word of a stored string but the last
    by one str.replace, with no step per word.
    """
    while len(_store) <= n:
        m = len(_store)
        groups = [("",) if m == 0 else ()]  # largest part 0: the empty word
        for a in range(1, m + 1):
            below = _store[m - a]
            pieces = (
                (s.replace(" ", tail + " "), tail)
                for b in range(min(a, m - a), -1, -1)
                for tail in ["0" * (a - b) + "1"]
                for s in below[b]
            )
            groups.append(tuple(_joined(pieces)))
        _store.append(tuple(groups))
    return tuple(chain.from_iterable(reversed(_store[n])))


def _joined(pieces: Iterable[tuple[str, str]]) -> Iterator[str]:
    """Each (words, tail) pair, up to _CHUNK words, with the tail on its
    last word, joined by spaces in runs of at most _CHUNK words.  The tail
    goes on in the join, not by a copy of each piece."""
    run: list[str] = []
    size = 0
    for words, tail in pieces:
        k = words.count(" ") + 1
        if size + k > _CHUNK:
            yield "".join(run[:-1])
            run, size = [], 0
        run += words, tail, " "
        size += k
    if run:
        yield "".join(run[:-1])


def _sweep(t: int, order: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """One sweep over the partitions of n = 0..order for modulus t: for each
    n, (row sizes, count) for each distinct tuple of tower row sizes.

    The sweep keeps integers only; the words come from _stored.  It shares
    one tower._RowSizes table, in the packed row format of tower's module
    docstring, dropped when it ends, so a word of n tallies as one sum over
    its min(t, n + 1) runners.  Each distinct int is unpacked, and its
    defect checked, once.
    """
    _check_params(t, order=order)
    table = _RowSizes(t, order)
    get = table.__getitem__
    runners = [itemgetter(slice(i, None, t)) for i in range(min(t, order + 1))]

    def packed(n: int, words: list[str]) -> Iterator[int]:
        # One C-level sum per word over its first min(t, n + 1) runners.
        columns = [map(get, map(r, words)) for r in runners[: n + 1]]
        return map(sum, zip(repeat(n), *columns))

    sweep = []
    for n in range(order + 1):
        chunks = map(str.split, _stored(n), repeat(" "))
        tally = Counter(chain.from_iterable(packed(n, words) for words in chunks))
        census = tuple((table.sizes(p), k) for p, k in tally.items())
        for p, (sizes, _) in zip(tally, census):
            try:
                _defect(None, n, t, sizes)
            except ArithmeticError:
                # The check depends on (n, t, sizes) only, so it fails for
                # every partition with these sizes: name the first one.
                words = chain.from_iterable(map(str.split, _stored(n), repeat(" ")))
                witness = next(w for w in words if next(packed(n, [w])) == p)
                _defect(Partition._trusted(_decode(witness)), n, t, sizes)
                raise
        sweep.append(census)
    return tuple(sweep)


def _enumerated(t: int, order: int, stat: Callable[[int, tuple], int]) -> IntSeries:
    """The series whose coefficient of q**n sums stat(n, row sizes) over the
    partitions of n, read off the census."""
    sums = (sum(k * stat(n, s) for s, k in c) for n, c in enumerate(_census(t, order)))
    return IntSeries(tuple(sums))


def row_weight_series_brute(j: int, t: int, order: int) -> IntSeries:
    """Brute-force twin of row_weight_series by full enumeration."""
    _check_params(t, j, order)
    return _enumerated(t, order, lambda n, sizes: sizes[j] if j < len(sizes) else 0)


@_over_eta
def defect_series(t: int, order: int) -> IntSeries:
    """Closed form for the series of total defects of all partitions of n.

    The numerator sums t**k S(q**(t**k)) over k >= 1 while t**k fits below
    the truncation order; that cutoff is exact, not an approximation.
    """
    powers = (t**k for k in range(1, order.bit_length() + 1))
    return _sigma(order, ((m, m) for m in powers))


def defect_series_brute(t: int, order: int) -> IntSeries:
    _check_params(t, order=order)
    return _enumerated(t, order, lambda n, sizes: _defect(None, n, t, sizes))


@_over_eta
def generalized_core_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form counting partitions whose pre-tower row j+1 is empty.

    With T = t**(j+1) this is (q**T; q**T)_inf**T / (q; q)_inf.  For j = 0
    it is the classical t-core counting series.  Past the order, where T is
    capped as in row_weight_series, the numerator is 1.
    """
    T = t ** min(j + 1, order.bit_length())
    return pochhammer_inf(T, T, order)


def generalized_core_series_brute(j: int, t: int, order: int) -> IntSeries:
    _check_params(t, j, order)
    # A partition counts when its tower has at most j + 1 rows.
    return _enumerated(t, order, lambda n, sizes: len(sizes) <= j + 1)


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


@_over_eta
def regular_partition_series(t: int, order: int) -> IntSeries:
    """Counts of partitions with no part divisible by t, from the product
    (q**t; q**t)_inf / (q; q)_inf."""
    return pochhammer_inf(t, 1, order)


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

    return VerificationReport(f"congruence.{claim}", t, None, order, _first(residues()))


def check_recursion(t: int, order: int) -> VerificationReport:
    """Checks the exact recursion relating total core sizes to n*p(n) and
    counts of partitions with no part divisible by t: the correction at n
    is the convolution sum over t | m <= n of m*p(m/t) * regular[n - m],
    formed by one exact series product (series.mul)."""
    _check_params(t, order=order)
    totals = core_size_totals(t, order)
    regular = regular_partition_series(t, order)
    weights = [0] * (order + 1)
    for m in range(t, order + 1, t):
        weights[m] = m * partition_count(m // t)
    correction = mul(IntSeries(tuple(weights)), regular).coeffs
    mismatch = _first(
        (n, totals[n], n * partition_count(n) - t * correction[n])
        for n in range(order + 1)
    )
    return VerificationReport("recursion", t, None, order, mismatch)


def monotonicity_check(t: int, order: int) -> VerificationReport:
    """Checks the defect series has nonnegative, weakly increasing
    coefficients from n = 1 on.

    A mismatch (n, value, bound) means coefficient n dropped below bound,
    which is 0 for the sign check and the previous coefficient otherwise.
    """
    _check_params(t, order=order)
    c = defect_series(t, order).coeffs
    # A coefficient that holds is its own bound.
    bounds = (
        (n, c[n], 0 if c[n] < 0 else max(c[n], c[n - 1] if n > 1 else 0))
        for n in range(1, order + 1)
    )
    return VerificationReport("monotonicity", t, None, order, _first(bounds))


def telescoped_row_weight_check(t: int, j: int, order: int) -> VerificationReport:
    """Checks that the t**k-weighted row series summed over k <= j telescopes
    to (S(q) - t**(2j+2) S(q**(t**(j+1)))) / (q;q)_inf."""
    _check_params(t, j, order)
    lhs = series_zero(order)
    # Row k vanishes below the truncation once t**k > order.
    for k in range(min(j, order.bit_length()) + 1):
        lhs = lhs + (t**k) * row_weight_series(k, t, order)
    m = t ** min(j + 1, order.bit_length())
    rhs = div(_sigma(order, ((1, 1), (m, -m * m))), euler_product(order))
    return compare_series("telescoped-row-weights", lhs, rhs, t=t, j=j)
