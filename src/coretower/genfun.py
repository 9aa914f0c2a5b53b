"""Generating functions for tower statistics, built two independent ways.

Each family of series names once, in FAMILIES, its closed form (built from
exact q-series primitives), its census statistic (read off a partition's
tower row sizes) and whether it takes a row index j.  enumerated(), the one
enumeration source, sums a statistic over the partitions of each size: the
brute-force twin of the closed form.  compare_series() walks the two
coefficient lists and reports the first mismatch, if any; the congruence,
recursion, and monotonicity checkers produce the same report type.

Every closed form, and the recursion check's correction, is a numerator
over (q;q)_inf, and keeps one quotient per arguments but the order for
the life of the process (see _over_eta): each coefficient of a form is
divided once per process, whichever orders its callers ask for, and in
whatever sequence.  enumerated() reads one census sweep per t (_census),
and every sweep reads the position words (see tower) of each n from one
store (_stored), which builds each n once per process by concatenation
from the stored words of smaller sizes.

The census packs the row sizes of a partition of n in one int
(_RowSizes), row j at bit j * bits for sizes up to n < 2**bits: no row,
nor sum of component sizes, passes n, so no digit carries.  Its table
maps a runner word[i::t] as sliced to its component's whole share of the
packed rows, (rows << bits) - t * size, so a partition of n packs as n
plus the sum of its runners' values.
"""

from __future__ import annotations

from collections import Counter
from functools import partial, reduce, wraps
from itertools import chain, count
from operator import add, index, itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .partitions import Partition, partition_counts
from .series import (
    IntSeries,
    _divide,
    _require_same_order,
    _shown,
    divisor_sum_series,
    euler_product,
    div,
    pochhammer_inf,
    q_derivative,
    series_zero,
)
from .tower import _decode, _defect

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
                "closed_value": _shown(closed_value),
                "brute_value": _shown(brute_value),
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


# _store[m][b] holds the words of m with largest part b, b = 0..m, as one
# string, each word followed by a space, for the life of the process.
_store: list[tuple[str, ...]] = []


def _stored(n: int) -> Iterator[list[str]]:
    """The position words of the partitions of n, in the order of
    enumerate_partitions, as one list per largest part: every sweep reads
    them, and each n is built once per process.  A string per group, not a
    tuple of words, keeps the store to the words' characters.

    A partition of m with largest part a is a followed by a partition of
    m - a with largest part b <= a; its word is the shorter word, whose
    beads keep their positions, then a - b 0s and the new top bead.  So
    the group of m with largest part a is the groups of m - a for b =
    min(a, m - a) down to 0, each with its tail on every word, in
    reverse-lexicographic order, and the groups for a = m down to 1 are
    the words of m.  One str.replace puts a tail on every word of a
    stored group, with no step per word.
    """
    while len(_store) <= n:
        m = len(_store)
        groups = [" " if m == 0 else ""]  # largest part 0: the empty word
        for a in range(1, m + 1):
            below = _store[m - a]
            groups.append(
                "".join(
                    below[b].replace(" ", "0" * (a - b) + "1 ")
                    for b in range(min(a, m - a), -1, -1)
                )
            )
        _store.append(tuple(groups))
    return (group.split(" ")[:-1] for group in reversed(_store[n]))


class _RowSizes(dict):
    """The census table (module docstring) for modulus t and sizes <= n:
    each runner word[i::t], as sliced, to its component's share of the
    packed rows.  A component packs as its size plus its own runners'
    values; past its length they are empty.  A miss strips its runner and
    reads the component's share off shares, so each component is computed
    once however many runners carry it."""

    def __init__(self, t: int, n: int):
        self.t, self.bits, self.shares = t, n.bit_length(), {}

    def __missing__(self, runner: str) -> int:
        child = runner.lstrip("1").rstrip("0")
        if (value := self.shares.get(child)) is None:
            t, size = self.t, sum(_decode(child))
            rows = size + sum(self[child[i::t]] for i in range(min(t, len(child))))
            value = self.shares[child] = (rows << self.bits) - t * size
        self[runner] = value
        return value

    def sizes(self, packed: int) -> tuple[int, ...]:
        """Row 0 up to the tower height, from packed rows."""
        digits = range(0, max(packed.bit_length(), 1), self.bits or 1)
        return tuple(packed >> i & ((1 << self.bits) - 1) for i in digits)


def _sweep(t: int, order: int) -> tuple[tuple[tuple[tuple[int, ...], int], ...], ...]:
    """One sweep over the partitions of n = 0..order for modulus t: for each
    n, (row sizes, count) for each distinct tuple of tower row sizes.

    The sweep keeps integers only; the words come from _stored, one group
    split at a time.  It shares one _RowSizes table, in the packed row
    format of the module docstring, dropped when it ends, so a word of n
    tallies as one sum over its min(t, n + 1) runners.  Each distinct int
    is unpacked, and its defect checked, once.
    """
    _check_params(t, order=order)
    table = _RowSizes(t, order)
    get = table.__getitem__
    runners = [itemgetter(slice(i, None, t)) for i in range(min(t, order + 1))]

    def packed(n: int, words: list[str]) -> Iterator[int]:
        # Each word's values on its first min(t, n + 1) runners, added
        # column by column; n goes on once per distinct sum, when unpacked.
        columns = [map(get, map(r, words)) for r in runners[: n + 1]]
        return reduce(partial(map, add), columns)

    sweep = []
    for n in range(order + 1):
        tally = Counter(chain.from_iterable(packed(n, words) for words in _stored(n)))
        census = tuple((table.sizes(n + p), k) for p, k in tally.items())
        for p, (sizes, _) in zip(tally, census):
            try:
                _defect(None, n, t, sizes)
            except ArithmeticError:
                # The check depends on (n, t, sizes) only, so it fails for
                # every partition with these sizes: name the first one.
                words = chain.from_iterable(_stored(n))
                witness = next(w for w in words if next(packed(n, [w])) == p)
                _defect(Partition._trusted(_decode(witness)), n, t, sizes)
                raise
        sweep.append(census)
    return tuple(sweep)


@_over_eta
def defect_series(t: int, order: int) -> IntSeries:
    """Closed form for the series of total defects of all partitions of n.

    The numerator sums t**k S(q**(t**k)) over k >= 1 while t**k fits below
    the truncation order; that cutoff is exact, not an approximation.
    """
    powers = (t**k for k in range(1, order.bit_length() + 1))
    return _sigma(order, ((m, m) for m in powers))


@_over_eta
def generalized_core_series(j: int, t: int, order: int) -> IntSeries:
    """Closed form counting partitions whose pre-tower row j+1 is empty.

    With T = t**(j+1) this is (q**T; q**T)_inf**T / (q; q)_inf.  For j = 0
    it is the classical t-core counting series.  Past the order, where T is
    capped as in row_weight_series, the numerator is 1.
    """
    T = t ** min(j + 1, order.bit_length())
    return pochhammer_inf(T, T, order)


# Family name -> (closed form f(j, t, order), census statistic stat(j, t, n,
# row sizes), takes j); one that takes no j ignores it.  The closed forms look
# the functions up when called, so a wrapper on a module attribute sees each call.
FAMILIES: dict[str, tuple[Callable[..., IntSeries], Callable[..., int], bool]] = {
    "T": (
        lambda j, t, order: row_weight_series(j, t, order),
        lambda j, t, n, sizes: sizes[j] if j < len(sizes) else 0,
        True,
    ),
    "D": (
        lambda j, t, order: defect_series(t, order),
        lambda j, t, n, sizes: _defect(None, n, t, sizes),
        False,
    ),
    "cores": (
        lambda j, t, order: generalized_core_series(j, t, order),
        # A partition counts when its tower has at most j + 1 rows.
        lambda j, t, n, sizes: len(sizes) <= j + 1,
        True,
    ),
}


def enumerated(family: str, j: int | None, t: int, order: int) -> IntSeries:
    """The twin of FAMILIES[family]'s closed form: coefficient n sums the
    family's statistic over the partitions of n, read off the census.  Checks
    its arguments as the closed forms do, and ignores j where they do."""
    _, stat, takes_j = FAMILIES[family]
    j, t, order = index(j) if takes_j else 0, index(t), index(order)
    _check_params(t, j, order)
    census = enumerate(_census(t, order))
    return IntSeries(tuple(sum(k * stat(j, t, n, s) for s, k in c) for n, c in census))


@_over_eta
def regular_partition_series(t: int, order: int) -> IntSeries:
    """Counts of partitions with no part divisible by t, from the product
    (q**t; q**t)_inf / (q; q)_inf."""
    return pochhammer_inf(t, 1, order)


def check_congruence(t: int, order: int) -> tuple[VerificationReport, ...]:
    """Checks core-size congruences mod t**2 against exact values, from one
    read of the totals and of p(n): returns the reports "congruence.np" (the
    total at n agrees with n*p(n) mod t**2) and "congruence.multiples" (the
    total at multiples of t vanishes mod t**2).
    The mismatch triple holds residues mod t**2: (n, observed, required).
    """
    _check_params(t, order=order)
    totals = row_weight_series(0, t, order).coeffs
    p = partition_counts(order)
    tsq = t * t
    np = ((n, totals[n] % tsq, n * p[n] % tsq) for n in range(order + 1))
    multiples = ((n, totals[n] % tsq, 0) for n in range(0, order + 1, t))
    return (
        VerificationReport("congruence.np", t, None, order, _first(np)),
        VerificationReport("congruence.multiples", t, None, order, _first(multiples)),
    )


@_over_eta
def _recursion_correction(t: int, order: int) -> IntSeries:
    """The recursion's correction W(q**t) (q**t;q**t)_inf / (q;q)_inf, with
    W[k] = t*k*p(k), over its numerator [W eta](q**t), eta = (q;q)_inf, of
    order order // t: W = t q P' with P = 1/eta, so W eta = -t q eta' / eta."""
    eta = euler_product(order // t)
    num = [0] * (order + 1)
    num[::t] = div(-t * q_derivative(eta), eta).coeffs
    return IntSeries(tuple(num))


def check_recursion(t: int, order: int) -> VerificationReport:
    """Checks the exact recursion relating total core sizes to n*p(n) and
    counts of partitions with no part divisible by t: the correction at n
    is the convolution sum over t | m <= n of m*p(m/t) * regular[n - m].

    The weights live on multiples of t, as W(q**t) with W[k] = t*k*p(k),
    and regular is (q**t;q**t)_inf / (q;q)_inf, so the correction is one
    more numerator over (q;q)_inf (_recursion_correction), kept per t; that
    numerator is one division, with no product."""
    _check_params(t, order=order)
    totals = row_weight_series(0, t, order).coeffs
    correction = _recursion_correction(t, order).coeffs
    p = partition_counts(order)
    mismatch = _first(
        (n, totals[n], n * p[n] - t * correction[n]) for n in range(order + 1)
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
