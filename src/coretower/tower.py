"""t-cores, t-quotients, core towers, and defects via the abacus encoding.

A partition (l_1, ..., l_k) is encoded by its beta-set, the strictly
decreasing bead positions {l_i + k - i : i = 1..k}; for k = len(lam) these
are the first-column hook lengths.  Sliding a bead from position b to the
vacant position b - t deletes a rim hook of length t from the partition,
so pushing every bead as far down its residue class mod t as possible
yields the t-core, independently of deletion order.  Reading the beads in
residue class r (positions divided by t after subtracting r) gives
component r of the t-quotient.

Convention fixed here: bead counts are always normalised up to a multiple
of t before reading off cores and quotients.  This pins down the order of
the quotient components; aggregate statistics (sizes, defects, tower row
weights) do not depend on that choice, and tests that compare against
reference data treat quotient tuples as multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import add, sub
from typing import Iterable, Iterator, Sequence

from .partitions import EMPTY, Partition

# Materialisation guard: pre-tower row j has t**j entries, and a t-quotient t.
_MAX_ROW_ENTRIES = 1 << 20


def _check_modulus(t: int) -> None:
    if t < 2:
        raise ValueError(f"modulus t must be at least 2, got {t}")
    if t > _MAX_ROW_ENTRIES:
        raise ValueError(f"modulus t must be at most {_MAX_ROW_ENTRIES}, got {t}")


def _bead_count(length: int, t: int) -> int:
    """Smallest multiple of t that is >= length."""
    return length if length % t == 0 else length + (t - length % t)


def _beads(parts: Sequence[int], count: int) -> Iterator[int]:
    """Beta-set of the partition with these parts, padded with zero parts up
    to count beads, descending: part i sits at parts[i] + (count - 1 - i)."""
    pads = range(count - len(parts) - 1, -1, -1)
    return chain(map(add, parts, range(count - 1, -1, -1)), pads)


def _parts(desc_beads: Sequence[int]) -> tuple[int, ...]:
    """Parts of the partition with these distinct descending beads: bead i
    of c gives part b - (c - 1 - i), and the zero parts trail."""
    q = list(map(sub, desc_beads, range(len(desc_beads) - 1, -1, -1)))
    return tuple(q[: q.index(0)] if 0 in q else q)


def _split(parts: tuple[int, ...], t: int) -> tuple[tuple, list[tuple]]:
    """Core parts and quotient component parts of the partition with these
    parts, from one placement of its beads padded to a multiple of t; the
    core fills the bottom of each runner, so the runner counts give it."""
    _check_modulus(t)
    runners: list[list[int]] = [[] for _ in range(t)]
    place = [run.append for run in runners]
    for q, r in map(divmod, _beads(parts, _bead_count(len(parts), t)), repeat(t)):
        place[r](q)
    counts = [len(run) for run in runners]
    core, gaps = [], 0
    # Below t * min(counts) every position holds a bead with no gap below it.
    for pos in range(t * min(counts), t * max(counts)):
        if pos // t >= counts[pos % t]:
            gaps += 1
        elif gaps:
            core.append(gaps)
    return tuple(reversed(core)), list(map(_parts, runners))


def t_core(lam: Partition, t: int) -> Partition:
    """The t-core of lam: no hook length of the result is divisible by t."""
    return Partition._trusted(_split(lam.parts, t)[0])


def t_quotient(lam: Partition, t: int) -> tuple[Partition, ...]:
    """The t-quotient of lam as an ordered t-tuple of partitions.

    Component r is read from the beads in residue class r mod t.  The size
    identity |lam| = |core| + t * (total quotient size) always holds.
    """
    return tuple(Partition._trusted(q) if q else EMPTY for q in _split(lam.parts, t)[1])


def is_t_core(lam: Partition, t: int) -> bool:
    return t_core(lam, t) == lam


def reconstruct(core: Partition, quotient: Sequence[Partition], t: int) -> Partition:
    """The unique partition with the given t-core and t-quotient.

    Inverse of (t_core, t_quotient) under the same bead-count convention.
    Rejects a core that is not actually a t-core and quotients of the wrong
    arity.
    """
    _check_modulus(t)
    if len(quotient) != t:
        raise ValueError(
            f"quotient must have exactly {t} components, got {len(quotient)}"
        )
    if not is_t_core(core, t):
        raise ValueError(f"core argument {core!r} is not a {t}-core")
    pad = max((len(q) for q in quotient), default=0)
    k = _bead_count(len(core), t) + t * pad
    counts = [0] * t
    for b in _beads(core.parts, k):
        counts[b % t] += 1
    beads = [t * v + r for r in range(t) for v in _beads(quotient[r].parts, counts[r])]
    return Partition._trusted(_parts(sorted(beads, reverse=True)))


def _row(t: int, j: int, entries) -> tuple[Partition, ...]:
    """Row j: the (index, parts) entries, the empty partition at its other t**j
    places; raises ValueError past _MAX_ROW_ENTRIES, without building t**j."""
    if t ** min(j, _MAX_ROW_ENTRIES.bit_length()) > _MAX_ROW_ENTRIES:
        raise ValueError("pre-tower row has too many entries to materialise")
    row = [EMPTY] * t**j
    for i, parts in entries:
        row[i] = Partition._trusted(parts)
    return tuple(row)


def _levels(lam: Partition, t: int) -> Iterator[list]:
    """(index, parts, core parts, quotient parts) of the nonempty entries of
    pre-tower rows 0, 1, ...; entry i's component r is entry t*i + r below."""
    level = [(0, lam.parts)]
    while level:
        entries = [(i, parts, *_split(parts, t)) for i, parts in level]
        yield entries
        level = [
            (t * i + r, q) for i, _, _, qs in entries for r, q in enumerate(qs) if q
        ]


def pre_tower_row(lam: Partition, t: int, j: int) -> tuple[Partition, ...]:
    """Row j of the t-core pre-tower: t**j partitions, iterated quotients of lam.

    Row 0 is (lam,); each next row concatenates, in order, the t-quotients
    of the previous row's entries.
    """
    _check_modulus(t)
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    at_j = islice(_levels(lam, t), j, j + 1)  # walked only past _row's guard
    return _row(t, j, ((i, p) for level in at_j for i, p, _, _ in level if p))


@dataclass(frozen=True)
class CoreTower:
    """Rows of t-cores built from iterated quotients of one partition.

    Row j holds the t-cores of pre-tower row j, in order, and has t**j
    entries.  Rows are kept up to the last level whose pre-tower row is
    nonempty; for the empty partition that is the single row (EMPTY,).
    """

    t: int
    rows: tuple[tuple[Partition, ...], ...]

    @property
    def height(self) -> int:
        return len(self.rows) - 1

    @cached_property
    def row_sizes(self) -> tuple[int, ...]:
        return tuple(sum(p.size for p in row) for row in self.rows)


def core_tower(lam: Partition, t: int) -> CoreTower:
    """The t-core tower of lam, up to its first row of t-cores (the next
    pre-tower row is empty); raises ValueError past _MAX_ROW_ENTRIES."""
    rows = (
        _row(t, j, [(i, core) for i, _, core, _ in entries if core])
        for j, entries in enumerate(_levels(lam, t))
    )
    return CoreTower(t=t, rows=tuple(rows))


def _row_sizes(
    beads: Iterable[int], size: int, t: int, memo: dict[tuple, tuple[int, ...]]
) -> tuple[int, ...]:
    """Tower row sizes of the partition of this size with these beads.

    The beads go on the runners once: a runner of c beads at positions
    run holds a quotient component of size sum(run) - c(c-1)/2, and the
    core has what is left, size - t * (total quotient size).  Row j + 1 is
    the sum of row j of the nonempty components' towers, each looked up in
    memo by the component's minimal bead tuple (no beads for zero parts)
    and computed on a miss.  No size depends on the bead count, so the
    beads need no padding to a multiple of t.  No bead lies above size,
    so only the first min(t, size + 1) runners can hold one.
    """
    runners: list[list[int]] = [[] for _ in range(min(t, size + 1))]
    for b in beads:
        runners[b % t].append(b // t)
    lower: list[int] = []
    quotient_size = 0
    for run in runners:
        c = len(run)
        q = sum(run) - c * (c - 1) // 2
        if q:
            quotient_size += q
            # Beads at 0..s-1 encode zero parts: drop them and shift the
            # rest down.  q > 0 means some bead sits above them.
            s = 0
            while run[c - 1 - s] == s:
                s += 1
            key = tuple([b - s for b in run[: c - s]] if s else run)
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = _row_sizes(key, q, t, memo)
            if len(sub) > len(lower):
                lower.extend([0] * (len(sub) - len(lower)))
            for j, x in enumerate(sub):
                lower[j] += x
    return (size - t * quotient_size, *lower)


def tower_row_sizes(lam: Partition, t: int) -> tuple[int, ...]:
    """Total size of each tower row, row 0 up to the tower height.

    Sparse equivalent of core_tower(lam, t).row_sizes, computed on bead
    lists alone by _row_sizes, with a memo that lives for this call: a
    component that recurs in the tower is walked once.
    """
    _check_modulus(t)
    return _row_sizes(_beads(lam.parts, len(lam)), lam.size, t, {})


def row_size(lam: Partition, t: int, j: int) -> int:
    """Total size of tower row j; zero beyond the tower height."""
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    sizes = tower_row_sizes(lam, t)
    return sizes[j] if j < len(sizes) else 0


def _defect(lam: Partition, n: int, t: int, sizes: Sequence[int]) -> int:
    """(n - sum(sizes)) / (t - 1) for the tower row sizes of lam, a partition
    of n; raises ArithmeticError unless that is a nonnegative integer."""
    quot, rem = divmod(n - sum(sizes), t - 1)
    if rem or quot < 0:
        raise ArithmeticError(
            f"defect of {lam!r} for t={t} is not a nonnegative integer"
        )
    return quot


def defect(lam: Partition, t: int) -> int:
    """(|lam| - sum of tower row sizes) / (t - 1), always a nonnegative integer."""
    return _defect(lam, lam.size, t, tower_row_sizes(lam, t))


def is_generalized_core(lam: Partition, j: int, t: int) -> bool:
    """True when every entry of pre-tower row j+1 is empty.

    For j = 0 this is exactly the t-core predicate.
    """
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    return len(tower_row_sizes(lam, t)) <= j + 1
