"""t-cores, t-quotients, core towers, and defects via the abacus encoding.

A partition (l_1, ..., l_k) is encoded by its beta-set, the strictly
decreasing bead positions {l_i + k - i : i = 1..k}; for k = len(lam) these
are the first-column hook lengths.  Sliding a bead from position b to the
vacant position b - t deletes a rim hook of length t from the partition,
so pushing every bead as far down its residue class mod t as possible
yields the t-core, independently of deletion order.  Reading the beads in
residue class r (positions divided by t after subtracting r) gives
component r of the t-quotient.

The kernel reads a partition as its position word: character b is "1"
where a bead sits at position b.  Runner r is the slice word[r::t], a
runner's bead count is its number of 1s, and the number of 0s below a
1 is its part, so cores, quotients and towers come from string
operations, with no loop over the beads.  A word has one character per
position, largest part plus number of parts in all, so a partition whose
largest part is far above its number of parts is split from its bead
list instead (see _abacus), in time and memory that grow with its
length alone.

Convention fixed here: bead counts are always normalised up to a multiple
of t before reading off cores and quotients.  This pins down the order of
the quotient components; aggregate statistics (sizes, defects, tower row
weights) do not depend on that choice, and tests that compare against
reference data treat quotient tuples as multisets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat, zip_longest
from operator import add, mul, sub
from typing import Iterable, Iterator, Sequence

from .partitions import EMPTY, Partition, _decode

# Materialisation guard: pre-tower row j has t**j entries, and a t-quotient t.
_MAX_ROW_ENTRIES = 1 << 20
# A partition whose largest part is at least _SPARSE times its number of
# parts is split as a bead list; its word would spend more characters than
# that on each bead.
_SPARSE = 64
# A partition as _abacus keeps it: its position word, or its parts.
_Abacus = str | tuple[int, ...]


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


def _word(parts: tuple[int, ...]) -> str:
    """Position word of the partition with these parts: character b is "1"
    where its beta-set of len(parts) beads has a bead, from position 0 up
    to the top bead.  The 0s below the bottom bead and between neighbours
    are the differences of consecutive parts, smallest part first."""
    if not parts:
        return ""
    gaps = map(sub, reversed(parts), chain((0,), reversed(parts)))
    return "1".join(map(mul, repeat("0"), gaps)) + "1"


def _abacus(parts: tuple[int, ...]) -> _Abacus:
    """What _split takes for the partition with these parts: its position
    word, or the parts themselves when the largest is at least _SPARSE
    times their number."""
    if parts and parts[0] >= _SPARSE * len(parts):
        return parts
    return _word(parts)


def _as_parts(abacus: _Abacus) -> tuple[int, ...]:
    return abacus if isinstance(abacus, tuple) else _decode(abacus)


def _components(word: str, t: int) -> list[str]:
    """The quotient component on each runner word[i::t] of a word, as a word
    no longer than the runner: the runner without the run of 1s at its
    bottom, which are zero parts, and the 0s above its top bead.  An empty
    component is the empty word."""
    return [word[i::t].lstrip("1").rstrip("0") for i in range(t)]


def _core(counts: Iterable[tuple[int, int]], t: int) -> tuple[int, ...]:
    """Parts of the t-core with c beads pushed down runner i, at t*h + i for
    h < c, for each (i, c) in counts; the runners left out hold none."""
    beads = [t * h + i for i, c in counts for h in range(c)]
    beads.sort(reverse=True)
    return _parts(beads)


def _split(abacus: _Abacus, t: int) -> tuple[tuple[int, ...], list]:
    """Core parts and the (r, abacus) of each nonempty quotient component r,
    in increasing r, of the partition with this abacus (see _abacus).

    Runner i of a word is word[i::t].  Padding its k beads up to a
    multiple of t would put -k % t beads below position 0, all zero parts,
    so runner i is runner (i - k) % t of the convention, and the pad beads
    only lengthen the run of 1s at its bottom, which _components strips.
    """
    if isinstance(abacus, tuple):
        return _split_beads(abacus, t)
    word = abacus
    if len(word) <= t:
        # At most one position per runner: the word is its own core, and
        # its runners hold zero parts only.
        return _decode(word), []
    runners = [word[i::t] for i in range(t)]  # each runner sliced once
    counts = [r.count("1") for r in runners]
    k = sum(counts) % t
    children = [
        (r, c)
        for r, runner in enumerate(runners[k:] + runners[:k])
        if (c := runner.lstrip("1").rstrip("0"))  # as _components strips it
    ]
    low = min(counts)  # every position below t * low holds a bead
    return _core(((i, c - low) for i, c in enumerate(counts)), t), children


def _split_beads(parts: tuple[int, ...], t: int) -> tuple[tuple[int, ...], list]:
    """_split for a partition kept as its k parts, in O(k log k): bead b
    goes on runner b % t at height b // t, and each component is kept as
    _abacus chooses.  Only occupied runners are visited: the core has each
    one's beads pushed down, at t*h + i on runner i."""
    k = len(parts)
    if parts[0] + k <= t:
        # Its word would be no longer than t: see _split.
        return parts, []
    runners: dict[int, list[int]] = {}
    for q, i in map(divmod, _beads(parts, k), repeat(t)):
        runners.setdefault(i, []).append(q)
    children = [
        ((i - k) % t, _abacus(child))
        for i, run in runners.items()
        if (child := _parts(run))
    ]
    children.sort()
    return _core(((i, len(run)) for i, run in runners.items()), t), children


def t_core(lam: Partition, t: int) -> Partition:
    """The t-core of lam: no hook length of the result is divisible by t."""
    _check_modulus(t)
    return Partition._trusted(_split(_abacus(lam.parts), t)[0])


def t_quotient(lam: Partition, t: int) -> tuple[Partition, ...]:
    """The t-quotient of lam as an ordered t-tuple of partitions.

    Component r is read from the beads in residue class r mod t.  The size
    identity |lam| = |core| + t * (total quotient size) always holds.
    """
    _check_modulus(t)
    quotient = [EMPTY] * t
    for r, child in _split(_abacus(lam.parts), t)[1]:
        quotient[r] = Partition._trusted(_as_parts(child))
    return tuple(quotient)


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


def _check_row(t: int, j: int) -> None:
    """Raise ValueError when row j, of t**j entries, is past _MAX_ROW_ENTRIES,
    without computing t**j."""
    if t ** min(j, _MAX_ROW_ENTRIES.bit_length()) > _MAX_ROW_ENTRIES:
        raise ValueError("pre-tower row has too many entries to materialise")


def _row(t: int, j: int, entries) -> tuple[Partition, ...]:
    """Row j: the (index, parts) entries, the empty partition at its other t**j
    places; raises ValueError past _MAX_ROW_ENTRIES, without building t**j."""
    _check_row(t, j)
    row = [EMPTY] * t**j
    for i, parts in entries:
        row[i] = Partition._trusted(parts)
    return tuple(row)


def _levels(lam: Partition, t: int) -> Iterator[list]:
    """(index, abacus, core parts, components) of the nonempty entries of
    pre-tower rows 0, 1, ...; entry i's component r is entry t*i + r below.

    splits maps each abacus met so far to its _split, so an abacus that
    recurs in the walk is split once; it is dropped with the generator.
    """
    splits: dict[_Abacus, tuple] = {}
    level = [(0, _abacus(lam.parts))]
    while level:
        entries = []
        for i, a in level:
            split = splits.get(a)
            if split is None:
                split = splits[a] = _split(a, t)
            entries.append((i, a, *split))
        yield entries
        level = [(t * i + r, a) for i, _, _, children in entries for r, a in children]


def pre_tower_row(lam: Partition, t: int, j: int) -> tuple[Partition, ...]:
    """Row j of the t-core pre-tower: t**j partitions, iterated quotients of lam.

    Row 0 is (lam,); each next row concatenates, in order, the t-quotients
    of the previous row's entries.
    """
    _check_modulus(t)
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    at_j = islice(_levels(lam, t), j, j + 1)  # walked only past _row's guard
    return _row(
        t, j, ((i, _as_parts(a)) for level in at_j for i, a, _, _ in level if a)
    )


@dataclass(frozen=True)
class CoreTower:
    """Rows of t-cores built from iterated quotients of one partition.

    Row j holds the t-cores of pre-tower row j, in order, and has t**j
    entries, most of them empty.  entries[j] keeps only the nonempty ones,
    as (index in row j, parts) in increasing index; rows is the dense view,
    built on first use, and row_sizes sums the entries.  Rows are kept up
    to the last level whose pre-tower row is nonempty; for the empty
    partition that is the single row (EMPTY,), whose entries are ().
    core_tower fills entries in one walk that splits each distinct abacus
    once and keeps no split after it returns.
    """

    t: int
    entries: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]

    @property
    def height(self) -> int:
        return len(self.entries) - 1

    @cached_property
    def rows(self) -> tuple[tuple[Partition, ...], ...]:
        return tuple(_row(self.t, j, row) for j, row in enumerate(self.entries))

    @cached_property
    def row_sizes(self) -> tuple[int, ...]:
        return tuple(sum(sum(parts) for _, parts in row) for row in self.entries)


def core_tower(lam: Partition, t: int) -> CoreTower:
    """The t-core tower of lam, up to its first row of t-cores (the next
    pre-tower row is empty); raises ValueError past _MAX_ROW_ENTRIES."""
    _check_modulus(t)
    entries = []
    for j, level in enumerate(_levels(lam, t)):
        _check_row(t, j)
        entries.append(tuple((i, core) for i, _, core, _ in level if core))
    return CoreTower(t=t, entries=tuple(entries))


def _row_sizes(abacus: _Abacus, size: int, t: int, memo: dict) -> tuple[int, ...]:
    """Tower row sizes of the partition of this size and abacus (_abacus).

    Only the quotient components are read off, as _split reads them, and
    the core has what is left, size - t * (total component size).  Row
    j + 1 is the sum of row j of the components' towers.  memo maps a
    component's abacus to (its size, *its row sizes), computed on a miss,
    so a component that recurs is walked once.
    """
    if isinstance(abacus, tuple):
        components = [child for _, child in _split_beads(abacus, t)[1]]
    elif len(abacus) <= t:
        return (size,)  # its own core: see _split
    else:
        components = _components(abacus, t)
    subs = []  # (size, *row sizes) of each nonempty component
    for child in filter(None, components):
        sub = memo.get(child)
        if sub is None:
            q = sum(_as_parts(child))
            sub = memo[child] = (q, *_row_sizes(child, q, t, memo))
        subs.append(sub)
    q, *rows = map(sum, zip_longest(*subs, fillvalue=0)) if subs else (0,)
    return (size - t * q, *rows)


def tower_row_sizes(lam: Partition, t: int) -> tuple[int, ...]:
    """Total size of each tower row, row 0 up to the tower height.

    Sparse equivalent of core_tower(lam, t).row_sizes, walked by _row_sizes
    with a memo that lives for this call; no core is decoded.
    """
    _check_modulus(t)
    return _row_sizes(_abacus(lam.parts), lam.size, t, {})


def row_size(lam: Partition, t: int, j: int) -> int:
    """Total size of tower row j; zero beyond the tower height."""
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    sizes = tower_row_sizes(lam, t)
    return sizes[j] if j < len(sizes) else 0


def _defect(lam: Partition | None, n: int, t: int, sizes: Sequence[int]) -> int:
    """(n - sum(sizes)) / (t - 1) for the tower row sizes of lam, a partition
    of n; raises ArithmeticError, naming lam, unless that is a nonnegative
    integer.  A caller that has not found lam yet passes None and looks it
    up only when the error is raised."""
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
