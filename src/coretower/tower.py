"""t-cores, t-quotients, core towers, and defects via the abacus encoding.

A partition (l_1, ..., l_k) is encoded by its beta-set, the strictly
decreasing bead positions {l_i + k - i : i = 1..k}; for k = len(lam) these
are the first-column hook lengths.  Sliding a bead from position b to the
vacant position b - t deletes a rim hook of length t from the partition,
so pushing every bead as far down its residue class mod t as possible
yields the t-core, independently of deletion order.  Reading the beads in
residue class r (positions divided by t after subtracting r) gives
component r of the t-quotient.

The kernel reads one partition at a time as its position word (_word,
read back by _decode, the one word codec): character b is "1" where a
bead sits at position b.  Runner r is the slice word[r::t], a
runner's bead count is its number of 1s, and the number of 0s below a
1 is its part, so cores, quotients and towers come from string
operations, with no loop over the beads.  A word has one character per
position, largest part plus number of parts in all, so a partition with
fewer parts than t, or whose largest part is far above its number of
parts, is split from its bead list instead (see _abacus), in time and
memory that grow with its length alone.  One walk, _levels, serves every
tower statistic: a row size sums its cores' sizes, read off their charges.

Convention fixed here: bead counts are always normalised up to a multiple
of t before reading off cores and quotients.  This pins down the order of
the quotient components; aggregate statistics (sizes, defects, tower row
weights) do not depend on that choice, and tests that compare against
reference data treat quotient tuples as multisets.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, compress, count, repeat
from operator import add, itemgetter, mul, sub
from typing import Iterator, Sequence

from .partitions import EMPTY, Partition, _Frozen

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


def _decode(word: str) -> tuple[int, ...]:
    """Parts, largest first, of the partition with this position word, with
    no 1s at its bottom (a bead there would be a zero part): a bead's part
    is the number of 0s below it."""
    sizes = list(accumulate(map(len, word.split("1"))))
    sizes.pop()  # the empty piece above the top bead
    sizes.reverse()
    return tuple(sizes)


def _abacus(parts: tuple[int, ...], t: int) -> _Abacus:
    """What _split takes for the partition with these parts at modulus t:
    the parts themselves when there are fewer than t of them, or when the
    largest is at least _SPARSE times their number; else its position
    word."""
    if len(parts) < t or parts[0] >= _SPARSE * len(parts):
        return parts
    return _word(parts)


def _as_parts(abacus: _Abacus) -> tuple[int, ...]:
    return abacus if isinstance(abacus, tuple) else _decode(abacus)


def _core(charges: tuple[tuple[int, ...], tuple[int, ...]], t: int) -> tuple[int, ...]:
    """Parts of the t-core with h beads pushed down runner i, at t*g + i for
    g < h, for each i and h zipped from charges (runners, heights); the
    runners left out hold none.  The bottom beads are the runners
    themselves, so only the beads above them cost a step each."""
    runners, heights = charges
    beads = [i + t * g for i, h in zip(runners, heights) if h > 1 for g in range(1, h)]
    beads += runners
    beads.sort(reverse=True)
    return _parts(beads)


def _size(charges: tuple[tuple[int, ...], tuple[int, ...]], t: int) -> int:
    """sum(_core(charges, t)), no core built: runner i's h beads sum to
    i*h + t*h*(h - 1)/2, and the B beads in all to the size plus B*(B - 1)/2."""
    runners, heights = charges
    b, squares = sum(heights), sum(map(mul, heights, heights))
    return sum(map(mul, runners, heights)) + (t * (squares - b) - b * (b - 1)) // 2


def _split(abacus: _Abacus, t: int) -> tuple[tuple, list]:
    """Charges of the core and the (r, abacus) of each nonempty quotient
    component r, in increasing r, of the partition with this abacus (see
    _abacus).

    The charges (runners, heights) put h beads on runner i for each i and h
    zipped, i increasing, and none elsewhere: the core's own beta-set, with
    no bead at position 0.  Like the core's charge vector they fix the
    core, _core(charges, t), and are fixed by it, whatever the partition's
    bead count.  They are the runners' bead counts less the fewest, turned:
    the s runners below the first empty one each lose their bottom bead, at
    0..s-1, and every bead moves down s positions, so runner i becomes
    i - s, or t - s + i for i < s.

    Runner i of a word is word[i::t].  Padding its k beads up to a
    multiple of t would put -k % t beads below position 0, all zero parts,
    so runner i is runner (i - k) % t of the convention, and the pad beads
    only lengthen the run of 1s at its bottom, which is stripped.  A word
    no longer than t, such as a short component, is split from its parts,
    so the t runners of a word, each sliced once, never outnumber its
    characters.
    """
    if isinstance(abacus, tuple) or len(abacus) <= t:
        return _split_beads(_as_parts(abacus), t)
    runners = [abacus[i::t] for i in range(t)]
    counts = [r.count("1") for r in runners]
    k = sum(counts) % t
    children = [
        (r, c)
        for r, runner in enumerate(runners[k:] + runners[:k])
        if (c := runner.lstrip("1").rstrip("0"))
    ]
    low = min(counts)  # every position below t * low holds a bead
    heights = [c - low for c in counts] if low else counts
    if s := heights.index(0):  # the turn
        heights = heights[s:] + [h - 1 for h in heights[:s]]
    return (tuple(compress(count(), heights)), tuple(filter(None, heights))), children


def _split_beads(parts: tuple[int, ...], t: int) -> tuple[tuple, list]:
    """_split for a partition kept as its k parts, in O(k log k): bead b
    goes on runner b % t at height b // t, and each component is kept as
    _abacus chooses.  Only occupied runners are visited, and the fewest
    beads on a runner is 0 unless all t are.  With its top bead below t,
    each bead is alone at the bottom of its runner, none at 0: the
    partition is its own core, and has no components."""
    k = len(parts)
    if not parts or parts[0] + k <= t:
        beads = tuple(_beads(parts, k))[::-1]
        return (beads, (1,) * k), []
    runners: dict[int, list[int]] = {}
    for q, i in map(divmod, _beads(parts, k), repeat(t)):
        runners.setdefault(i, []).append(q)
    children = [
        ((i - k) % t, _abacus(child, t))
        for i, run in runners.items()
        if (child := _parts(run))
    ]
    children.sort()
    low = min(map(len, runners.values())) if len(runners) == t else 0
    heights = sorted((i, h) for i, run in runners.items() if (h := len(run) - low))
    # The turn: runners 0..s-1 hold beads, and runner s none.
    s = next((j for j, (i, _) in enumerate(heights) if i != j), len(heights))
    turned = [(i - s, h) for i, h in heights[s:]]
    turned += [(t - s + i, h - 1) for i, h in heights[:s] if h > 1]
    return (tuple(i for i, _ in turned), tuple(h for _, h in turned)), children


def t_core(lam: Partition, t: int) -> Partition:
    """The t-core of lam: no hook length of the result is divisible by t."""
    _check_modulus(t)
    return Partition._trusted(_core(_split(_abacus(lam.parts, t), t)[0], t))


def t_quotient(lam: Partition, t: int) -> tuple[Partition, ...]:
    """The t-quotient of lam as an ordered t-tuple of partitions.

    Component r is read from the beads in residue class r mod t.  The size
    identity |lam| = |core| + t * (total quotient size) always holds.
    """
    _check_modulus(t)
    children = _split(_abacus(lam.parts, t), t)[1]
    return _row(t, 1, ((r, _as_parts(child)) for r, child in children))


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
    k = -(-len(core) // t) * t + t * pad  # len(core) up to a multiple of t
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


def _levels(lam: Partition, t: int, read=_size) -> Iterator[list]:
    """(index, abacus, read(core charges, t), components) of the nonempty
    entries of pre-tower rows 0, 1, ...; entry i's component r is entry
    t*i + r below.  splits keeps the last two for each abacus met, and
    reads the read of each core's charges (see _split), so each distinct
    core is read once; both go with the generator."""
    splits: dict[_Abacus, tuple] = {}
    reads: dict[tuple, object] = {}
    level = [(0, _abacus(lam.parts, t))]
    while level:
        entries = []
        for i, a in level:
            if (split := splits.get(a)) is None:
                charges, children = _split(a, t)
                if (value := reads.get(charges)) is None:
                    value = reads[charges] = read(charges, t)
                split = splits[a] = value, children
            entries.append((i, a, *split))
        yield entries
        level = [(t * i + r, a) for i, _, _, children in entries for r, a in children]


def _level(lam: Partition, t: int, j: int) -> Sequence[tuple]:
    """Entries of pre-tower row j as _levels yields them, or () past the
    tower: the walk stops once it has split row j, or run out of rows.
    Unlike islice's, j may pass sys.maxsize."""
    return next((level for i, level in enumerate(_levels(lam, t)) if i == j), ())


def pre_tower_row(lam: Partition, t: int, j: int) -> tuple[Partition, ...]:
    """Row j of the t-core pre-tower: t**j partitions, iterated quotients of lam.

    Row 0 is (lam,); each next row concatenates, in order, the t-quotients
    of the previous row's entries.
    """
    _check_modulus(t)
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    _check_row(t, j)  # before the walk
    return _row(t, j, ((i, _as_parts(a)) for i, a, _, _ in _level(lam, t, j) if a))


class CoreTower(_Frozen):
    """Rows of t-cores built from iterated quotients of one partition.

    Row j holds the t-cores of pre-tower row j, in order, and has t**j
    entries, most of them empty.  entries[j] keeps only the nonempty ones,
    as (index in row j, parts) in increasing index; rows is the dense view,
    built on first use, and row_sizes sums the entries.  Rows are kept up
    to the last level whose pre-tower row is nonempty; for the empty
    partition that is the single row (EMPTY,), whose entries are ().
    core_tower fills entries in one walk (see _levels), so equal cores may
    share one tuple, and keeps none of the walk's memos after it returns.
    """

    _fields = ("t", "entries")

    def __init__(
        self, t: int, entries: tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]
    ) -> None:
        self.__dict__.update(t=t, entries=entries)

    @property
    def height(self) -> int:
        return len(self.entries) - 1

    @cached_property
    def rows(self) -> tuple[tuple[Partition, ...], ...]:
        return tuple(_row(self.t, j, row) for j, row in enumerate(self.entries))

    @cached_property
    def row_sizes(self) -> tuple[int, ...]:
        return tuple(sum(map(sum, map(itemgetter(1), row))) for row in self.entries)


def core_tower(lam: Partition, t: int) -> CoreTower:
    """The t-core tower of lam, up to its first row of t-cores (the next
    pre-tower row is empty); raises ValueError past _MAX_ROW_ENTRIES."""
    _check_modulus(t)
    entries = []
    for j, level in enumerate(_levels(lam, t, _core)):
        _check_row(t, j)
        entries.append(tuple((i, core) for i, _, core, _ in level if core))
    return CoreTower(t=t, entries=tuple(entries))


def tower_row_sizes(lam: Partition, t: int) -> tuple[int, ...]:
    """Total size of each tower row, row 0 up to the tower height, as in
    core_tower(lam, t).row_sizes: the core sizes _levels reads off their
    charges, summed level by level, with no core or row built."""
    _check_modulus(t)
    return tuple(sum(size for _, _, size, _ in level) for level in _levels(lam, t))


def row_size(lam: Partition, t: int, j: int) -> int:
    """Total size of tower row j; zero beyond the tower height."""
    _check_modulus(t)
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    return sum(size for _, _, size, _ in _level(lam, t, j))


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
    _check_modulus(t)
    if j < 0:
        raise ValueError("row index j must be nonnegative")
    return not _level(lam, t, j + 1)
