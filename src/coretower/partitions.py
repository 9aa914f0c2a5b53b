"""Integer partitions, Young diagrams, hook lengths, and exact counting.

Partitions are stored as explicit tuples of weakly decreasing positive
parts; the empty tuple is the empty partition.  Every object here is an
immutable value, so results can be shared freely between threads, and
enumeration streams are independent per call.  enumerate_partitions steps
through position words (_words) and decodes them; genfun's census builds
the same words in the same order by concatenation instead, and the tests
hold the two to each other.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, count
from operator import lt
from typing import Iterable, Iterator


class _Frozen:
    """A value as a frozen dataclass is: equal only to its own class with
    equal fields, hashed and shown by them, and closed to assignment and
    deletion.  A subclass names its fields in _fields and stores them in
    __dict__, where cached_property keeps its values too."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Partition(_Frozen):
    """Weakly decreasing tuple of positive integer parts."""

    _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        self.__dict__["parts"] = parts
        # A positive last part and no increasing neighbours make a valid
        # tuple; the loop runs only to name the first offending part.
        if not parts or (parts[-1] >= 1 and not any(map(lt, parts, parts[1:]))):
            return
        for i, part in enumerate(parts):
            if part < 1:
                raise ValueError(f"part {part} at index {i} is not a positive integer")
            if i > 0 and parts[i - 1] < part:
                raise ValueError(
                    f"parts must be weakly decreasing; "
                    f"parts[{i - 1}]={parts[i - 1]} < parts[{i}]={part}"
                )

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """A Partition of parts already known to be positive and weakly
        decreasing, built without running __init__'s checks."""
        lam = object.__new__(cls)
        lam.__dict__["parts"] = parts
        return lam

    @cached_property
    def size(self) -> int:
        """Number of cells of the Young diagram, i.e. the sum of the parts."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


EMPTY = Partition()


def make_partition(parts: Iterable[int]) -> Partition:
    """Validate an iterable of parts and return the corresponding Partition."""
    return Partition(tuple(parts))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    parts = lam.parts
    if not parts:
        return EMPTY
    cols = [0] * parts[0]
    for p in parts:
        for j in range(p):
            cols[j] += 1
    return Partition(tuple(cols))


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of every cell, row by row.

    The hook of a cell counts the cells to its right, the cells below it,
    and the cell itself.
    """
    parts = lam.parts
    if not parts:
        return []
    col_heights = conjugate(lam).parts
    grid = []
    for i, row_len in enumerate(parts):
        grid.append(
            [(row_len - j - 1) + (col_heights[j] - i - 1) + 1 for j in range(row_len)]
        )
    return grid


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    (n) comes first and (1, ..., 1) last; the stream has partition_count(n)
    entries.  It is _words(n), decoded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return map(Partition._trusted, map(_decode, _words(n)))


def _words(n: int) -> Iterator[str]:
    """Position words of the partitions of n, in the order of
    enumerate_partitions: character b is "1" where the beta-set of
    len(parts) beads has a bead, from position 0 up to the top bead.

    Zoghbi and Stojmenovic's ZS1 keeps the descending parts x[:m], with
    x[h] the last part above 1; each step lowers x[h] by one and refills
    the parts after it greedily, in O(1) amortised time.  The word starts
    at the smallest part, so a step changes only its front.  above[i] is
    bead i and the word above it, which depends on x[0..i] alone, so it is
    rebuilt only from the first index a step changed up to h.  Each word is
    then a 0, a bead for each trailing 1, x[h] - 1 more 0s and above[h].
    """
    if n == 0:
        yield ""
        return
    x = [1] * n
    x[0] = n
    m = 1  # number of parts
    h = 0  # index of the last part above 1; every later part is 1
    # above[n] is never rebuilt: it stands for h = -1 at (1, ..., 1), the
    # last partition, where x[-1] = 1 as well.
    above = ["1"] * n + [""]
    yield "0" * n + "1"
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            rest = m - h  # the 1s after x[h], plus the cell taken off it
            x[h] = r
            low = h or 1  # above[0] is "1" whatever x[0] is
            while rest >= r:
                h += 1
                x[h] = r
                rest -= r
            if rest == 0:
                m = h + 1
            else:
                m = h + 2
                if rest > 1:
                    h += 1
                    x[h] = rest
            for i in range(low, h + 1):
                above[i] = "1" + "0" * (x[i - 1] - x[i]) + above[i - 1]
        yield "0" + "1" * (m - 1 - h) + "0" * (x[h] - 1) + above[h]


def _decode(word: str) -> tuple[int, ...]:
    """Parts, largest first, of the partition with this position word, with
    no 1s at its bottom (a bead there would be a zero part): a bead's part
    is the number of 0s below it."""
    sizes = list(accumulate(map(len, word.split("1"))))
    sizes.pop()  # the empty piece above the top bead
    sizes.reverse()
    return tuple(sizes)


# Memo table for Euler's pentagonal number recurrence.  Grown on demand,
# never trimmed; p(n) is needed far beyond enumeration range (n ~ 400).
# _offsets holds -g, by k % 2, for each generalized pentagonal number
# g = k(3k -+ 1)/2 below len(_pcounts); _upcoming[0] is the next (g, k % 2).
_pcounts: list[int] = [1]
_offsets: tuple[list[int], list[int]] = ([], [])
_pentagonals = ((k * (3 * k + s) // 2, k % 2) for k in count(1) for s in (-1, 1))
_upcoming = [next(_pentagonals)]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, via the pentagonal recurrence
    p(m) = sum over k >= 1 of (-1)**(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)).

    Appending keeps p(m - g) at _pcounts[-g], so each new p(m) is two
    C-level sums.  Kept independent of the power-series module so the two
    can be checked against each other.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    get = _pcounts.__getitem__
    for m in range(len(_pcounts), n + 1):
        g, odd = _upcoming[0]
        if g <= m:
            _offsets[odd].append(-g)
            _upcoming[0] = next(_pentagonals)
        _pcounts.append(sum(map(get, _offsets[1])) - sum(map(get, _offsets[0])))
    return _pcounts[n]


def partition_counts(n: int) -> list[int]:
    """[p(0), ..., p(n)], a fresh list sliced off partition_count's table."""
    partition_count(n)
    return _pcounts[: n + 1]
