"""Integer partitions, Young diagrams, hook lengths, and exact counting.

Partitions are stored as explicit tuples of weakly decreasing positive
parts; the empty tuple is the empty partition.  Every object here is an
immutable value, so results can be shared freely between threads, and
enumeration streams are independent per call.  Enumeration steps through
position words (_words), which the census in genfun walks directly;
enumerate_partitions decodes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import lt
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integer parts."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = self.parts
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
        decreasing, built without running __post_init__'s checks."""
        lam = object.__new__(cls)
        object.__setattr__(lam, "parts", parts)
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
_pcounts: list[int] = [1]


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n, via the pentagonal recurrence.

    Kept independent of the power-series module so the two can be checked
    against each other.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_pcounts) <= n:
        m = len(_pcounts)
        total = 0
        k = 1
        while True:
            g = k * (3 * k - 1) // 2
            if g > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * _pcounts[m - g]
            g += k
            if g <= m:
                total += sign * _pcounts[m - g]
            k += 1
        _pcounts.append(total)
    return _pcounts[n]
