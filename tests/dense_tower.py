"""The dense core-tower walk, the oracle for the sparse walk in `tower`.

Every entry of every pre-tower row is materialised, empty or not, and
split by one bead placement padded to a multiple of t whose runners are
decoded by sorting the beads.  Nothing here calls into `coretower.tower`.
"""

from coretower import Partition


def beads_to_partition(beads):
    """The partition whose beta-set is the given distinct bead positions."""
    desc = sorted(beads, reverse=True)
    k = len(desc)
    parts = (b - (k - 1 - i) for i, b in enumerate(desc))
    return Partition(tuple(p for p in parts if p > 0))


def split(lam, t):
    """(t-core, t-quotient) of lam."""
    k = -(-len(lam) // t) * t
    parts = lam.parts + (0,) * (k - len(lam))
    runners = [[] for _ in range(t)]
    for i, p in enumerate(parts):
        b = p + k - 1 - i
        runners[b % t].append(b // t)
    slid = [r + t * i for r in range(t) for i in range(len(runners[r]))]
    return beads_to_partition(slid), tuple(map(beads_to_partition, runners))


def pre_tower_rows(lam, t):
    """Pre-tower rows 0, 1, 2, ... of lam, without end."""
    row = (lam,)
    while True:
        yield row
        row = tuple(c for p in row for c in split(p, t)[1])


def core_tower_rows(lam, t):
    """Core-tower rows of lam, up to its first row of t-cores."""
    rows = []
    for row in pre_tower_rows(lam, t):
        cores = tuple(split(p, t)[0] for p in row)
        rows.append(cores)
        if cores == row:
            return tuple(rows)
