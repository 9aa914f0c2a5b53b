"""Total t-core sizes by enumeration, the oracle for the congruence tests.

Each total is summed twice over the partitions of n: once with the abacus
`t_core` and once with `t_core_by_rim_hooks`, which deletes rim hooks
directly.  Neither route reads the closed form that `check_congruence`
uses.
"""

from coretower import enumerate_partitions, t_core
from oracles import t_core_by_rim_hooks

# Every first counterexample for t = 2..7 lies at n <= 7; the bound only
# keeps a broken core routine from sending the scan into huge n.
SCAN_LIMIT = 20


def enumerated_core_total(n: int, t: int) -> int:
    """Sum of |core_t(lam)| over the partitions lam of n.

    Fails if the abacus and rim-hook totals disagree.
    """
    by_abacus = by_rim_hooks = 0
    for lam in enumerate_partitions(n):
        by_abacus += t_core(lam, t).size
        by_rim_hooks += t_core_by_rim_hooks(lam, t).size
    assert by_abacus == by_rim_hooks, (
        f"t={t}, n={n}: abacus total {by_abacus}, rim-hook total {by_rim_hooks}"
    )
    return by_abacus


def first_nonvanishing_multiple(t: int) -> tuple[int, int] | None:
    """First multiple n <= SCAN_LIMIT of t whose enumerated total is
    nonzero mod t**2, as (n, residue); None if every such total vanishes."""
    for n in range(0, SCAN_LIMIT + 1, t):
        residue = enumerated_core_total(n, t) % (t * t)
        if residue:
            return n, residue
    return None
