import random
import sys
import tracemalloc
from itertools import chain, islice
from collections import Counter

import pytest
from hypothesis import given, settings

from coretower import (
    CoreTower,
    EMPTY,
    Partition,
    core_tower,
    defect,
    enumerate_partitions,
    hook_lengths,
    is_generalized_core,
    is_t_core,
    pre_tower_row,
    reconstruct,
    row_size,
    t_core,
    t_quotient,
    tower_row_sizes,
)
import dense_tower
from coretower import tower
from oracles import removable_rim_hooks, t_core_by_rim_hooks
from strategies import moduli, partitions

WORKED = Partition((5, 4, 2, 2, 1))


def multiset(parts_seq):
    return Counter(p.parts for p in parts_seq)


class TestCore:
    def test_worked_example(self):
        assert t_core(WORKED, 2) == Partition((3, 2, 1))

    def test_empty(self):
        assert t_core(EMPTY, 3) == EMPTY

    def test_single_row(self):
        assert t_core(Partition((3,)), 2) == Partition((1,))

    def test_rejects_small_modulus(self):
        with pytest.raises(ValueError):
            t_core(WORKED, 1)

    @given(partitions(), moduli())
    def test_core_has_no_hook_divisible_by_t(self, lam, t):
        core = t_core(lam, t)
        assert all(h % t for row in hook_lengths(core) for h in row)
        assert is_t_core(core, t)

    def test_matches_rim_hook_deletion_exhaustively(self):
        for t in (2, 3, 4, 5):
            for n in range(15):
                for lam in enumerate_partitions(n):
                    assert t_core_by_rim_hooks(lam, t) == t_core(lam, t)


class TestRimHooks:
    def test_two_ways_to_remove_a_domino_from_square(self):
        results = multiset(r for _, _, r in removable_rim_hooks(Partition((2, 2)), 2))
        assert results == Counter({(1, 1): 1, (2,): 1})

    def test_staircase_has_no_even_hooks(self):
        assert removable_rim_hooks(Partition((3, 2, 1)), 2) == []

    @given(partitions(), moduli())
    def test_each_removal_drops_exactly_t_cells(self, lam, t):
        for _, _, smaller in removable_rim_hooks(lam, t):
            assert smaller.size == lam.size - t


class TestQuotient:
    def test_worked_example_as_multiset(self):
        assert multiset(t_quotient(WORKED, 2)) == Counter({(1, 1): 1, (2,): 1})

    def test_worked_example_component_order_under_our_convention(self):
        # Bead count normalised to a multiple of t; residue r feeds component r.
        assert t_quotient(WORKED, 2) == (Partition((1, 1)), Partition((2,)))

    def test_empty(self):
        assert t_quotient(EMPTY, 4) == (EMPTY,) * 4

    @given(partitions(max_part=6, max_len=6), moduli())
    def test_core_quotient_size_identity(self, lam, t):
        core = t_core(lam, t)
        quo = t_quotient(lam, t)
        assert len(quo) == t
        assert lam.size == core.size + t * sum(c.size for c in quo)

    @given(partitions(max_part=6, max_len=6), moduli())
    def test_quotient_of_a_core_is_all_empty(self, lam, t):
        core = t_core(lam, t)
        assert t_quotient(core, t) == (EMPTY,) * t

    def test_decoded_cores_and_quotients_revalidate(self):
        # Decoding skips Partition's checks; the validating constructor
        # must accept every decoded result unchanged.
        for t in (2, 3, 4):
            for n in range(15):
                for lam in enumerate_partitions(n):
                    for x in (t_core(lam, t), *t_quotient(lam, t)):
                        assert Partition(x.parts) == x


class TestReconstruct:
    def test_worked_example_round_trip(self):
        rebuilt = reconstruct(Partition((3, 2, 1)), (Partition((1, 1)), Partition((2,))), 2)
        assert rebuilt == WORKED

    def test_empty(self):
        assert reconstruct(EMPTY, (EMPTY, EMPTY, EMPTY), 3) == EMPTY

    def test_rejects_non_core(self):
        with pytest.raises(ValueError, match="not a 2-core"):
            reconstruct(Partition((2,)), (EMPTY, EMPTY), 2)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="exactly 3 components"):
            reconstruct(EMPTY, (EMPTY, EMPTY), 3)

    def test_round_trip_exhaustive_small(self):
        for t in range(2, 8):
            for n in range(11):
                for lam in enumerate_partitions(n):
                    assert reconstruct(t_core(lam, t), t_quotient(lam, t), t) == lam

    @given(partitions(), moduli())
    def test_round_trip_random(self, lam, t):
        assert reconstruct(t_core(lam, t), t_quotient(lam, t), t) == lam

    @given(partitions(max_part=4, max_len=4), moduli(2, 3))
    def test_reconstruct_inverts_in_the_other_direction_too(self, small, t):
        # Use the small random partition as one quotient component.
        quotient = (small,) + (EMPTY,) * (t - 1)
        lam = reconstruct(EMPTY, quotient, t)
        assert t_core(lam, t) == EMPTY
        assert t_quotient(lam, t) == quotient


class TestTower:
    def test_worked_example_rows(self):
        tower = core_tower(WORKED, 2)
        assert tower.rows[0] == (Partition((3, 2, 1)),)
        assert tower.rows[1] == (EMPTY, EMPTY)
        assert multiset(tower.rows[2]) == Counter({(1,): 2, (): 2})
        assert tower.height == 2
        assert tower.row_sizes == (6, 0, 2)

    def test_row_lengths_are_powers_of_t(self):
        tower = core_tower(WORKED, 2)
        assert [len(row) for row in tower.rows] == [1, 2, 4]

    def test_empty_partition_tower(self):
        tower = core_tower(EMPTY, 5)
        assert tower.rows == ((EMPTY,),)
        assert tower.height == 0

    def test_pre_tower_rows(self):
        assert pre_tower_row(WORKED, 2, 0) == (WORKED,)
        assert multiset(pre_tower_row(WORKED, 2, 1)) == Counter({(1, 1): 1, (2,): 1})
        assert multiset(pre_tower_row(WORKED, 2, 2)) == Counter({(1,): 2, (): 2})
        assert pre_tower_row(WORKED, 2, 5) == (EMPTY,) * 32

    def test_pre_tower_row_materialisation_guard(self):
        with pytest.raises(ValueError, match="too many entries"):
            pre_tower_row(EMPTY, 2, 40)

    def test_row_index_past_the_largest_machine_int(self, monkeypatch):
        # islice takes no index past sys.maxsize; the tower walk takes any,
        # and pre_tower_row refuses such a row before it walks.
        rows = (sys.maxsize, sys.maxsize + 1, 10**30)
        for j in rows:
            assert row_size(WORKED, 2, j) == 0
            assert is_generalized_core(WORKED, j, 2)
            assert is_generalized_core(EMPTY, j, 3)
        walked = []
        monkeypatch.setattr(tower, "_levels", lambda *args: walked.append(args))
        for j in rows:
            with pytest.raises(ValueError, match="too many entries"):
                pre_tower_row(WORKED, 2, j)
        assert walked == []

    def test_pre_tower_rejects_negative_j(self):
        with pytest.raises(ValueError):
            pre_tower_row(WORKED, 2, -1)

    @given(partitions(max_part=6, max_len=6), moduli())
    def test_sparse_row_sizes_match_materialised_tower(self, lam, t):
        assert tower_row_sizes(lam, t) == core_tower(lam, t).row_sizes

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_sparse_row_sizes_match_on_deep_towers(self, t):
        # n near 10**4: the recursion runs up to nine levels deep, and the
        # quotient of t equal components repeats one sub-tower t times in a
        # single call.
        rng = random.Random(t)

        def scattered(count, top):
            parts = sorted((rng.randint(1, top) for _ in range(count)), reverse=True)
            return Partition(tuple(parts))

        staircase = Partition(tuple(range(140, 0, -1)))
        repeated = reconstruct(EMPTY, (scattered(100 // t, 200 // t),) * t, t)
        for lam in (staircase, scattered(100, 200), repeated):
            assert 5000 < lam.size < 15000
            assert tower_row_sizes(lam, t) == core_tower(lam, t).row_sizes

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_row_sizes_exact_when_a_row_fills_its_digit(self, k):
        # At n = 2**k - 1 and 2**k, where the census packs a row of n as
        # all 1s of its digit or as its top bit alone (see test_genfun's
        # digit-width test), the walk's sums are checked against the
        # dense tower.
        for n in (2**k - 1, 2**k):
            assert tower_row_sizes(Partition((n,)), n + 1) == (n,)
            for a in range(1, n + 1):
                hook = Partition((a,) + (1,) * (n - a))
                for t in (2, 3, n + 1):
                    rows = dense_tower.core_tower_rows(hook, t)
                    sizes = tuple(sum(p.size for p in row) for row in rows)
                    assert tower_row_sizes(hook, t) == sizes

    def test_row_size_examples(self):
        assert row_size(WORKED, 2, 0) == 6
        assert row_size(WORKED, 2, 1) == 0
        assert row_size(WORKED, 2, 2) == 2
        assert row_size(WORKED, 2, 3) == 0
        assert row_size(EMPTY, 3, 7) == 0
        assert 6 + 2 * 0 + 4 * 2 == WORKED.size

    def test_row_sizes_sum_over_partitions_of_three(self):
        assert sum(row_size(lam, 2, 0) for lam in enumerate_partitions(3)) == 5

    def test_tower_identity_small_exhaustive(self):
        for t in (2, 3):
            for n in range(11):
                for lam in enumerate_partitions(n):
                    for j in range(4):
                        head = sum(t**k * row_size(lam, t, k) for k in range(j + 1))
                        tail = sum(p.size for p in pre_tower_row(lam, t, j + 1))
                        assert lam.size == head + t ** (j + 1) * tail


class TestSparseWalk:
    """The sparse bead walk against the dense oracle in dense_tower."""

    @staticmethod
    def check(lam, t):
        assert (t_core(lam, t), t_quotient(lam, t)) == dense_tower.split(lam, t)
        rows = dense_tower.core_tower_rows(lam, t)
        assert core_tower(lam, t).rows == rows
        # One row past the height is the first all-empty pre-tower row.
        for j, row in zip(range(len(rows) + 1), dense_tower.pre_tower_rows(lam, t)):
            assert pre_tower_row(lam, t, j) == row

    @given(partitions(max_part=12, max_len=12), moduli(2, 10))
    @settings(max_examples=200)
    def test_matches_the_dense_walk(self, lam, t):
        self.check(lam, t)

    @given(partitions(max_part=40, max_len=40), moduli(2, 4))
    @settings(max_examples=40)
    def test_matches_the_dense_walk_on_taller_towers(self, lam, t):
        self.check(lam, t)

    @pytest.mark.parametrize("t", range(2, 11))
    def test_empty_partition(self, t):
        self.check(EMPTY, t)

    def test_modulus_above_the_size(self):
        # t > |lam|: lam has fewer parts than t and its top bead is below
        # t, so each bead is alone on its runner and lam is its own t-core.
        for n in range(7):
            for lam in enumerate_partitions(n):
                for t in range(max(2, n + 1), n + 4):
                    self.check(lam, t)

    def test_largest_modulus_on_a_small_partition(self):
        # Each runner holds at most one position: lam is its own t-core,
        # and every quotient component is empty.
        lam, t = Partition((5, 3)), 1 << 20
        assert t_core(lam, t) == lam and is_t_core(lam, t)
        assert t_quotient(lam, t) == (EMPTY,) * t
        assert core_tower(lam, t).rows == ((lam,),)
        assert pre_tower_row(lam, t, 1) == (EMPTY,) * t

    def test_largest_modulus_on_a_long_word_no_longer_than_t(self):
        # A 1,016,000-character word, split from its 16,000 beads since
        # they are fewer than t: each is alone on its runner, so lam is its
        # own core and every component is empty.  One dense split, which
        # pads to 2**20 beads, settles all three.
        lam, t = Partition((1000000,) + tuple(range(15999, 0, -1))), 1 << 20
        core, quotient = dense_tower.split(lam, t)
        assert (core, quotient) == (lam, (EMPTY,) * t)
        assert t_core(lam, t) == core
        assert t_quotient(lam, t) == quotient
        assert core_tower(lam, t).rows == ((core,),)

    @staticmethod
    def check_sparse(lam, t):
        # Rows as {index: partition} of their nonempty entries, from
        # dense_tower.split on each nonempty entry of the row above.
        def nonempty(row):
            return {i: p for i, p in enumerate(row) if p}

        assert (t_core(lam, t), t_quotient(lam, t)) == dense_tower.split(lam, t)
        level, rows = ({0: lam} if lam else {}), []
        while level:
            assert nonempty(pre_tower_row(lam, t, len(rows))) == level
            splits = {i: dense_tower.split(p, t) for i, p in level.items()}
            rows.append({i: core for i, (core, _) in splits.items() if core})
            level = {
                t * i + r: q
                for i, (_, qs) in splits.items()
                for r, q in enumerate(qs)
                if q
            }
        tower = core_tower(lam, t)
        assert list(map(nonempty, tower.rows)) == (rows or [{}])
        assert tower.entries == tuple(
            tuple((i, p.parts) for i, p in sorted(row.items())) for row in rows or [{}]
        )
        assert tower.row_sizes == tower_row_sizes(lam, t)

    @given(partitions(max_part=20000, max_len=6), moduli(2, 4))
    @settings(max_examples=60)
    def test_parts_far_above_the_length(self, lam, t):
        self.check_sparse(lam, t)

    @given(partitions(max_part=3 * 10**5, max_len=3), moduli(101, 600))
    @settings(max_examples=40)
    def test_parts_far_above_a_large_modulus(self, lam, t):
        # |lam| < 101**3, so pre-tower row 3 is empty and no row passes
        # the row guard.
        self.check_sparse(lam, t)

    def test_memory_follows_the_parts_count_not_their_size(self):
        lam = Partition((10**12, 10**9 + 7, 10**6, 1))
        tracemalloc.start()
        try:
            for t in (2, 3, 7):
                assert reconstruct(t_core(lam, t), t_quotient(lam, t), t) == lam
            assert sum(p.size for p in pre_tower_row(lam, 2, 12)) << 12 <= lam.size
            # At t = 2**20 each bead slides to the bottom of its own runner;
            # the components (953674) and (953) are 2**20-cores.  The
            # quotient and the tower have 2**20 entries, so they stay out.
            assert t_core(lam, 2**20) == Partition((999998, 707079, 331778, 1))
            assert tower_row_sizes(lam, 2**20) == (2038856, 953674 + 953)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_words_no_longer_than_t_are_split_as_parts(self, monkeypatch):
        # Each such word, a component here, is its own core; sliced into t
        # runners, it would make more slices than it has characters.
        calls = TestSplitMemo.spy(monkeypatch)
        split_beads = tower._split_beads

        def spying(parts, t):
            calls.append(parts)
            return split_beads(parts, t)

        monkeypatch.setattr(tower, "_split_beads", spying)
        for t in (2, 3, 4):
            calls.clear()
            for n in range(13):
                for lam in enumerate_partitions(n):
                    core_tower(lam, t)
            # Each _split call is logged before the _split_beads call it makes.
            short = [
                (a, after)
                for a, after in zip(calls, calls[1:] + [None])
                if isinstance(a, str) and len(a) <= t
            ]
            assert short and all(after == tower._decode(a) for a, after in short)

    def test_row_guard_boundary(self):
        assert len(pre_tower_row(EMPTY, 2, 20)) == 1 << 20
        for j in (21, 10**9):  # 2**(10**9) is never built
            with pytest.raises(ValueError, match="too many entries"):
                pre_tower_row(EMPTY, 2, j)

    def test_memory_of_a_long_word_at_a_large_modulus(self):
        # Its word would have 72001 characters, more than t, but its 2001
        # parts are fewer than t, so it is split from its bead list and no
        # runner is sliced.  Bead 72000, at height 1 of runner 6464 and
        # alone there, slides down to 6464: the core is (4464, 1, ..., 1)
        # and the quotient the single cell (1), component (6464 - 2001) % t.
        lam, t = Partition((70000,) + (1,) * 2000), 1 << 16
        core = Partition((4464,) + (1,) * 2000)
        tracemalloc.start()
        try:
            assert tower_row_sizes(lam, t) == (6464, 1)
            assert core_tower(lam, t).entries == (((0, core.parts),), ((4463, (1,)),))
            assert t_core(lam, t) == core
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # Likewise 20000 parts at t = 2**20: bead 1119999 slides from
        # height 1 of runner 71423 to its bottom.  Sliced into t runners,
        # its 1,120,000-character word would peak near 83 MiB; its beads
        # take about 6 MiB.
        lam, t = Partition((1100000,) + (1,) * 19999), 1 << 20
        tracemalloc.start()
        try:
            assert t_core(lam, t) == Partition((51424,) + (1,) * 19999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20


class TestSparseTower:
    """CoreTower keeps only the nonempty cores; rows is derived from them."""

    @staticmethod
    def nonempty(rows):
        return tuple(tuple((i, p.parts) for i, p in enumerate(row) if p) for row in rows)

    @given(partitions(max_part=12, max_len=12), moduli(2, 10))
    @settings(max_examples=150)
    def test_entries_are_the_nonempty_cores_in_index_order(self, lam, t):
        rows = dense_tower.core_tower_rows(lam, t)
        ct = core_tower(lam, t)
        assert ct.entries == self.nonempty(rows)
        assert ct.rows == rows
        assert ct.height == len(rows) - 1
        assert ct.row_sizes == tuple(sum(p.size for p in row) for row in rows)

    def test_worked_example_entries(self):
        assert core_tower(WORKED, 2) == CoreTower(
            t=2, entries=(((0, (3, 2, 1)),), (), ((0, (1,)), (3, (1,))))
        )
        assert core_tower(EMPTY, 3).entries == ((),)

    def test_wide_sparse_row(self):
        # Row 1 has 2**20 entries, one of them nonempty: entries keeps one.
        ct = core_tower(Partition((1 << 21,)), 1 << 20)
        assert ct.entries == ((), ((ct.t - 1, (2,)),))
        assert ct.row_sizes == (0, 2)
        assert ct.rows[1] == (EMPTY,) * (ct.t - 1) + (Partition((2,)),)

    def test_row_guard(self):
        # Row 3 would have 1024**3 entries; the walk refuses it.
        with pytest.raises(ValueError, match="too many entries"):
            core_tower(Partition((1 << 30,)), 1024)


class TestSplitMemo:
    """_levels splits each distinct abacus once per walk, and keeps no
    split from one call to the next."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        split = tower._split

        def spying(abacus, t):
            calls.append(abacus)
            return split(abacus, t)

        monkeypatch.setattr(tower, "_split", spying)
        return calls

    @staticmethod
    def repeating(t):
        # Quotient of t equal components, each with t equal components.
        inner = reconstruct(EMPTY, (Partition((4, 2, 2, 1)),) * t, t)
        return reconstruct(Partition((1,)), (inner,) * t, t)

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_core_tower(self, monkeypatch, t):
        lam = self.repeating(t)
        rows = dense_tower.core_tower_rows(lam, t)
        pre_rows = islice(dense_tower.pre_tower_rows(lam, t), len(rows))
        met = sum(map(bool, chain.from_iterable(pre_rows)))  # nonempty entries
        calls = self.spy(monkeypatch)
        assert core_tower(lam, t).rows == rows
        walk = list(calls)
        assert len(walk) == len(set(walk)) < met
        core_tower(lam, t)
        assert calls == walk + walk

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_pre_tower_row(self, monkeypatch, t):
        lam = self.repeating(t)
        row = next(islice(dense_tower.pre_tower_rows(lam, t), 2, None))
        calls = self.spy(monkeypatch)
        assert pre_tower_row(lam, t, 2) == row
        walk = list(calls)
        assert len(walk) == len(set(walk)) < 1 + t + t * t
        pre_tower_row(lam, t, 2)
        assert calls == walk + walk


class TestCoreMemo:
    """_levels builds each distinct core once per walk, keyed by the height
    vector _split gives, and keeps no core from one call to the next."""

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_core_tower(self, monkeypatch, t):
        lam = TestSplitMemo.repeating(t)
        heights, built, cores = [], [], []
        split, core = tower._split, tower._core

        def splitting(abacus, t):
            result = split(abacus, t)
            heights.append(result[0])
            return result

        def building(h, t):
            built.append(h)
            cores.append(core(h, t))
            return cores[-1]

        monkeypatch.setattr(tower, "_split", splitting)
        monkeypatch.setattr(tower, "_core", building)
        ct = core_tower(lam, t)
        assert ct.rows == dense_tower.core_tower_rows(lam, t)
        walk = list(built)
        assert len(walk) == len(set(walk)) == len(set(heights)) < len(heights)
        # Every entry holds one of the built tuples, so equal cores share it.
        entries = [parts for row in ct.entries for _, parts in row]
        shared = {id(parts) for parts in entries}
        assert shared <= set(map(id, cores))
        assert len(shared) == len(set(entries)) < len(entries)
        core_tower(lam, t)
        assert built == walk + walk

    @pytest.mark.parametrize("t", [2, 3, 4, 7])
    def test_charges_fix_the_core(self, t):
        # From a word or a bead list, whatever the bead count: one core,
        # one key, and the key builds that core.
        keys = {}
        for n in range(13):
            for lam in enumerate_partitions(n):
                core = dense_tower.split(lam, t)[0].parts
                for abacus in (tower._word(lam.parts), lam.parts):
                    charges = tower._split(abacus, t)[0]
                    assert keys.setdefault(core, charges) == charges
                    assert tower._core(charges, t) == core

    @pytest.mark.parametrize("parts, t", [((3, 2), 2), ((2, 2), 3), ((4, 3, 1), 3)])
    def test_one_core_from_two_residues(self, monkeypatch, parts, t):
        # Each of these walks meets some core on abacuses whose bead counts
        # lie in two residues mod t; it is still built once.
        lam = Partition(parts)
        met, built = {}, []
        split, core = tower._split, tower._core

        def splitting(abacus, t):
            beads = len(abacus) if isinstance(abacus, tuple) else abacus.count("1")
            result = split(abacus, t)
            met.setdefault(core(result[0], t), set()).add(beads % t)
            return result

        def building(charges, t):
            built.append(core(charges, t))
            return built[-1]

        monkeypatch.setattr(tower, "_split", splitting)
        monkeypatch.setattr(tower, "_core", building)
        assert core_tower(lam, t).rows == dense_tower.core_tower_rows(lam, t)
        assert max(map(len, met.values())) > 1
        assert sorted(built) == sorted(met)


class TestSizeFromCharges:
    """A core's size read off its charges equals the size of the core
    _core builds from them, and the row-size statistics build no core."""

    @pytest.mark.parametrize("t", [2, 3, 5, 7, 11, 23])
    def test_size_matches_the_built_core(self, t):
        # Every partition of n <= 20, split from its word and from its parts;
        # t = 23 exceeds every n.
        for n in range(21):
            for lam in enumerate_partitions(n):
                for abacus in (tower._word(lam.parts), lam.parts):
                    charges = tower._split(abacus, t)[0]
                    assert tower._size(charges, t) == sum(tower._core(charges, t))

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_statistics_build_no_core(self, monkeypatch, t):
        lam = TestSplitMemo.repeating(t)
        rows = dense_tower.core_tower_rows(lam, t)
        sizes = tuple(sum(p.size for p in row) for row in rows)
        built = []
        core = tower._core

        def building(charges, t):
            built.append(charges)
            return core(charges, t)

        monkeypatch.setattr(tower, "_core", building)
        assert tower_row_sizes(lam, t) == sizes
        assert defect(lam, t) == (lam.size - sum(sizes)) // (t - 1)
        assert [row_size(lam, t, j) for j in range(len(rows) + 1)] == [*sizes, 0]
        assert built == []
        assert core_tower(lam, t).row_sizes == sizes and built


class TestDefect:
    def test_worked_example(self):
        assert defect(WORKED, 2) == 6

    def test_cores_have_defect_zero(self):
        for t in (2, 3, 5):
            for n in range(12):
                for lam in enumerate_partitions(n):
                    if is_t_core(lam, t):
                        assert defect(lam, t) == 0

    def test_single_row_of_length_t(self):
        for t in (2, 3, 4, 5, 6):
            assert defect(Partition((t,)), t) == 1

    @given(partitions(), moduli())
    def test_defect_balances_the_size_exactly(self, lam, t):
        d = defect(lam, t)
        assert d >= 0
        assert d * (t - 1) + sum(tower_row_sizes(lam, t)) == lam.size


class TestGeneralizedCores:
    def test_staircase_is_a_two_core(self):
        assert is_generalized_core(Partition((3, 2, 1)), 0, 2)

    def test_empty_is_always_a_generalized_core(self):
        for j in range(4):
            assert is_generalized_core(EMPTY, j, 3)

    def test_worked_example_levels(self):
        assert not is_generalized_core(WORKED, 0, 2)
        assert not is_generalized_core(WORKED, 1, 2)
        assert is_generalized_core(WORKED, 2, 2)
        assert is_generalized_core(WORKED, 3, 2)

    def test_level_zero_agrees_with_the_core_predicate(self):
        for n in range(12):
            for lam in enumerate_partitions(n):
                assert is_generalized_core(lam, 0, 2) == is_t_core(lam, 2)

    @given(partitions(max_part=5, max_len=5), moduli(2, 3))
    @settings(max_examples=60)
    def test_matches_the_pre_tower_definition(self, lam, t):
        for j in range(3):
            expected = all(p == EMPTY for p in pre_tower_row(lam, t, j + 1))
            assert is_generalized_core(lam, j, t) == expected

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            is_generalized_core(WORKED, -1, 2)

    def test_rejects_a_bad_modulus(self):
        for t in (1, (1 << 20) + 1):
            with pytest.raises(ValueError, match="modulus"):
                is_generalized_core(WORKED, 0, t)

    def test_walk_stops_at_row_j_plus_one(self, monkeypatch):
        # A chain of quotients six rows deep, one new partition a row: the
        # walk for j splits the entries of pre-tower rows 0..j+1 and no
        # entry of a row below.
        lam = Partition((1,))
        for _ in range(5):
            lam = reconstruct(Partition((1,)), (lam, EMPTY), 2)
        rows = list(islice(dense_tower.pre_tower_rows(lam, 2), 7))
        assert [sum(map(bool, row)) for row in rows] == [1] * 6 + [0]
        calls = TestSplitMemo.spy(monkeypatch)
        for j in range(7):
            calls.clear()
            assert is_generalized_core(lam, j, 2) == (j >= 5)
            met = {tower._as_parts(a) for a in calls}
            assert met == {p.parts for row in rows[: j + 2] for p in row if p}

    def test_row_size_walk_stops_at_row_j(self, monkeypatch):
        # The chain above: row_size for j splits the entries of pre-tower
        # rows 0..j only, and past the height every row of the tower.
        lam = Partition((1,))
        for _ in range(5):
            lam = reconstruct(Partition((1,)), (lam, EMPTY), 2)
        rows = list(islice(dense_tower.pre_tower_rows(lam, 2), 7))
        sizes = tower_row_sizes(lam, 2)
        calls = TestSplitMemo.spy(monkeypatch)
        for j in range(8):
            calls.clear()
            assert row_size(lam, 2, j) == (sizes[j] if j < len(sizes) else 0)
            met = {tower._as_parts(a) for a in calls}
            assert met == {p.parts for row in rows[: j + 1] for p in row if p}

    def test_row_size_rejects_a_bad_row_or_modulus(self):
        with pytest.raises(ValueError, match="row index"):
            row_size(WORKED, 2, -1)
        for t in (1, (1 << 20) + 1):
            with pytest.raises(ValueError, match="modulus"):
                row_size(WORKED, t, 0)

    @pytest.mark.parametrize(
        "check",
        [
            lambda t, j: row_size(WORKED, t, j),
            lambda t, j: is_generalized_core(WORKED, j, t),
            lambda t, j: pre_tower_row(WORKED, t, j),
        ],
        ids=["row_size", "is_generalized_core", "pre_tower_row"],
    )
    def test_a_bad_modulus_is_named_before_a_bad_row(self, check):
        # As genfun's closed forms do: the modulus is checked first.
        for t in (1, (1 << 20) + 1):
            with pytest.raises(ValueError, match="modulus"):
                check(t, -1)
