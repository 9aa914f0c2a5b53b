from collections import Counter

import pytest
from hypothesis import given, settings

from coretower import (
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

    def test_pre_tower_rejects_negative_j(self):
        with pytest.raises(ValueError):
            pre_tower_row(WORKED, 2, -1)

    @given(partitions(max_part=6, max_len=6), moduli())
    def test_sparse_row_sizes_match_materialised_tower(self, lam, t):
        assert tower_row_sizes(lam, t) == core_tower(lam, t).row_sizes

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

    def test_row_guard_boundary(self):
        assert len(pre_tower_row(EMPTY, 2, 20)) == 1 << 20
        for j in (21, 10**9):  # 2**(10**9) is never built
            with pytest.raises(ValueError, match="too many entries"):
                pre_tower_row(EMPTY, 2, j)


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
