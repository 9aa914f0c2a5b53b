import operator
import random
import tracemalloc
from collections import Counter
from functools import cache, partial
from itertools import count
from math import isqrt

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from coretower import (
    EMPTY,
    VerificationReport,
    check_congruence,
    check_recursion,
    compare_series,
    core_size_totals,
    core_tower,
    defect_series,
    defect_series_brute,
    enumerate_partitions,
    generalized_core_series,
    generalized_core_series_brute,
    hook_lengths,
    monotonicity_check,
    partition_count,
    pre_tower_row,
    regular_partition_series,
    row_weight_series,
    row_weight_series_brute,
    telescoped_row_weight_check,
    tower_row_sizes,
)
from coretower import genfun, partitions, tower
from coretower.series import (
    IntSeries,
    OrderMismatchError,
    div,
    divisor_sum_series,
    euler_product,
    mul,
    partition_series,
)
from coretower.tower import _word
import dense_tower
from core_totals import first_nonvanishing_multiple
from oracles import mul_dense, regular_partition_counts_brute

# Values frozen from the brute-force enumerators; the closed forms must
# reproduce them exactly.
ROW_WEIGHTS_0_2 = (0, 1, 0, 5, 0, 11, 6, 25, 12, 50, 40)
ROW_WEIGHTS_1_2 = (0, 0, 2, 2, 2, 4, 14, 16, 18, 30, 54)
ROW_WEIGHTS_0_3 = (0, 1, 4, 0, 11, 17, 12, 33, 59, 54, 114)
ROW_WEIGHTS_2_2 = (0, 0, 0, 0, 4, 4, 8, 12, 16, 24, 36, 48, 84)
DEFECTS_2 = (0, 0, 2, 2, 14, 16, 38, 52, 122, 158, 274)
DEFECTS_3 = (0, 0, 0, 3, 3, 6, 18, 24, 39, 81, 111)
CORES_0_2 = (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0)
CORES_1_2 = (1, 1, 2, 3, 1, 3, 3, 3, 4, 4, 2, 2, 7)
CORES_0_3 = (1, 1, 2, 0, 2, 1, 2, 0, 1, 2, 2, 0, 2)


def _divisors(m):
    small = [d for d in range(1, isqrt(m) + 1) if m % d == 0]
    return set(small) | {m // d for d in small}


class TestRowWeightSeries:
    def test_brute_frozen_values(self):
        assert row_weight_series_brute(0, 2, 10).coeffs == ROW_WEIGHTS_0_2
        assert row_weight_series_brute(1, 2, 10).coeffs == ROW_WEIGHTS_1_2
        assert row_weight_series_brute(0, 3, 10).coeffs == ROW_WEIGHTS_0_3
        assert row_weight_series_brute(2, 2, 12).coeffs == ROW_WEIGHTS_2_2

    def test_closed_matches_frozen_values(self):
        assert row_weight_series(0, 2, 10).coeffs == ROW_WEIGHTS_0_2
        assert row_weight_series(1, 2, 10).coeffs == ROW_WEIGHTS_1_2
        assert row_weight_series(0, 3, 10).coeffs == ROW_WEIGHTS_0_3
        assert row_weight_series(2, 2, 12).coeffs == ROW_WEIGHTS_2_2

    def test_constant_coefficient_vanishes(self):
        for t in (2, 3, 7):
            for j in (0, 1, 5):
                assert row_weight_series(j, t, 6)[0] == 0

    def test_coefficient_one_is_one_for_row_zero(self):
        for t in range(2, 8):
            assert row_weight_series(0, t, 4)[1] == 1

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_oracle_equivalence_medium_order(self, j, t):
        report = compare_series(
            "row-weights",
            row_weight_series(j, t, 14),
            row_weight_series_brute(j, t, 14),
            t=t,
            j=j,
        )
        assert report.passed, report.describe()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            row_weight_series(0, 1, 5)
        with pytest.raises(ValueError):
            row_weight_series(-1, 2, 5)

    def test_huge_row_index_gives_zero_series(self):
        assert row_weight_series(10**6, 2, 20).coeffs == (0,) * 21
        assert row_weight_series(10**9, 2, 50).coeffs == (0,) * 51

    def test_order_zero_series(self):
        assert row_weight_series_brute(1, 3, 0).coeffs == (0,)
        assert defect_series_brute(2, 0).coeffs == (0,)
        assert generalized_core_series_brute(0, 2, 0).coeffs == (1,)


class TestDefectSeries:
    def test_frozen_values(self):
        assert defect_series_brute(2, 10).coeffs == DEFECTS_2
        assert defect_series(2, 10).coeffs == DEFECTS_2
        assert defect_series_brute(3, 10).coeffs == DEFECTS_3
        assert defect_series(3, 10).coeffs == DEFECTS_3

    def test_sizes_zero_and_one_are_always_cores(self):
        for t in (2, 3, 5, 11):
            f = defect_series(t, 5)
            assert f[0] == 0 and f[1] == 0

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_oracle_equivalence_medium_order(self, t):
        report = compare_series(
            "defects", defect_series(t, 14), defect_series_brute(t, 14), t=t
        )
        assert report.passed, report.describe()


class TestGeneralizedCoreSeries:
    def test_frozen_values(self):
        assert generalized_core_series_brute(0, 2, 12).coeffs == CORES_0_2
        assert generalized_core_series(0, 2, 12).coeffs == CORES_0_2
        assert generalized_core_series_brute(1, 2, 12).coeffs == CORES_1_2
        assert generalized_core_series(1, 2, 12).coeffs == CORES_1_2
        assert generalized_core_series_brute(0, 3, 12).coeffs == CORES_0_3
        assert generalized_core_series(0, 3, 12).coeffs == CORES_0_3

    def test_two_cores_sit_on_triangular_numbers(self):
        # The 2-cores are the staircases (k, k-1, ..., 1), one of each
        # triangular size.
        order = 2000
        f = generalized_core_series(0, 2, order)
        triangulars = {k * (k + 1) // 2 for k in range(64)}
        for n in range(order + 1):
            assert f[n] == (1 if n in triangulars else 0)

    def test_three_core_counts_follow_divisor_classes(self):
        # Granville-Ono: the number of 3-cores of n is d_1(3n+1) - d_2(3n+1),
        # where d_i(m) counts the divisors of m congruent to i mod 3.
        order = 2000
        f = generalized_core_series(0, 3, order)
        for n in range(order + 1):
            m = 3 * n + 1
            residues = [d % 3 for d in _divisors(m)]
            assert f[n] == residues.count(1) - residues.count(2), n

    def test_constant_coefficient_counts_the_empty_partition(self):
        for j, t in ((0, 2), (1, 3), (2, 2)):
            assert generalized_core_series(j, t, 8)[0] == 1

    def test_level_zero_count_agrees_with_hook_divisibility(self):
        # Independent reading of the same count straight off the diagrams.
        for n in range(13):
            by_hooks = sum(
                1
                for lam in enumerate_partitions(n)
                if all(h % 3 for row in hook_lengths(lam) for h in row)
            )
            assert generalized_core_series_brute(0, 3, 12)[n] == by_hooks

    def test_deep_levels_collapse_to_the_partition_count(self):
        # Once t**(j+1) exceeds the order every partition in range counts.
        f = generalized_core_series(6, 2, 20)
        for n in range(21):
            assert f[n] == partition_count(n)
        assert generalized_core_series(10**9, 2, 50) == partition_series(50)


class TestEnumerationCensus:
    """The three brute-force series share one enumeration pass per (t, n)."""

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    def test_brute_series_are_sums_over_the_dense_tower(self, t):
        # Per-partition statistics from core_tower and pre_tower_row, which
        # do not use the census's row-size kernel or its memo of shared
        # components; j = 3 is past the tower height of most of these
        # partitions.
        order, levels = 16, range(4)
        rows = [[0] * len(levels) for _ in range(order + 1)]
        cores = [[0] * len(levels) for _ in range(order + 1)]
        defects = [0] * (order + 1)
        for n in range(order + 1):
            for lam in enumerate_partitions(n):
                sizes = core_tower(lam, t).row_sizes
                # Rows below an empty pre-tower row are empty too, so the
                # first empty one settles every level.
                first_empty = next(
                    k
                    for k in count(1)
                    if all(p == EMPTY for p in pre_tower_row(lam, t, k))
                )
                for j in levels:
                    rows[n][j] += sizes[j] if j < len(sizes) else 0
                    cores[n][j] += j + 1 >= first_empty
                d, rem = divmod(lam.size - sum(sizes), t - 1)
                assert rem == 0 and d >= 0
                defects[n] += d
        for j in levels:
            assert row_weight_series_brute(j, t, order).coeffs == tuple(r[j] for r in rows)
            assert generalized_core_series_brute(j, t, order).coeffs == tuple(
                c[j] for c in cores
            )
        assert defect_series_brute(t, order).coeffs == tuple(defects)

    @pytest.mark.parametrize("t", [2, 3])
    def test_closed_forms_match_enumeration_past_the_ceiling(self, t):
        # Order 36 is past the CLI's default brute-force ceiling of 30.
        order = 36
        reports = [
            compare_series(
                "row-weights",
                row_weight_series(j, t, order),
                row_weight_series_brute(j, t, order),
                t=t,
                j=j,
            )
            for j in (0, 1)
        ]
        reports.append(
            compare_series(
                "defects", defect_series(t, order), defect_series_brute(t, order), t=t
            )
        )
        reports.append(
            compare_series(
                "generalized-cores",
                generalized_core_series(0, t, order),
                generalized_core_series_brute(0, t, order),
                t=t,
                j=0,
            )
        )
        for report in reports:
            assert report.passed, report.describe()

    def test_largest_modulus_at_the_ceiling(self):
        # No hook of a partition of n exceeds n, so for t > n every partition
        # is a t-core; the census must not walk t = 2**20 runners for each.
        t, order = 1 << 20, 30
        assert row_weight_series_brute(0, t, order).coeffs == tuple(
            n * partition_count(n) for n in range(order + 1)
        )
        assert defect_series_brute(t, order).coeffs == (0,) * (order + 1)

    @staticmethod
    @cache
    def dense_tally(t, n):
        """(row sizes, count) pairs of the partitions of n, sorted, from the
        dense tower oracle."""
        tally = Counter(
            tuple(sum(p.size for p in row) for row in dense_tower.core_tower_rows(lam, t))
            for lam in enumerate_partitions(n)
        )
        return sorted(tally.items())

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6, 7])
    def test_census_tallies_the_dense_row_sizes(self, t):
        sweep = genfun._census(t, 18)
        assert len(sweep) == 19
        for n in range(19):
            assert sorted(sweep[n]) == self.dense_tally(t, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 33])
    def test_census_across_a_step_in_the_digit_width(self, n):
        # A sweep to order n packs each row in n.bit_length() bits (see
        # tower's module docstring): k bits up to order 2**k - 1, one more
        # from 2**k on.  At t = 2 no row to order 32 passes 28, the largest
        # 2-core size, so t = max(2, n) adds rows of n, from the t-cores of
        # n (none at n = 2): all 1s at n = 2**k - 1, the top bit alone at
        # n = 2**k.  Fresh sweeps, so that no longer sweep kept by _census
        # serves these orders in other digits.
        for t in sorted({2, max(2, n)}):
            assert sorted(genfun._sweep(t, n)[n]) == self.dense_tally(t, n)
        if n == 33:
            # n = 31 again, now in 6-bit digits: at t = 31 row 0 is 31,
            # all 1s in 5 bits, for every partition but the 31 hooks.
            for t in (2, 31):
                assert sorted(genfun._sweep(t, 33)[31]) == self.dense_tally(t, 31)

    def test_one_sweep_per_modulus(self, monkeypatch):
        # A lower order is read from the sweep kept for t; a higher one
        # sweeps again and replaces it.  Each order reads as its own sweep.
        swept = []
        sweep = genfun._sweep

        def spying(t, order):
            swept.append((t, order))
            return sweep(t, order)

        monkeypatch.setattr(genfun, "_sweeps", {})
        monkeypatch.setattr(genfun, "_sweep", spying)
        for t in (2, 3, 5):
            assert genfun._census(t, 20) == sweep(t, 20)
            assert genfun._census(t, 14) == sweep(t, 14)
            assert genfun._census(t, 22) == sweep(t, 22)
            assert genfun._census(t, 20) == sweep(t, 20)
            assert genfun._census(t, 0) == ((((0,), 1),),)  # the empty partition
        assert swept == [(t, order) for t in (2, 3, 5) for order in (20, 22)]
        assert {t: len(c) for t, c in genfun._sweeps.items()} == {2: 23, 3: 23, 5: 23}
        with pytest.raises(ValueError, match="order must be nonnegative"):
            genfun._census(2, -1)

    def test_largest_modulus_census_memory(self):
        # Every word of n <= 30 is at most 31 characters, so at t = 2**20
        # each runner holds at most one position: the table keeps the
        # values of "", "0" and "1" only.
        tracemalloc.start()
        try:
            genfun._sweep(1 << 20, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestFamilyTable:
    """Each FAMILIES entry against its enumeration source, genfun.enumerated:
    a family added to the table is tested by its entry."""

    @pytest.mark.parametrize("t", range(2, 8))
    @pytest.mark.parametrize("family", list(genfun.FAMILIES))
    def test_closed_form_matches_enumeration(self, family, t):
        closed, _, takes_j = genfun.FAMILIES[family]
        for j in (0, 1, 2) if takes_j else (None,):
            report = compare_series(
                family, closed(j, t, 30), genfun.enumerated(family, j, t, 30), t=t, j=j
            )
            assert report.passed, report.describe()

    @pytest.mark.parametrize("family", list(genfun.FAMILIES))
    def test_both_sources_refuse_a_float_argument(self, family):
        # As (j, t, order); j counts only for a family that takes it.
        closed, _, takes_j = genfun.FAMILIES[family]
        args = (1, 3, 10)
        for i in range(0 if takes_j else 1, 3):
            bad = args[:i] + (float(args[i]),) + args[i + 1 :]
            for source in (closed, partial(genfun.enumerated, family)):
                with pytest.raises(TypeError):
                    source(*bad)

    def test_the_brute_aliases_refuse_floats(self):
        with pytest.raises(TypeError):
            generalized_core_series_brute(0.0, 2, 5)
        with pytest.raises(TypeError):
            defect_series_brute(2, 5.0)
        with pytest.raises(TypeError):
            row_weight_series_brute(0, 2.0, 5)


class TestWordStore:
    """Every sweep reads the words of n from one store, which builds each n
    once for the life of the process from the stored words below it, one
    string per (n, largest part) group."""

    @staticmethod
    def spy(monkeypatch):
        """Each n whose entry the store builds, in order, from an empty store."""
        built = []

        class Recording(list):
            def append(self, groups):
                built.append(len(self))
                super().append(groups)

        monkeypatch.setattr(genfun, "_store", Recording())
        monkeypatch.setattr(genfun, "_sweeps", {})
        return built

    def test_each_n_is_walked_once(self, monkeypatch):
        # Later sweeps keep the very entries built, and build none again.
        built = self.spy(monkeypatch)
        genfun._census(2, 30)
        kept = list(genfun._store)
        for t in (2, 3, 4, 5):
            genfun._census(t, 30)
        assert genfun._store == kept and all(map(operator.is_, genfun._store, kept))
        assert built == list(range(31))
        genfun._census(2, 34)
        assert all(map(operator.is_, genfun._store[:31], kept))
        assert built == list(range(35))

    def test_each_group_is_one_string_in_enumeration_order(self, monkeypatch):
        self.spy(monkeypatch)
        for n in range(41):  # from a cold store to 30, then on to 40
            stream = list(enumerate_partitions(n))
            words = [_word(lam.parts) for lam in stream]
            assert [w for group in genfun._stored(n) for w in group] == words
            # Group b holds the words of largest part b, each followed by
            # a space; the empty partition's largest part is 0.
            groups = [""] * (n + 1)
            for lam, word in zip(stream, words):
                groups[lam.parts[0] if lam else 0] += word + " "
            assert genfun._store[n] == tuple(groups)

    def test_cold_and_warm_stores_sweep_alike(self, monkeypatch):
        order = 22
        self.spy(monkeypatch)
        for t in range(2, 8):
            genfun._store.clear()
            cold = genfun._sweep(t, order)
            assert genfun._sweep(t, order) == cold
            for n in range(order + 1):
                assert sorted(cold[n]) == TestEnumerationCensus.dense_tally(t, n)

    def test_largest_modulus_census_memory_from_a_cold_store(self, monkeypatch):
        # The store of n <= 30, 535,377 characters with the spaces, is made
        # inside the traced sweep; as one string per word it would pass the
        # bound.
        self.spy(monkeypatch)
        tracemalloc.start()
        try:
            genfun._sweep(1 << 20, 30)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(len(g) for groups in genfun._store for g in groups) > 500_000
        assert peak < 1 << 20

    def test_sweep_memory_at_order_forty_from_a_warm_store(self, monkeypatch):
        # A sweep splits one whole group at a time, so its transient memory
        # grows with the largest group: 638 words at n = 30, 3590 at
        # n = 40, the highest order CI enumerates.  It peaks near 0.64 MB.
        self.spy(monkeypatch)
        genfun._stored(40)
        tracemalloc.start()
        try:
            genfun._sweep(5, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestCensusDefectCheck:
    """The census checks each distinct tuple of row sizes once, and names a
    partition of n when the check fails."""

    def test_impossible_row_sizes_name_a_partition_of_n(self, monkeypatch):
        # A fault in the table adds one to the core digit of each word with
        # runner "111" at t = 2.  In a sweep to order 6 only (3, 2, 1), a
        # 2-core of 6 with runners "000" and "111", then sums past n, a
        # negative defect; the others with that runner have a defect of at
        # least 1.  So (3, 2, 1) is the one named, not (6), the first
        # partition enumerated.
        t, order = 2, 6
        assert _word((3, 2, 1))[1::t] == "111"

        class Fake(genfun._RowSizes):
            def __missing__(self, key):
                self[key] = value = super().__missing__(key) + (key == "111")
                return value

        monkeypatch.setattr(genfun, "_RowSizes", Fake)
        with pytest.raises(ArithmeticError, match=r"defect of Partition\(\[3, 2, 1\]\)"):
            genfun._sweep(t, order)


class TestRowSizesTable:
    """The census table keys each runner as sliced, and computes the share
    of each distinct component once."""

    @staticmethod
    def spy(monkeypatch):
        """The tables the census builds, and each word they decode."""
        tables, decoded = [], []

        class Spying(genfun._RowSizes):
            def __init__(self, t, n):
                super().__init__(t, n)
                tables.append(self)

        def decoding(word):
            decoded.append(word)
            return tower._decode(word)

        monkeypatch.setattr(genfun, "_RowSizes", Spying)
        monkeypatch.setattr(genfun, "_decode", decoding)
        return tables, decoded

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_each_component_is_computed_once_per_table(self, monkeypatch, t):
        tables, decoded = self.spy(monkeypatch)
        for order in (20, 30):
            sweep = genfun._sweep(t, order)
            table = tables.pop()
            assert len(decoded) == len(set(decoded))
            assert set(decoded) == {key.lstrip("1").rstrip("0") for key in table}
            if (t, order) == (2, 30):
                assert (len(table), len(decoded)) == (2207, 684)
            decoded.clear()
            for n in range(19):  # as in test_census_tallies_the_dense_row_sizes
                assert sorted(sweep[n]) == TestEnumerationCensus.dense_tally(t, n)

    @pytest.mark.parametrize("t", [2, 3])
    def test_padded_runners_share_their_components_value(self, t):
        # The value of a component word c is its share of its parent's packed
        # rows, (rows << bits) - t * |c|, with rows its own tower row sizes;
        # "1"*a + c + "0"*b strips to c, so it gets the same value whichever
        # of the two the table meets first.
        n = 9
        bits = n.bit_length()
        for k in range(n + 1):
            for lam in enumerate_partitions(k):
                c = _word(lam.parts)
                rows = sum(s << bits * j for j, s in enumerate(tower_row_sizes(lam, t)))
                want = (rows << bits) - t * k
                for a, b in [(0, 0), (1, 0), (0, 2), (3, 1)]:
                    padded = "1" * a + c + "0" * b
                    first, second = genfun._RowSizes(t, n), genfun._RowSizes(t, n)
                    assert (first[padded], first[c]) == (want, want)
                    assert (second[c], second[padded]) == (want, want)


class TestCoreSizeTotals:
    def test_head_values(self):
        assert core_size_totals(2, 8) == [0, 1, 0, 5, 0, 11, 6, 25, 12]

    def test_matches_row_zero_series(self):
        assert core_size_totals(3, 20) == list(row_weight_series(0, 3, 20).coeffs)


class TestCongruence:
    def test_np_claim_passes(self):
        for t in range(2, 8):
            report = check_congruence(t, 100, claim="np")
            assert report.passed, report.describe()

    def test_hand_witness_at_n_three(self):
        totals = core_size_totals(2, 3)
        assert totals[3] == 5
        assert totals[3] % 4 == (3 * partition_count(3)) % 4 == 1

    def test_multiples_claim_fails_with_known_counterexamples(self):
        # The claim that the totals vanish mod t**2 at multiples of t is
        # false; these are the first counterexamples, each confirmed below
        # by enumeration.
        first_failures = {
            2: (6, 2, 0),
            3: (6, 3, 0),
            4: (4, 4, 0),
            5: (5, 10, 0),
            6: (6, 30, 0),
            7: (7, 7, 0),
        }
        for t, expected in first_failures.items():
            assert first_nonvanishing_multiple(t) == expected[:2]
            report = check_congruence(t, 60, claim="multiples")
            assert not report.passed
            assert report.first_mismatch == expected

    def test_combined_claim_reports_the_earliest_failure(self):
        report = check_congruence(4, 60, claim="both")
        assert report.first_mismatch == (4, 4, 0)

    def test_rejects_unknown_claim(self):
        with pytest.raises(ValueError):
            check_congruence(2, 10, claim="everything")


class TestRecursion:
    @pytest.mark.parametrize("t", range(2, 8))
    def test_passes_to_order_sixty(self, t):
        report = check_recursion(t, 60)
        assert report.passed, report.describe()

    def test_hand_witness_at_n_three(self):
        # total(3) = 3 p(3) - 2 * (2 p(1) * regular(1)) = 9 - 4 = 5.
        regular = regular_partition_series(2, 3)
        assert regular[1] == 1
        assert core_size_totals(2, 3)[3] == 3 * partition_count(3) - 2 * (2 * 1 * 1)

    def test_zero_order(self):
        assert check_recursion(5, 0).passed

    @pytest.mark.parametrize("t", [2, 17, 18, 20, 24])
    def test_orders_around_the_modulus(self, t):
        # Below t every weight of the convolution is zero; from t = 18 on,
        # p(t - 1) >= 256 no longer fits the slot a zero operand implies.
        for order in (0, t - 1, t):
            report = check_recursion(t, order)
            assert report.passed, report.describe()

    @pytest.mark.parametrize("t", range(2, 8))
    def test_passes_to_order_three_thousand(self, t):
        report = check_recursion(t, 3000)
        assert report.passed, report.describe()

    def test_packed_product_is_the_convolution(self):
        rng = random.Random(5)
        regular = list(regular_partition_series(2, 300).coeffs)
        weights = [m * partition_count(m // 2) if m and m % 2 == 0 else 0 for m in range(301)]
        top = 2**200
        # 3**10000 has 4772 decimal digits, past the default limit of
        # sys.get_int_max_str_digits() (4300) on str() of one int.
        huge = 3**10000
        cases = [
            (weights, regular),
            ([0] * 40, [3] * 40),
            ([0] * 40, [300] * 40),
            ([0] * 40, [-300] * 40),
            ([300] * 40, [0] * 40),
            ([0] * 40, [0] * 40),
            ([7], [9]),
            ([-7], [9]),
            ([0], [-top]),
            (
                [rng.choice((0, 1, 2**200 + 1)) for _ in range(60)],
                [rng.randrange(2**90) for _ in range(60)],
            ),
            (
                [rng.choice((0, 1, -1, top, -top)) for _ in range(60)],
                [rng.randrange(-top, top + 1) for _ in range(60)],
            ),
            ([top] * 30, [-top] * 30),
            (
                [huge] + [rng.randrange(-9, 10) for _ in range(20)],
                [rng.randrange(-top, top + 1) for _ in range(20)] + [-huge],
            ),
        ]
        for a, b in cases:
            a, b = IntSeries(tuple(a)), IntSeries(tuple(b))
            assert mul(a, b) == mul_dense(a, b)

    @pytest.mark.parametrize("t", range(2, 8))
    def test_correction_is_one_product_over_eta(self, monkeypatch, t):
        # The correction's numerator is the weights k*t*p(k) times (q;q)_inf,
        # one product at order order // t spread onto q**t; over (q;q)_inf it is
        # the dense convolution of the weights on q**t with the regular series.
        products = []

        def spying(a, b):
            products.append(c := mul(a, b))
            return c

        monkeypatch.setattr(genfun, "mul", spying)
        for order in sorted({0, 1, t - 2, t - 1, t, 2 * t + 1, 97}):
            genfun._recursion_correction.cache_clear()
            products.clear()
            assert check_recursion(t, order).passed
            assert [c.truncation_order for c in products] == [order // t]
            weights = IntSeries(
                tuple(0 if m % t else m * partition_count(m // t) for m in range(order + 1))
            )
            dense = mul_dense(weights, regular_partition_series(t, order))
            assert genfun._recursion_correction(t, order) == dense

    @pytest.mark.parametrize("t, k", [(2, 0), (2, 7), (3, 11), (5, 4), (7, 12)])
    def test_reports_a_planted_correction_error(self, monkeypatch, t, k):
        # One more at coefficient k of W (q;q)_inf is one more at t*k of the
        # correction, and nothing below it: the recursion's value drops by t.
        order = 90

        def planted(a, b):
            c = list(mul(a, b).coeffs)
            c[k] += 1
            return IntSeries(tuple(c))

        n = t * k
        total = core_size_totals(t, order)[n]
        want = n * partition_count(n) - t * (genfun._recursion_correction(t, n)[n] + 1)
        genfun._recursion_correction.cache_clear()
        monkeypatch.setattr(genfun, "mul", planted)
        try:
            report = check_recursion(t, order)
        finally:
            genfun._recursion_correction.cache_clear()
        assert report.first_mismatch == (n, total, want) == (n, total, total - t)

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_weights_times_eta_are_t_times_the_divisor_sums(self, t):
        # Euler: q P'(q) / P(q) = sum sigma(n) q**n with P = 1/(q;q)_inf, so
        # the correction's numerator is t*sigma on q**t; this ties the sieve
        # to the pentagonal p(n) table far past the brute-force ceiling.
        order = 5000
        p = partitions.partition_counts(order)
        weights = IntSeries(tuple(t * k * c for k, c in enumerate(p)))
        assert mul(weights, euler_product(order)) == t * divisor_sum_series(order)

    def test_reports_a_planted_mismatch(self, monkeypatch):
        totals = core_size_totals(3, 90)
        planted = totals[:57] + [totals[57] + 1] + totals[58:]
        monkeypatch.setattr(genfun, "core_size_totals", lambda t, order: planted)
        report = check_recursion(3, 90)
        assert report.first_mismatch == (57, totals[57] + 1, totals[57])


class TestMonotonicity:
    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_passes_to_order_two_hundred(self, t):
        report = monotonicity_check(t, 200)
        assert report.passed, report.describe()

    def test_boundary_values(self):
        f = defect_series(2, 4)
        assert f[1] == 0 and f[1] <= f[2]

    def test_detects_a_planted_violation(self):
        report = compare_series("planted", IntSeries((0, 1)), IntSeries((0, 2)))
        assert not report.passed and report.first_mismatch == (1, 1, 2)

    @pytest.mark.parametrize(
        "coeffs, line",
        [
            # A negative coefficient is measured against 0, from n = 1 on.
            ((7, -1, 0, 1), "monotonicity t=2 order=3: FAIL at n=1: got -1, expected 0"),
            # A drop is measured against the previous coefficient.
            ((0, 0, 5, 3), "monotonicity t=2 order=3: FAIL at n=3: got 3, expected 5"),
            # A negative coefficient that also drops fails the sign check.
            ((0, 5, -1, 7), "monotonicity t=2 order=3: FAIL at n=2: got -1, expected 0"),
        ],
    )
    def test_reports_a_planted_defect_series(self, monkeypatch, coeffs, line):
        monkeypatch.setattr(genfun, "defect_series", lambda t, order: IntSeries(coeffs))
        report = monotonicity_check(2, 3)
        assert report.describe() == line
        assert report.status == "fail" and not report.passed


class TestTelescoping:
    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_weighted_row_sums_telescope(self, t, j):
        report = telescoped_row_weight_check(t, j, 40)
        assert report.passed, report.describe()

    def test_huge_row_index(self):
        # Rows past t**k > order vanish, so the sum stops there.
        report = telescoped_row_weight_check(2, 10**9, 50)
        assert report.passed, report.describe()


class TestRegularPartitionBrute:
    def test_matches_the_product_form(self):
        for t in (2, 3, 5):
            assert regular_partition_counts_brute(t, 20) == regular_partition_series(
                t, 20
            )


def _cold(fn, *args):
    """fn(*args) as one division of its numerator, with nothing kept."""
    return div(fn.__wrapped__(*args), euler_product(args[-1]))


# Each closed form called as f(j, t, order); D and the regular series ignore j.
CLOSED_FORMS = {
    "T": row_weight_series,
    "D": defect_series,
    "cores": generalized_core_series,
    "regular": regular_partition_series,
}


def _args(name, j, t, order):
    return (t, order) if name in ("D", "regular") else (j, t, order)


class TestClosedFormCaches:
    GRID = [(j, t, order) for j in (0, 1, 2) for t in (2, 3, 5) for order in (0, 1, 7, 40)]

    def test_each_cached_form_equals_its_recomputation(self):
        for j, t, order in self.GRID:
            for name, fn in CLOSED_FORMS.items():
                args = _args(name, j, t, order)
                assert fn(*args) == _cold(fn, *args), (name, args)

    @pytest.mark.parametrize("t", range(2, 8))
    @pytest.mark.parametrize("name", list(CLOSED_FORMS))
    @given(
        j=st.integers(0, 3),
        orders=st.lists(st.integers(0, 300), min_size=1, max_size=4),
    )
    @settings(max_examples=12)
    def test_any_sequence_of_orders_reads_as_cold_divisions(self, name, t, j, orders):
        fn = CLOSED_FORMS[name]
        fn.cache_clear()
        for order in orders:
            args = _args(name, j, t, order)
            assert fn(*args) == _cold(fn, *args), (name, args)

    def test_each_coefficient_is_divided_once(self, monkeypatch):
        divided = []
        divide = genfun._divide

        def counting(out, a, b):
            divided.append(len(a) - len(out))
            return divide(out, a, b)

        monkeypatch.setattr(genfun, "_divide", counting)
        for name, fn in CLOSED_FORMS.items():
            fn.cache_clear()
            divided.clear()
            for order in (60, 120, 30, 120):
                args = _args(name, 1, 3, order)
                assert fn(*args) == _cold(fn, *args), (name, args)
            # _cold calls series.div, which does not look up genfun._divide.
            assert sum(divided) == 121, name

    @pytest.mark.parametrize(
        "fn, args",
        [
            (row_weight_series, (0, 1, 5)),
            (row_weight_series, (-1, 2, 5)),
            (row_weight_series, (0, 2, -1)),
            (defect_series, (1, 5)),
            (defect_series, (2, -1)),
        ],
    )
    def test_bad_arguments_are_refused_on_every_call(self, fn, args):
        for _ in range(3):
            with pytest.raises(ValueError):
                fn(*args)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_float_modulus_is_refused_cached_or_not(self, warm):
        row_weight_series.cache_clear()
        if warm:
            row_weight_series(0, 2, 10)
        with pytest.raises(TypeError):
            row_weight_series(0, 2.0, 10)


class TestVerificationReport:
    def test_status_must_match_mismatch(self):
        # status and passed are read off first_mismatch; neither is stored.
        good = VerificationReport("x", 2, None, 10, None)
        bad = VerificationReport("x", 2, None, 10, (3, 1, 2))
        assert (good.status, good.passed) == ("pass", True)
        assert (bad.status, bad.passed) == ("fail", False)
        with pytest.raises(TypeError):
            VerificationReport("x", 2, None, 10, "pass", None)

    def test_describe_lines(self):
        good = VerificationReport("demo", 2, 1, 30, None)
        bad = VerificationReport("demo", 2, None, 30, (6, 2, 0))
        assert good.describe() == "demo t=2 j=1 order=30: PASS"
        assert bad.describe() == "demo t=2 order=30: FAIL at n=6: got 2, expected 0"
        # 3**10000 has 4772 decimal digits, past str()'s default limit.
        huge = VerificationReport("demo", None, None, 1, (1, 3**10000, 0))
        assert huge.describe() == "demo order=1: FAIL at n=1: got <15850-bit int>, expected 0"

    def test_json_uses_decimal_strings(self):
        report = VerificationReport("demo", 2, None, 30, (6, 10**30, 0))
        payload = report.to_json_dict()
        assert payload["first_mismatch"]["closed_value"] == str(10**30)
        assert payload["status"] == "fail"

    def test_compare_series_requires_equal_orders(self):
        with pytest.raises(ValueError):
            compare_series("x", IntSeries((1, 2)), IntSeries((1, 2, 3)))
        with pytest.raises(OrderMismatchError):
            compare_series("x", IntSeries((1, 2)), IntSeries((1, 2, 3)))
        with pytest.raises(TypeError):
            compare_series("x", IntSeries((1, 2)), (1, 2))
