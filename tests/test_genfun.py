import random
from itertools import count
from math import isqrt

import pytest

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
)
from coretower import genfun
from coretower.series import IntSeries, mul, mul_nonnegative, partition_series
from coretower.tower import _word
from core_totals import first_nonvanishing_multiple
from oracles import regular_partition_counts_brute

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


class TestCensusDefectCheck:
    """The census checks each distinct tuple of row sizes once, and names a
    partition of n when the check fails."""

    def test_impossible_row_sizes_name_a_partition_of_n(self, monkeypatch):
        # Only (3, 2, 1) gets row sizes summing past n, a negative defect,
        # so it is the one named, not (6), the first partition enumerated.
        n, t = 6, 2
        real, bad = genfun._row_sizes, _word((3, 2, 1))

        def fake(word, size, t, memo):
            return (size + 1,) if word == bad else real(word, size, t, memo)

        monkeypatch.setattr(genfun, "_row_sizes", fake)
        with pytest.raises(ArithmeticError, match=r"defect of Partition\(\[3, 2, 1\]\)"):
            genfun._census.__wrapped__(t, n)


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

    def test_packed_product_is_the_convolution(self):
        rng = random.Random(5)
        regular = list(regular_partition_series(2, 300).coeffs)
        weights = [m * partition_count(m // 2) if m and m % 2 == 0 else 0 for m in range(301)]
        cases = [
            (weights, regular),
            ([0] * 40, [3] * 40),
            ([0] * 40, [300] * 40),
            ([300] * 40, [0] * 40),
            ([7], [9]),
            (
                [rng.choice((0, 1, 2**200 + 1)) for _ in range(60)],
                [rng.randrange(2**90) for _ in range(60)],
            ),
        ]
        for a, b in cases:
            a, b = IntSeries(tuple(a)), IntSeries(tuple(b))
            assert mul_nonnegative(a, b) == mul(a, b)

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


class TestVerificationReport:
    def test_status_must_match_mismatch(self):
        with pytest.raises(ValueError):
            VerificationReport("x", 2, None, 10, "pass", (3, 1, 2))
        with pytest.raises(ValueError):
            VerificationReport("x", 2, None, 10, "fail", None)
        with pytest.raises(ValueError):
            VerificationReport("x", 2, None, 10, "maybe", None)

    def test_describe_lines(self):
        good = VerificationReport("demo", 2, 1, 30, "pass", None)
        bad = VerificationReport("demo", 2, None, 30, "fail", (6, 2, 0))
        assert good.describe() == "demo t=2 j=1 order=30: PASS"
        assert bad.describe() == "demo t=2 order=30: FAIL at n=6: got 2, expected 0"

    def test_json_uses_decimal_strings(self):
        report = VerificationReport("demo", 2, None, 30, "fail", (6, 10**30, 0))
        payload = report.to_json_dict()
        assert payload["first_mismatch"]["closed_value"] == str(10**30)
        assert payload["status"] == "fail"

    def test_compare_series_requires_equal_orders(self):
        with pytest.raises(ValueError):
            compare_series("x", IntSeries((1, 2)), IntSeries((1, 2, 3)))
