import importlib.util
import random
import sys
from collections import Counter

import pytest
from hypothesis import given

from coretower import (
    EMPTY,
    Partition,
    conjugate,
    enumerate_partitions,
    hook_lengths,
    make_partition,
    partition_count,
    partition_series,
)
from coretower import partitions as partitions_module
from coretower.partitions import _words
from coretower.tower import _word
from strategies import partitions


def descending_parts(remaining, largest):
    """Test-only oracle: the recursive reverse-lexicographic enumeration
    that the iterative generator replaced, as tuples of parts."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(remaining, largest), 0, -1):
        for rest in descending_parts(remaining - first, first):
            yield (first, *rest)


class TestMakePartition:
    def test_worked_example(self):
        lam = make_partition([5, 4, 2, 2, 1])
        assert lam.parts == (5, 4, 2, 2, 1)
        assert lam.size == 14

    def test_iterates_over_its_parts(self):
        assert list(make_partition([5, 4, 2, 2, 1])) == [5, 4, 2, 2, 1]
        assert list(EMPTY) == []

    def test_empty(self):
        assert make_partition([]) == EMPTY
        assert EMPTY.size == 0
        assert len(EMPTY) == 0
        assert not EMPTY

    def test_rejects_increasing_pair(self):
        with pytest.raises(ValueError, match=r"parts\[1\]"):
            make_partition([2, 3])

    def test_rejects_nonpositive_part(self):
        with pytest.raises(ValueError, match="index 0"):
            make_partition([0, 0])
        with pytest.raises(ValueError, match="index 2"):
            make_partition([3, 2, -1])

    @staticmethod
    def loop_check(parts):
        """The per-part validation loop, as the reference for the message."""
        for i, part in enumerate(parts):
            if part < 1:
                return f"part {part} at index {i} is not a positive integer"
            if i > 0 and parts[i - 1] < part:
                return (
                    f"parts must be weakly decreasing; "
                    f"parts[{i - 1}]={parts[i - 1]} < parts[{i}]={part}"
                )
        return None

    @pytest.mark.parametrize(
        "parts",
        [
            (3, 0),
            (1, 2),
            (2, -1, 3),
            (0, 1),
            (5, 5, 5),
            tuple(sorted(random.Random(1).choices(range(1, 10**6), k=5000), reverse=True)),
            (7,) * 4000 + (8,) + (1,) * 999,
            (7,) * 4999 + (0,),
        ],
        ids=lambda parts: ",".join(map(str, parts[:4])) + f"...[{len(parts)}]",
    )
    def test_validation_matches_the_loop(self, parts):
        expected = self.loop_check(parts)
        if expected is None:
            assert Partition(parts).parts == parts
        else:
            with pytest.raises(ValueError) as err:
                Partition(parts)
            assert str(err.value) == expected

    def test_hashable_value_semantics(self):
        assert Partition((2, 1)) == Partition((2, 1))
        assert hash(Partition((2, 1))) == hash(Partition((2, 1)))
        assert Partition((2, 1)) != Partition((1, 1, 1))


class TestHookLengths:
    def test_worked_example_grid(self):
        assert hook_lengths(Partition((5, 4, 2, 2, 1))) == [
            [9, 7, 4, 3, 1],
            [7, 5, 2, 1],
            [4, 2],
            [3, 1],
            [1],
        ]

    def test_empty(self):
        assert hook_lengths(EMPTY) == []

    def test_single_row(self):
        assert hook_lengths(Partition((6,))) == [[6, 5, 4, 3, 2, 1]]

    def test_single_column(self):
        assert hook_lengths(Partition((1, 1, 1))) == [[3], [2], [1]]

    @given(partitions())
    def test_first_column_strictly_decreasing(self, lam):
        grid = hook_lengths(lam)
        column = [row[0] for row in grid]
        assert all(a > b for a, b in zip(column, column[1:]))

    @given(partitions(max_part=6, max_len=6))
    def test_hook_multiset_invariant_under_conjugation(self, lam):
        ours = Counter(h for row in hook_lengths(lam) for h in row)
        theirs = Counter(h for row in hook_lengths(conjugate(lam)) for h in row)
        assert ours == theirs

    def test_hook_multiset_matches_conjugate_exhaustively(self):
        for n in range(21):
            for lam in enumerate_partitions(n):
                ours = Counter(h for row in hook_lengths(lam) for h in row)
                theirs = Counter(h for row in hook_lengths(conjugate(lam)) for h in row)
                assert ours == theirs

    @given(partitions())
    def test_conjugate_is_an_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam


class TestEnumeration:
    def test_zero_has_only_the_empty_partition(self):
        assert list(enumerate_partitions(0)) == [EMPTY]

    def test_four_in_reverse_lex_order(self):
        got = [lam.parts for lam in enumerate_partitions(4)]
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1)

    def test_streams_are_independent(self):
        first = enumerate_partitions(5)
        second = enumerate_partitions(5)
        next(first)
        assert next(second).parts == (5,)

    @pytest.mark.parametrize("n", range(0, 16))
    def test_all_distinct_and_of_size_n(self, n):
        seen = list(enumerate_partitions(n))
        assert len(set(seen)) == len(seen)
        assert all(lam.size == n for lam in seen)

    def test_order_is_reverse_lexicographic(self):
        for n in range(26):
            got = [lam.parts for lam in enumerate_partitions(n)]
            assert got == sorted(got, reverse=True)

    def test_stream_matches_the_recursive_oracle_up_to_30(self):
        for n in range(31):
            stream = list(enumerate_partitions(n))
            assert [lam.parts for lam in stream] == list(descending_parts(n, n))
            for lam in stream:
                checked = Partition(lam.parts)
                assert lam == checked and hash(lam) == hash(checked)
                assert lam.size == n

    def test_counts_match_recurrence_up_to_30(self):
        for n in range(31):
            assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


class TestPositionWords:
    """enumerate_partitions decodes _words, the census store's oracle."""

    @pytest.mark.parametrize("n", range(0, 26))
    def test_words_encode_the_partition_stream(self, n):
        words = list(_words(n))
        assert words == [_word(lam.parts) for lam in enumerate_partitions(n)]
        # Independent of _decode: the oracle's parts are encoded directly.
        assert words == [_word(p) for p in descending_parts(n, n)]
        assert len(words) == partition_count(n)


class TestPartitionCount:
    def test_small_values(self):
        assert [partition_count(n) for n in range(10)] == [
            1, 1, 2, 3, 5, 7, 11, 15, 22, 30,
        ]

    def test_known_values(self):
        assert partition_count(5) == 7
        assert partition_count(30) == 5604
        assert partition_count(100) == 190569292
        assert partition_count(200) == 3972999029388

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            partition_count(-3)

    @pytest.fixture
    def cold_module(self, monkeypatch):
        """A fresh copy of coretower.partitions, whose memo table is empty."""
        path = partitions_module.__file__
        spec = importlib.util.spec_from_file_location("cold_partitions", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def cold(self, cold_module):
        """partition_count of cold_module."""
        return cold_module.partition_count

    def test_cold_table_matches_the_partition_series_at_every_n(self, cold):
        assert [cold(n) for n in range(3001)] == list(partition_series(3000).coeffs)

    def test_scrambled_calls_match_the_partition_series(self, cold):
        expected = partition_series(3000).coeffs
        for n in (50, 49, 1000, 999, 3000):
            assert cold(n) == expected[n]
        assert [cold(n) for n in range(3001)] == list(expected)

    def test_counts_are_a_fresh_slice_in_any_call_order(self, cold_module):
        expected = partition_series(3001).coeffs
        for n in (50, 0, 49, 1000, 999, 7, 3000):
            counts = cold_module.partition_counts(n)
            assert counts == [cold_module.partition_count(k) for k in range(n + 1)]
            assert counts == list(expected[: n + 1])
            counts[:] = [-1] * (n + 1)
            counts.append(-1)
            assert cold_module.partition_count(n) == expected[n]
            assert cold_module.partition_count(n + 1) == expected[n + 1]
        with pytest.raises(ValueError):
            cold_module.partition_counts(-1)
