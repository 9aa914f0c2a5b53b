"""Value semantics of the five public record classes.

Partition, IntSeries and CoreTower behave as frozen dataclasses do:
positional and keyword construction, equality only within their own
class, a hash equal to that of the tuple of their fields, and no
assignment or deletion.  VerificationReport and AsymptoticSample are
NamedTuples, so they are also equal to the plain tuple of their fields.
Each repr is pinned as it has always printed.
"""

import pytest
from mpmath import mp

from coretower import (
    EMPTY,
    AsymptoticSample,
    IntSeries,
    Partition,
    VerificationReport,
    core_tower,
)


def assert_frozen(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, field)


class TestPartition:
    def test_construction(self):
        assert Partition() == Partition(()) == Partition(parts=()) == EMPTY
        assert Partition((2, 1)) == Partition(parts=(2, 1))
        assert Partition((2, 1)).parts == (2, 1)

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((2, 0), "part 0 at index 1 is not a positive integer"),
            ((1, 2), r"parts must be weakly decreasing; parts\[0\]=1 < parts\[1\]=2"),
        ],
    )
    def test_validation(self, parts, message):
        with pytest.raises(ValueError, match=message):
            Partition(parts)
        with pytest.raises(ValueError, match=message):
            Partition(parts=parts)

    def test_equality_and_hash(self):
        assert Partition((2, 1)) != Partition((2,))
        assert Partition((1,)) != IntSeries((1,))
        assert Partition((1,)) != (1,) and Partition((1,)) != ((1,),)
        assert hash(Partition((3, 1))) == hash(((3, 1),))
        assert len({Partition((2, 1)), Partition((2, 1)), Partition((1, 1))}) == 2

    def test_repr(self):
        assert repr(Partition((3, 2, 1))) == "Partition([3, 2, 1])"
        assert repr(EMPTY) == "Partition([])"

    def test_frozen(self):
        assert_frozen(Partition((2, 1)), "parts")

    def test_trusted_skips_the_checks(self):
        lam = Partition._trusted((3, 1))
        assert type(lam) is Partition and lam == Partition((3, 1))
        assert Partition._trusted((1, 2)).parts == (1, 2)

    def test_size_is_cached(self):
        lam = Partition((4, 2, 2))
        assert "size" not in vars(lam)
        assert lam.size == 8 and vars(lam)["size"] == 8
        assert lam == Partition((4, 2, 2)) and hash(lam) == hash(((4, 2, 2),))
        assert_frozen(lam, "size")


class TestIntSeries:
    def test_construction(self):
        assert IntSeries((1, 2)) == IntSeries(coeffs=(1, 2))
        assert IntSeries((1, 2)).coeffs == (1, 2)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least the constant coefficient"):
            IntSeries(())
        with pytest.raises(TypeError, match="series coefficients must be int, got float"):
            IntSeries(coeffs=(1, 0.5))

    def test_equality_and_hash(self):
        assert IntSeries((1, 2)) != IntSeries((1, 2, 0))
        assert IntSeries((1,)) != Partition((1,)) and IntSeries((1,)) != ((1,),)
        assert hash(IntSeries((1, 2))) == hash(((1, 2),))

    def test_repr(self):
        assert repr(IntSeries((1, 2, 3))) == "IntSeries(N=2, [1, 2, 3])"
        long = "IntSeries(N=9, [0, 1, 2, 3, 4, 5, 6, 7, ...])"
        assert repr(IntSeries(tuple(range(10)))) == long

    def test_frozen(self):
        assert_frozen(IntSeries((1,)), "coeffs")


class TestCoreTower:
    ENTRIES = (((0, (3, 2, 1)),), (), ((0, (1,)), (3, (1,))))

    def test_construction(self):
        tower = core_tower(Partition((5, 4, 2, 2, 1)), 2)
        assert tower == type(tower)(2, self.ENTRIES)
        assert tower == type(tower)(t=2, entries=self.ENTRIES)
        assert (tower.t, tower.entries, tower.height) == (2, self.ENTRIES, 2)

    def test_equality_and_hash(self):
        tower = core_tower(Partition((5, 4, 2, 2, 1)), 2)
        assert tower != core_tower(Partition((5, 4, 2, 2, 1)), 3)
        assert tower != (2, self.ENTRIES)
        assert hash(tower) == hash((2, self.ENTRIES))

    def test_repr(self):
        tower = core_tower(Partition((5, 4, 2, 2, 1)), 2)
        assert repr(tower) == (
            "CoreTower(t=2, entries=(((0, (3, 2, 1)),), (), ((0, (1,)), (3, (1,)))))"
        )
        assert repr(core_tower(EMPTY, 3)) == "CoreTower(t=3, entries=((),))"

    def test_frozen(self):
        assert_frozen(core_tower(Partition((2, 1)), 2), "entries")

    def test_rows_and_row_sizes_are_cached(self):
        tower = core_tower(Partition((5, 4, 2, 2, 1)), 2)
        assert "rows" not in vars(tower) and "row_sizes" not in vars(tower)
        rows = tower.rows
        assert rows[0] == (Partition((3, 2, 1)),)
        assert rows[2] == (Partition((1,)), EMPTY, EMPTY, Partition((1,)))
        assert tower.rows is rows and vars(tower)["rows"] is rows
        assert tower.row_sizes == (6, 0, 2) and vars(tower)["row_sizes"] == (6, 0, 2)
        assert hash(tower) == hash((2, self.ENTRIES))
        assert_frozen(tower, "rows")
        assert_frozen(tower, "row_sizes")


class TestVerificationReport:
    FIELDS = ("congruence.multiples", 2, None, 12, (6, 2, 0))

    def test_construction(self):
        report = VerificationReport(*self.FIELDS)
        keywords = dict(zip(VerificationReport._fields, self.FIELDS))
        assert report == VerificationReport(**keywords)
        assert (report.status, report.passed) == ("fail", False)

    def test_equality_and_hash(self):
        report = VerificationReport(*self.FIELDS)
        assert report != VerificationReport("congruence.np", 2, None, 12, None)
        # A NamedTuple: equal to the plain tuple of its fields.
        assert report == self.FIELDS and hash(report) == hash(self.FIELDS)

    def test_repr(self):
        assert repr(VerificationReport(*self.FIELDS)) == (
            "VerificationReport(identity_name='congruence.multiples', t=2, j=None, "
            "order_checked=12, first_mismatch=(6, 2, 0))"
        )

    def test_frozen(self):
        assert_frozen(VerificationReport(*self.FIELDS), "first_mismatch")


class TestAsymptoticSample:
    @staticmethod
    def fields():
        # defect_samples(2, [10], dps=20)[0], as its fields print.
        with mp.workdps(20):
            return (10, 274, mp.mpf("481.04308817220834"), mp.mpf(420), mp.mpf(274) / 420)

    def test_construction(self):
        sample = AsymptoticSample(*self.fields())
        keywords = dict(zip(AsymptoticSample._fields, self.fields()))
        assert sample == AsymptoticSample(**keywords)
        assert sample.columns() == {
            "n": 10,
            "exact": "274",
            "predicted_main_term": "481.043088172208",
            "predicted_np_over_t1": "420.0",
            "ratio": "0.652380952380952",
        }

    def test_equality_and_hash(self):
        sample = AsymptoticSample(*self.fields())
        assert sample != AsymptoticSample(11, *self.fields()[1:])
        assert sample == self.fields() and hash(sample) == hash(self.fields())

    def test_repr(self):
        # mpf reprs follow the working precision, mpmath's default here.
        with mp.workdps(15):
            sample = AsymptoticSample(*self.fields())
            assert repr(sample) == (
                "AsymptoticSample(n=10, exact=274, "
                "predicted_main_term=mpf('481.04308817220834'), "
                "predicted_np_over_t1=mpf('420.0'), ratio=mpf('0.65238095238095238'))"
            )

    def test_frozen(self):
        assert_frozen(AsymptoticSample(*self.fields()), "ratio")
