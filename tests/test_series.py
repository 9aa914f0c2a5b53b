import json
import sys
from math import comb

import pytest
from hypothesis import given
import hypothesis.strategies as st

from coretower import (
    IntSeries,
    OrderMismatchError,
    add,
    div,
    divisor_sum_series,
    enumerate_partitions,
    euler_product,
    make_partition,
    mul,
    negate,
    partition_count,
    partition_series,
    pochhammer_inf,
    q_derivative,
    row_size,
    series_one,
    series_zero,
    substitute_power,
    truncate,
)
from coretower import series as series_module
from coretower.series import from_json_dict, to_csv, to_json_dict
from oracles import divisor_sum, divisor_sum_series_lambert, mul_dense
from strategies import small_series_coeffs


def geometric(order):
    return IntSeries((1,) * (order + 1))


def product_expansion(a, e, order):
    """(q**a; q**a)_infinity ** e expanded factor by factor, as a reference.

    Multiplies in each (1 - q**(a*k))**e through its at most e + 1 nonzero
    binomial terms, in place from the top coefficient down, so it shares
    nothing with the pentagonal theorem and stays cheap at order 800.
    """
    coeffs = [1] + [0] * order
    for step in range(a, order + 1, a):
        terms = [
            (i * step, (-1) ** i * comb(e, i))
            for i in range(1, min(e, order // step) + 1)
        ]
        for n in range(order, step - 1, -1):
            acc = coeffs[n]
            for shift, c in terms:
                if shift > n:
                    break
                acc += c * coeffs[n - shift]
            coeffs[n] = acc
    return IntSeries(tuple(coeffs))


class TestRingBasics:
    def test_one_and_zero(self):
        assert series_one(4).coeffs == (1, 0, 0, 0, 0)
        assert series_zero(2).coeffs == (0, 0, 0)

    def test_rejects_empty_coefficients(self):
        with pytest.raises(ValueError):
            IntSeries(())

    @pytest.mark.parametrize(
        "coeffs, names",
        [((0.5, 1.0), "float"), ((1, 2.0), "float"), ((1, True), "bool"), (("1",), "str")],
    )
    def test_rejects_coefficients_that_are_not_int(self, coeffs, names):
        with pytest.raises(TypeError, match=f"series coefficients must be int, got {names}"):
            IntSeries(coeffs)

    def test_repr_shows_coefficients_past_the_str_digit_limit(self):
        # 3**10000 has 4772 decimal digits, past the default 4300-digit limit.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            shown = repr(IntSeries((3**10000, 2)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert shown == f"IntSeries(N=1, [<{(3**10000).bit_length()}-bit int>, 2])"
        assert repr(IntSeries((1, -2))) == "IntSeries(N=1, [1, -2])"

    def test_mul_by_one_is_identity(self):
        f = IntSeries((3, -1, 4, 1, -5))
        assert mul(f, series_one(4)) == f
        assert f * series_one(4) == f

    def test_one_minus_q_times_geometric_is_one(self):
        n = 12
        one_minus_q = IntSeries((1, -1) + (0,) * (n - 1))
        assert mul(one_minus_q, geometric(n)) == series_one(n)

    def test_mixed_orders_are_rejected(self):
        with pytest.raises(OrderMismatchError):
            add(series_one(3), series_one(4))
        with pytest.raises(OrderMismatchError):
            mul(series_one(3), series_zero(5))
        with pytest.raises(OrderMismatchError):
            div(series_one(3), series_one(2))

    def test_negation_and_subtraction(self):
        f, g = IntSeries((3, -1, 4)), IntSeries((1, 5, -9))
        assert -f == IntSeries((-3, 1, -4))
        assert f - g == IntSeries((2, -6, 13))
        assert f - f == series_zero(2)

    @pytest.mark.parametrize(
        "build",
        [series_zero, series_one, divisor_sum_series, lambda order: pochhammer_inf(1, 1, order),
         lambda j: row_size(make_partition([3, 1]), 2, j)],
        ids=["series_zero", "series_one", "divisor_sum_series", "pochhammer_inf", "row_size"],
    )
    def test_negative_order_or_row_is_refused(self, build):
        with pytest.raises(ValueError, match="must be nonnegative"):
            build(-1)

    def test_indexing_stays_within_the_truncation(self):
        f = series_one(3)
        assert f[0] == 1 and f[3] == 0
        with pytest.raises(IndexError):
            f[4]

    @given(small_series_coeffs(), small_series_coeffs(), small_series_coeffs())
    def test_ring_axioms(self, a, b, c):
        fa, fb, fc = IntSeries(tuple(a)), IntSeries(tuple(b)), IntSeries(tuple(c))
        assert mul(fa, fb) == mul(fb, fa)
        assert mul(mul(fa, fb), fc) == mul(fa, mul(fb, fc))
        assert mul(fa, add(fb, fc)) == add(mul(fa, fb), mul(fa, fc))
        assert add(fa, negate(fa)) == series_zero(fa.truncation_order)

    @given(
        st.integers(0, 12).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-(2**100), 2**100), min_size=n + 1, max_size=n + 1),
                min_size=2,
                max_size=2,
            )
        )
    )
    def test_product_matches_the_dense_reference(self, pair):
        fa, fb = (IntSeries(tuple(c)) for c in pair)
        assert mul(fa, fb) == mul_dense(fa, fb)

    def test_scalar_multiplication(self):
        f = IntSeries((1, 2, 3))
        assert (5 * f).coeffs == (5, 10, 15)
        assert f * -3 == -3 * f == IntSeries((-3, -6, -9))

    @pytest.mark.parametrize(
        "op",
        [
            lambda f: 0.5 * f,
            lambda f: f * 0.5,
            lambda f: f * "2",
            lambda f: f + 3,
            lambda f: f - 1,
            lambda f: f / 2,
            lambda f: add(3, f),
        ],
        ids=["float-times", "times-float", "times-str", "plus-int", "minus-int",
             "div-int", "add-int-first"],
    )
    def test_non_series_operands_are_refused(self, op):
        with pytest.raises(TypeError, match="series operands"):
            op(IntSeries((1, 2, 3)))

    def test_truncate(self):
        f = IntSeries((1, 2, 3, 4))
        assert truncate(f, 1).coeffs == (1, 2)
        with pytest.raises(ValueError):
            truncate(f, 9)


class TestDivision:
    def test_divide_by_one(self):
        f = IntSeries((7, 0, -2, 5))
        assert div(f, series_one(3)) == f

    def test_partition_generating_function(self):
        inv = partition_series(200)
        for n in range(201):
            assert inv[n] == partition_count(n)

    def test_rejects_non_unit_constant_term(self):
        with pytest.raises(ValueError, match="constant coefficient"):
            div(series_one(3), IntSeries((2, 0, 0, 0)))

    def test_negative_unit_divisor(self):
        b = IntSeries((-1, 3, 1, 0, 2))
        a = IntSeries((4, -1, 0, 2, 7))
        assert mul(div(a, b), b) == a

    @given(small_series_coeffs(), small_series_coeffs(), st.sampled_from([1, -1]))
    def test_division_round_trip(self, a, b, unit):
        fa = IntSeries(tuple(a))
        fb = IntSeries((unit,) + tuple(b)[1:])
        assert mul(div(fa, fb), fb) == fa

    @given(small_series_coeffs(), small_series_coeffs(), st.sampled_from([1, -1]), st.data())
    def test_a_division_continues_from_any_prefix(self, a, b, unit, data):
        # Stopped after k coefficients and continued, a division reads as
        # one made at once.
        fb = (unit,) + tuple(b)[1:]
        whole = div(IntSeries(tuple(a)), IntSeries(fb)).coeffs
        k = data.draw(st.integers(0, len(a)))
        out = series_module._divide([], a[:k], fb)
        assert series_module._divide(out, a, fb) == list(whole)


class TestSubstitutionAndDerivative:
    def test_substitute_identity(self):
        f = IntSeries((5, 1, 2, 0))
        assert substitute_power(f, 1) is f

    def test_substitute_monomial(self):
        q = IntSeries((0, 1) + (0,) * 8)
        assert substitute_power(q, 3).coeffs == (0, 0, 0, 1, 0, 0, 0, 0, 0, 0)

    def test_substitute_order_preserved_and_exponent_checked(self):
        f = series_one(9)
        assert substitute_power(f, 4).truncation_order == 9
        with pytest.raises(ValueError):
            substitute_power(f, 0)

    def test_divisor_sums_survive_substitution(self):
        g = substitute_power(divisor_sum_series(10), 2)
        assert g[6] == 4  # sigma_1(3)

    def test_q_derivative_of_constants_vanishes(self):
        assert q_derivative(series_one(5)) == series_zero(5)

    def test_q_derivative_of_geometric(self):
        assert q_derivative(geometric(5)).coeffs == (0, 1, 2, 3, 4, 5)

    def test_q_derivative_of_the_partition_series(self):
        n = 120
        lhs = q_derivative(partition_series(n))
        rhs = div(divisor_sum_series(n), euler_product(n))
        assert lhs == rhs
        assert all(rhs[k] == k * partition_count(k) for k in range(n + 1))


class TestProducts:
    def test_pentagonal_signs(self):
        assert euler_product(7).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_even_step_has_even_support(self):
        f = pochhammer_inf(2, 1, 15)
        assert all(c == 0 for n, c in enumerate(f.coeffs) if n % 2)

    def test_inverse_pair(self):
        n = 60
        assert mul(euler_product(n), partition_series(n)) == series_one(n)

    def test_powers_multiply_out(self):
        n = 25
        assert pochhammer_inf(1, 2, n) == mul(euler_product(n), euler_product(n))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            pochhammer_inf(0, 1, 5)
        with pytest.raises(ValueError):
            pochhammer_inf(1, 0, 5)

    def test_step_beyond_order_gives_one(self):
        assert pochhammer_inf(9, 3, 8) == series_one(8)

    @pytest.mark.parametrize("a", range(1, 7))
    @pytest.mark.parametrize("e", range(1, 7))
    def test_matches_the_product_expansion(self, a, e):
        for order in (0, 1, 17, 240):
            assert pochhammer_inf(a, e, order) == product_expansion(a, e, order)

    @pytest.mark.parametrize(
        "a, e",
        [(1, 1), (2, 2), (4, 4), (8, 8), (9, 9), (25, 25), (27, 27),
         (1, 24), (2, 31), (3, 16)],
    )
    def test_matches_the_product_expansion_at_order_800(self, a, e):
        assert pochhammer_inf(a, e, 800) == product_expansion(a, e, 800)

    @pytest.mark.parametrize("a, e", [(2, 2), (3, 7), (1, 24), (2, 31), (5, 16)])
    def test_powers_take_one_square_per_bit_and_one_product_per_one_bit(
        self, monkeypatch, a, e
    ):
        calls = []

        def counted_mul(x, y):
            calls.append((x, y))
            return mul(x, y)

        monkeypatch.setattr(series_module, "mul", counted_mul)
        pochhammer_inf.__wrapped__(a, e, 120)
        assert len(calls) == (e.bit_length() - 1) + (e.bit_count() - 1)


class TestCaches:
    # (2.0, 1, 10) == (2, 1, 10) and both hash alike, so an untyped cache
    # would answer the float call from the int call's entry.
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_a_float_step_is_refused_cached_or_not(self, warm):
        pochhammer_inf.cache_clear()
        if warm:
            pochhammer_inf(2, 1, 10)
        with pytest.raises(TypeError):
            pochhammer_inf(2.0, 1, 10)


class TestDivisorSums:
    def test_first_values(self):
        assert divisor_sum_series(6).coeffs == (0, 1, 3, 4, 7, 6, 12)

    def test_primes(self):
        g = divisor_sum_series(50)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            assert g[p] == p + 1

    def test_lambert_form_agrees(self):
        assert divisor_sum_series(200) == divisor_sum_series_lambert(200)

    def test_sieve_matches_trial_division(self):
        g = divisor_sum_series(5000)
        assert g[0] == 0
        assert all(g[n] == divisor_sum(n) for n in range(1, 5001))


class TestLogDerivativeIdentity:
    def test_euler_product_log_derivative(self):
        n = 1000
        ep = euler_product(n)
        assert q_derivative(ep) == negate(mul(divisor_sum_series(n), ep))


class TestRegularPartitionCounts:
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_product_matches_enumeration(self, m):
        f = div(pochhammer_inf(m, 1, 25), euler_product(25))
        for n in range(26):
            direct = sum(
                1 for lam in enumerate_partitions(n) if all(p % m for p in lam.parts)
            )
            assert f[n] == direct


class TestSerialization:
    def test_schema_and_round_trip(self):
        f = divisor_sum_series(5)
        d = to_json_dict(f)
        assert set(d) == {"truncation_order", "coeffs"}
        assert d["truncation_order"] == 5
        assert d["coeffs"] == ["0", "1", "3", "4", "7", "6"]
        assert from_json_dict(d) == f
        assert from_json_dict(json.loads(json.dumps(to_json_dict(f)))) == f

    def test_round_trip_keeps_huge_coefficients_exact(self):
        f = IntSeries((1, 10**40, -(3**101)))
        assert from_json_dict(to_json_dict(f)) == f

    def test_inconsistent_order_is_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"truncation_order": 3, "coeffs": ["1", "2"]})

    def test_csv(self):
        assert to_csv(IntSeries((1, -2))) == "n,coefficient\n0,1\n1,-2\n"
