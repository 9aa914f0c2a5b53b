import pytest
from mpmath import mp

from coretower import (
    asymptotics,
    defect_predict,
    defect_samples,
    defect_series,
    eisenstein_transform_residual,
    eta_growth_ratio,
    hardy_ramanujan_estimate,
    partition_count,
    row_weight_series,
    samples_to_csv,
    transfer,
)

# Ratios of exact totals to n*p(n)/(t-1), frozen from the oracle run; the
# trend tests assert the gaps to 1 keep shrinking along the sample ladder.
FROZEN_DEFECT_RATIOS = {
    2: ("0.8307410763", "0.8680078274", "0.8977398098"),
    3: ("0.7907719974", "0.8365745572", "0.8729683694"),
    5: ("0.7240697258", "0.7852561226", "0.8327350970"),
}
SAMPLE_SIZES = (100, 200, 400)


def _old_leading_term(growth_a, alpha, ell, n):
    """The Tauberian estimate ell A**(alpha/2 + 1/4) e**(2 sqrt(A n))
    / (2 sqrt(pi) n**(alpha/2 + 3/4)) of a series with
    f(e**-eps) ~ ell eps**alpha e**(A/eps)."""
    a, alpha, ell = mp.mpf(growth_a), mp.mpf(alpha), mp.mpf(ell)
    return (
        ell * a ** (alpha / 2 + mp.mpf(1) / 4) * mp.exp(2 * mp.sqrt(a * n))
        / (2 * mp.sqrt(mp.pi) * mp.mpf(n) ** (alpha / 2 + mp.mpf(3) / 4))
    )


# (t, j) with t**(j + 1) <= 24: past that, a dual term of S(q**(t**(j+1)))
# grows with n, and the two terms below no longer suffice.
ROW_PAIRS = [(t, j) for t in range(2, 8) for j in range(4) if t ** (j + 1) <= 24]


class TestTransfer:
    @pytest.mark.parametrize("n, bound", [(500, "1e-12"), (1000, "1e-17")])
    def test_one_term_is_rademachers_first_term(self, n, bound):
        with mp.workdps(50):
            gap = abs(transfer([(1, 0, 0)], n) / partition_count(n) - 1)
            assert gap < mp.mpf(bound)

    def test_hardy_ramanujan_is_the_leading_term(self):
        with mp.workdps(50):
            gaps = [
                hardy_ramanujan_estimate(n) / transfer([(1, 0, 0)], n) - 1
                for n in (100, 1000, 10000)
            ]
        for gap, seen in zip(gaps, ("0.0457", "0.0142", "0.0044")):
            assert abs(gap - mp.mpf(seen)) < mp.mpf("1e-4")
        assert gaps[0] > gaps[1] > gaps[2] > 0

    def test_ratio_to_exact_count_at_one_hundred(self):
        ratio = mp.mpf(partition_count(100)) / hardy_ramanujan_estimate(100)
        assert 0.95 < ratio < 1.05
        assert abs(ratio - mp.mpf("0.9562848138")) < mp.mpf("1e-6")

    @pytest.mark.parametrize("t, j", ROW_PAIRS)
    def test_two_terms_give_the_row_weight(self, t, j):
        # T_j/P = (t-1)/(2 eps) - t**j (t**2 - 1)/24, up to exponentially
        # small dual terms.
        with mp.workdps(50):
            slope, constant = mp.mpf(t - 1) / 2, -mp.mpf(t**j * (t * t - 1)) / 24
            terms = [(slope, -1, 0), (constant, 0, 0)]
            exact = row_weight_series(j, t, 1000)[1000]
            assert abs(transfer(terms, 1000) / exact - 1) < mp.mpf("1e-14")

    @pytest.mark.parametrize("growth_a, alpha, ell", [(1, 0, 1), (2, 1, 3)])
    def test_old_tauberian_parameters_agree_to_leading_order(
        self, growth_a, alpha, ell
    ):
        # f(e**-eps) ~ ell eps**alpha e**(A/eps) is f/P ~ ell sqrt(2 pi)
        # eps**(alpha - 1/2) e**(-(pi**2/6 - A)/eps).
        with mp.workdps(50):
            c = ell * mp.sqrt(2 * mp.pi)
            term = (c, alpha - mp.mpf(1) / 2, mp.pi**2 / 6 - growth_a)
            ns = (100, 1000, 10000)
            old = [_old_leading_term(growth_a, alpha, ell, n) for n in ns]
            gaps = [abs(o / transfer([term], n) - 1) for o, n in zip(old, ns)]
            assert gaps[0] > gaps[1] > gaps[2]
            assert all(gap < 1 / mp.sqrt(n) for gap, n in zip(gaps, ns))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            transfer([(1, 0, 0)], 0)
        for a in (1.65, 2):  # pi**2/6 = 1.6449...
            with pytest.raises(ValueError, match="below pi"):
                transfer([(1, 0, 0), (1, 0, a)], 100)


class TestDefectPrediction:
    def test_both_forms_scale_like_one_over_t_minus_one(self):
        base = defect_predict(2, 100)
        scaled = defect_predict(11, 100)
        assert abs(base.main_term / scaled.main_term - 10) < mp.mpf("1e-12")
        assert base.np_form == 10 * scaled.np_form

    def test_np_form_uses_the_exact_count(self):
        pred = defect_predict(3, 100)
        assert pred.np_form == mp.mpf(100 * partition_count(100)) / 2

    def test_small_n_regime_is_out_of_band(self):
        # Exact total defect at n = 1 is zero while both predictions are
        # positive; size one is excluded from tolerance assertions.
        assert defect_series(2, 1)[1] == 0
        pred = defect_predict(2, 1)
        assert pred.main_term > 0 and pred.np_form > 0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="modulus t must be at least 2, got 1"):
            defect_predict(1, 10)
        with pytest.raises(ValueError):
            defect_predict(2, 0)


class TestDefectTrend:
    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_ratio_gap_decreases_along_the_ladder(self, t):
        samples = defect_samples(t, SAMPLE_SIZES, dps=50)
        gaps = [abs(s.ratio - 1) for s in samples]
        assert gaps[0] > gaps[1] > gaps[2]
        for sample, frozen in zip(samples, FROZEN_DEFECT_RATIOS[t]):
            assert abs(sample.ratio - mp.mpf(frozen)) < mp.mpf("1e-8")

    def test_exact_values_come_verbatim_from_the_series(self):
        samples = defect_samples(2, (10, 25), dps=30)
        exact = defect_series(2, 25)
        for s in samples:
            assert isinstance(s.exact, int)
            assert s.exact == exact[s.n]

    def test_csv_table(self):
        text = samples_to_csv(defect_samples(2, (10, 20)))
        lines = text.strip().split("\n")
        assert lines[0] == "n,exact,predicted_main_term,predicted_np_over_t1,ratio"
        assert len(lines) == 3
        assert lines[1].startswith("10,")

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            defect_samples(2, (0, 10))
        assert defect_samples(2, ()) == []


def direct_lambert_sum(m, eps, tol):
    """sum_n n x**n / (1 - x**n) at x = exp(-m eps), term by term."""
    x = mp.exp(-m * eps)
    total = mp.mpf(0)
    xn = x
    n = 1
    while True:
        term = n * xn / (1 - xn)
        total += term
        if term < tol * total:
            return total
        xn *= x
        n += 1


class TestEisensteinTransform:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("eps", ["0.01", "0.1", "0.7"])
    def test_hyperbola_sum_matches_the_direct_sum(self, m, eps):
        with mp.workdps(65):
            e = mp.mpf(eps)
            tol = mp.mpf(10) ** -60
            split = asymptotics._lambert_sum(m, e, tol)
            direct = direct_lambert_sum(m, e, tol)
            assert abs(split - direct) / direct < mp.mpf("1e-55")

    def test_small_eps_within_the_term_limit(self):
        # About 3.7e3 hyperbola terms; the direct sum would need 1.4e7.
        assert eisenstein_transform_residual(1, "1e-5", dps=50) < mp.mpf("1e-40")

    def test_term_limit_states_the_smallest_eps(self):
        with pytest.raises(ValueError, match="eps must be >= 5.53e-8"):
            eisenstein_transform_residual(1, "5e-8", dps=50)

    def test_residual_is_tiny_at_default_precision(self):
        assert eisenstein_transform_residual(1, "0.1", dps=50) < mp.mpf("1e-40")

    def test_residual_shrinks_with_more_precision(self):
        coarse = eisenstein_transform_residual(1, "0.1", dps=30)
        fine = eisenstein_transform_residual(1, "0.1", dps=50)
        assert fine <= coarse

    # Near the eps guard the right side cancels to about e**(-m eps), so a
    # dual sum cut at an absolute tolerance would show in the residual.
    @pytest.mark.parametrize("dps", [20, 50])
    @pytest.mark.parametrize("m, eps", [(34, "1"), (100, "0.316228"), (50, "0.630957")])
    def test_residual_below_working_precision_near_the_eps_guard(self, m, eps, dps):
        assert eisenstein_transform_residual(m, eps, dps=dps) < mp.mpf(10) ** -dps

    def test_large_m_small_eps_corner(self):
        assert eisenstein_transform_residual(4, "0.5", dps=50) < mp.mpf("1e-40")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            eisenstein_transform_residual(0, "0.1")
        with pytest.raises(ValueError):
            eisenstein_transform_residual(1, "2.0")
        with pytest.raises(ValueError):
            eisenstein_transform_residual(1, "0")

    def test_rejects_eps_where_the_right_side_cancels(self):
        # m eps = 1000 would leave the right side near e**-1000.
        with pytest.raises(ValueError, match="eps must be <= 0.0345"):
            eisenstein_transform_residual(1000, "1")


class TestEtaGrowth:
    def test_ladder_ratio_tends_to_one_monotonically(self):
        gaps = [
            abs(eta_growth_ratio(eps, dps=50) - 1)
            for eps in ("0.5", "0.2", "0.1", "0.05")
        ]
        assert gaps[0] > gaps[1] > gaps[2] > gaps[3]

    def test_smallest_step_is_within_five_percent(self):
        assert abs(eta_growth_ratio("0.05", dps=50) - 1) < mp.mpf("0.05")

    def test_gap_scales_like_eps_over_24(self):
        gap = abs(eta_growth_ratio("0.2", dps=50) - 1)
        assert abs(gap - mp.mpf("0.2") / 24) < mp.mpf("0.0003")

    def test_product_and_sum_evaluations_agree(self):
        # 1/(q)_inf at q = e**-0.5 summed as sum p(n) q**n versus the
        # product route used by eta_growth_ratio.
        with mp.workdps(40):
            q = mp.exp(mp.mpf("-0.5"))
            by_sum = sum(partition_count(n) * q**n for n in range(400))
            by_product = 1 / mp.nprod(lambda k: 1 - q**k, [1, mp.inf])
            assert abs(by_sum - by_product) / by_product < mp.mpf("1e-10")

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            eta_growth_ratio("0")

    @pytest.mark.parametrize("eps", ["inf", "nan", float("inf"), float("nan")])
    def test_rejects_eps_that_is_not_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            eta_growth_ratio(eps)

    def test_rejects_eps_past_the_term_budget_at_once(self):
        # At 50 digits eps 1e-7 would need about 1.4e9 factors: hours of work.
        with pytest.raises(ValueError, match=r"eps must be >= 0\.00286\)"):
            eta_growth_ratio("1e-7", dps=50)
