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
    ingham_predict,
    partition_count,
    partition_ingham_estimate,
    samples_to_csv,
)

# Ratios of exact totals to n*p(n)/(t-1), frozen from the oracle run; the
# trend tests assert the gaps to 1 keep shrinking along the sample ladder.
FROZEN_DEFECT_RATIOS = {
    2: ("0.8307410763", "0.8680078274", "0.8977398098"),
    3: ("0.7907719974", "0.8365745572", "0.8729683694"),
    5: ("0.7240697258", "0.7852561226", "0.8327350970"),
}
SAMPLE_SIZES = (100, 200, 400)


class TestIngham:
    @pytest.mark.parametrize("n", [50, 100, 500])
    def test_partition_parameters_reproduce_hardy_ramanujan(self, n):
        a = partition_ingham_estimate(n, dps=50)
        b = hardy_ramanujan_estimate(n, dps=50)
        assert abs(a - b) / b < mp.mpf("1e-12")

    def test_prediction_is_increasing(self):
        values = [partition_ingham_estimate(n) for n in (10, 20, 40, 80, 160)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_ratio_to_exact_count_at_one_hundred(self):
        ratio = mp.mpf(partition_count(100)) / hardy_ramanujan_estimate(100)
        assert 0.95 < ratio < 1.05
        assert abs(ratio - mp.mpf("0.9562848138")) < mp.mpf("1e-6")

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ingham_predict(-1, 0.5, 1.0, 10)
        with pytest.raises(ValueError):
            ingham_predict(1.0, 0.5, 1.0, 0)


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
        with pytest.raises(ValueError):
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
