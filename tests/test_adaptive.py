import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.special import ndtr
from scipy.stats import binom

from shrinktest import (
    ShrinkageCurve,
    SparsityEstimate,
    TwoGroupModel,
    adaptive_bayes_risk_mc,
    adaptive_risk_replicates,
    adaptive_threshold_test,
    bayes_risk_bound,
    horseshoe_family,
    horseshoe_prior,
    minimax_risk_bound,
    separation_rate,
    simple_count_estimator,
    threshold_test,
    verify_condition4,
)
from shrinktest import adaptive
from shrinktest.adaptive import _window_report
from shrinktest.rng import STREAM_ESTIMATOR, substream
import oracles


@pytest.fixture(scope="module")
def model():
    return TwoGroupModel.from_c_psi(10**4, 100, 1.0)


class TestSimpleCountEstimator:
    def test_floor_on_zero_data(self):
        est = simple_count_estimator(np.zeros(100))
        assert est.p_hat == 1.0

    def test_counts_large_entries(self):
        data = np.zeros(100)
        data[:7] = 1e6
        est = simple_count_estimator(data)
        assert est.p_hat == 7.0

    def test_threshold_is_universal(self):
        # The count takes |x| >= sqrt(2 log n): 1e-9 above the cut counts, 1e-9 below does not.
        cut = math.sqrt(2.0 * math.log(100.0))
        data = np.zeros(100)
        data[:3] = cut + 1e-9
        data[3] = -(cut + 1e-9)
        data[4:9] = cut - 1e-9
        data[9] = -(cut - 1e-9)
        assert simple_count_estimator(data).p_hat == 4.0

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            simple_count_estimator(np.array([1.0]))

    @settings(max_examples=40, deadline=None)
    @given(hst.lists(hst.floats(-10.0, 10.0), min_size=2, max_size=50))
    def test_sign_equivariant_and_monotone(self, values):
        data = np.array(values)
        base = simple_count_estimator(data).p_hat
        assert simple_count_estimator(-data).p_hat == base
        assert simple_count_estimator(2.0 * data).p_hat >= base

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            SparsityEstimate(0.5)


def _count_law(model):
    """q = P(|x| >= sqrt(2 log n)) for one two-group coordinate, the count's binomial rate."""
    t = math.sqrt(2.0 * math.log(model.n))
    frac = model.signal_fraction
    return (1.0 - frac) * 2.0 * ndtr(-t) + frac * 2.0 * ndtr(-t / model.alt_sd)


@pytest.fixture
def window_p_hat(monkeypatch):
    """The p_hat arrays verify_condition4 hands to _window_report, one per call."""
    seen = []

    def recording(p_hat, *args):
        seen.append(p_hat)
        return _window_report(p_hat, *args)

    monkeypatch.setattr(adaptive, "_window_report", recording)
    return seen


class TestWindowReport:
    def test_overestimate_fails_upper(self, model):
        report = _window_report(np.full(100, float(model.n)), model, 2.0, 1.0, 2.0, 0.0, 1)
        assert report.freq_lower == 1.0
        assert report.freq_upper == 0.0
        assert not report.passed_upper
        assert not report.passed

    def test_floor_fails_lower_when_bound_exceeds_one(self, model):
        # capital_c_d = 0 keeps the lower bound at p_n >> 1.
        report = _window_report(np.ones(100), model, 2.0, 1.0, 0.0, 0.0, 1)
        assert report.passed_upper
        assert report.lower_bound_value > 1.0
        assert report.freq_lower == 0.0
        # A heavy discount pushes the bound below the floor, so it holds.
        report2 = _window_report(np.ones(100), model, 2.0, 1.0, 3.0, 0.0, 1)
        assert report2.lower_bound_value <= 1.0
        assert report2.freq_lower == 1.0


class TestVerifyCondition4:
    def test_simple_estimator_passes_at_sqrt_n(self, model):
        report = verify_condition4(
            simple_count_estimator, model, c_u=2.0, zeta=0.0, replicates=400, seed=2
        )
        assert report.passed_upper and report.passed_lower

    def test_deterministic_given_seed(self, model):
        a = verify_condition4(simple_count_estimator, model, replicates=200, seed=5)
        b = verify_condition4(simple_count_estimator, model, replicates=200, seed=5)
        assert a == b

    def test_replicate_floor(self, model):
        with pytest.raises(ValueError):
            verify_condition4(simple_count_estimator, model, replicates=10, seed=0)

    def test_record_is_jsonable(self, model):
        import json

        report = verify_condition4(simple_count_estimator, model, replicates=100, seed=0)
        parsed = json.loads(json.dumps(report.to_record()))
        assert parsed["replicates"] == 100

    def test_stand_in_estimator_is_rejected(self, model):
        floor = lambda data: SparsityEstimate(1.0)
        with pytest.raises(ValueError, match="estimator"):
            verify_condition4(floor, model, replicates=100, seed=0)

    def test_one_binomial_count_per_replicate(self, model, window_p_hat, monkeypatch):
        # No full-length draw and no thread pool: one binomial(n, q) draw on (seed, 0, STREAM_ESTIMATOR).
        def forbidden(*args, **kwargs):
            raise AssertionError("verify_condition4 must not draw or map replicates")

        monkeypatch.setattr(TwoGroupModel, "sample", forbidden)
        monkeypatch.setattr(adaptive, "map_replicates", forbidden)
        verify_condition4(simple_count_estimator, model, replicates=200, seed=9)
        counts = substream(9, 0, STREAM_ESTIMATOR).binomial(model.n, _count_law(model), size=200)
        np.testing.assert_array_equal(window_p_hat[0], np.maximum(counts, 1))

    def test_prefix_stable_in_replicates(self, model, window_p_hat):
        verify_condition4(simple_count_estimator, model, replicates=200, seed=9)
        verify_condition4(simple_count_estimator, model, replicates=100, seed=9)
        long, short = window_p_hat
        np.testing.assert_array_equal(long[:100], short)

    def test_count_matches_full_length_draws_in_distribution(self, model, window_p_hat):
        # 400 replicates a side; oracle seed 31, count seed 32.  Both mean p_hat
        # lie within 4 combined SE of each other and of n q (about 7.2 here).
        full = oracles.window_counts_full_mask(model, 400, seed=31)
        verify_condition4(simple_count_estimator, model, replicates=400, seed=32)
        (counts,) = window_p_hat
        se_full, se_counts = (np.std(a, ddof=1) / math.sqrt(len(a)) for a in (full, counts))
        combined = math.hypot(se_full, se_counts)
        expected = model.n * _count_law(model)
        assert abs(full.mean() - counts.mean()) <= 4.0 * combined
        assert abs(full.mean() - expected) <= 4.0 * se_full
        assert abs(counts.mean() - expected) <= 4.0 * se_counts

    @pytest.mark.parametrize("n", [10**4, 10**6, 10**8])
    def test_window_rates_in_n(self, n):
        # p = sqrt(n), 1000 replicates: both events pass, and each frequency lies
        # within 4 SE of its binomial(n, q) probability.
        p = math.sqrt(n)
        big = TwoGroupModel.from_c_psi(n, p, 1.0)
        report = verify_condition4(simple_count_estimator, big, replicates=1000, seed=17)
        assert report.passed
        law = binom(n, _count_law(big))
        p_upper = law.cdf(math.floor(report.c_u * p))
        p_lower = law.sf(math.ceil(report.lower_bound_value) - 1)
        for freq, prob in ((report.freq_upper, p_upper), (report.freq_lower, p_lower)):
            assert abs(freq - prob) <= 4.0 * math.sqrt(prob * (1.0 - prob) / 1000)


class TestAdaptiveThresholdTest:
    def test_zero_data_accepts_everything(self):
        result = adaptive_threshold_test(np.zeros(500), 0.5)
        assert result.estimate.p_hat == 1.0
        assert result.decisions.n_rejections == 0
        assert result.decisions.procedure_id == "adaptive_threshold"

    def test_matches_deterministic_pipeline_at_p_hat(self):
        data = substream(21, 0, 0).standard_normal(400) * 3.0
        result = adaptive_threshold_test(data, 0.5)
        estimate = simple_count_estimator(data)
        assert result.estimate == estimate and estimate.p_hat > 1.0
        reference = threshold_test(ShrinkageCurve(horseshoe_family(400, estimate.p_hat)), data, 0.5)
        np.testing.assert_array_equal(result.decisions.decisions, reference.decisions)
        assert 0 < result.decisions.n_rejections < 400


class TestAdaptiveBounds:
    """The adaptive guarantees: the risk evaluators with the window constants."""

    def test_reduces_to_non_adaptive(self, model):
        prior = horseshoe_prior(0.01, 10**4, 100)
        plain = bayes_risk_bound(prior, model, 0.5, 0.25, 0.5)
        # The window constants at their neutral values leave every bit in place.
        assert bayes_risk_bound(prior, model, 0.5, 0.25, 0.5, c_u=1.0, zeta=0.0) == plain

    def test_window_inflation(self, model):
        prior = horseshoe_prior(0.01, 10**4, 100)
        inflated = bayes_risk_bound(prior, model, 0.5, 0.25, 0.5, c_u=2.0, zeta=0.5)
        plain = bayes_risk_bound(prior, model, 0.5, 0.25, 0.5)
        assert inflated > plain
        for c_u, zeta in ((0.0, 0.0), (1.0, -0.5)):
            with pytest.raises(ValueError, match="zeta"):
                bayes_risk_bound(prior, model, 0.5, 0.25, 0.5, c_u=c_u, zeta=zeta)
        with pytest.raises(ValueError, match="C\\^u"):
            minimax_risk_bound(0.5, 0.5, 1e-3, 0.5, 3.0, c_u=0.0)

    def test_minimax_reduces_to_non_adaptive(self):
        plain = minimax_risk_bound(0.5, 0.5, 1e-3, 0.5, 3.0)
        assert minimax_risk_bound(0.5, 0.5, 1e-3, 0.5, 3.0, c_u=1.0) == plain

    def test_separation_rate_floor(self):
        prior = horseshoe_prior(0.01, 10**4, 100)
        # gamma_n = p_n recovers the non-adaptive rate ...
        assert separation_rate(prior, 100.0, v_n=3.0) == pytest.approx(
            separation_rate(prior, v_n=3.0)
        )
        # ... and gamma_n = 1 stretches the log to the full sample size.
        expected = math.sqrt(4.0 * math.log(10**4)) + 3.0
        assert separation_rate(prior, 1.0, v_n=3.0) == pytest.approx(expected)

    def test_gamma_range(self):
        prior = horseshoe_prior(0.01, 10**4, 100)
        with pytest.raises(ValueError):
            separation_rate(prior, 0.0)


class TestAdaptiveRiskMc:
    def test_deterministic_across_threads(self, model):
        a = adaptive_bayes_risk_mc(model, 0.5, replicates=10, seed=8, threads=1)
        b = adaptive_bayes_risk_mc(model, 0.5, replicates=10, seed=8, threads=4)
        assert a == b

    def test_one_threshold_per_distinct_p_hat(self, model, monkeypatch):
        # Eight threads racing for the same p_hat must not each compute its cut.
        calls = []
        original = ShrinkageCurve.decision_threshold

        def counted(curve, alpha):
            calls.append(curve.prior.p)
            return original(curve, alpha)

        monkeypatch.setattr(ShrinkageCurve, "decision_threshold", counted)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _, p_hats = adaptive_risk_replicates(model, 0.5, 200, seed=3, threads=8)
        finally:
            sys.setswitchinterval(switch)
        assert len(calls) == len(np.unique(p_hats))
        assert sorted(calls) == sorted(np.unique(p_hats))

    def test_close_to_plug_in_truth(self, model):
        # With the estimator pinned near the truth the adaptive risk sits in
        # the same range as the non-adaptive one.
        report = adaptive_bayes_risk_mc(model, 0.5, replicates=30, seed=8)
        assert 50.0 <= report.bayes_risk <= 150.0
