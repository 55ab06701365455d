import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from shrinktest import (
    AlwaysReject,
    NoCrossing,
    NumericError,
    ScaleMixturePrior,
    ShrinkageCurve,
    calibrate_signal_offset,
    exponential_prior,
    horseshoe_prior,
    inverse_gamma_prior,
    large_signal_threshold,
)

import oracles


def box_prior():
    """Uniform variance density on (0, 0.1): discontinuous at u = 0.1."""

    def log_density(u):
        u = np.asarray(u, dtype=float)
        return np.where((u > 0.0) & (u < 0.1), math.log(10.0), -np.inf)

    return ScaleMixturePrior(log_density=log_density, n=100, p=10)


# The five priors of the benchmark's curve workload.
CURVE_PRIORS = [
    horseshoe_prior(1e-1, 10**4, 100),
    horseshoe_prior(1e-3, 10**4, 100),
    horseshoe_prior(1e-6, 10**4, 100),
    exponential_prior(1.0, 10**4, 100),
    inverse_gamma_prior(2.0, 1.0, 10**4, 100),
]
CURVE_IDS = ["hs-1e-1", "hs-1e-3", "hs-1e-6", "exponential", "inverse_gamma"]

BUILTIN_PRIORS = hst.one_of(
    hst.floats(-8.0, 0.0).map(lambda e: horseshoe_prior(10.0**e, 1000, 50)),
    hst.floats(-2.0, 2.0).map(lambda e: exponential_prior(10.0**e, 1000, 50)),
    hst.tuples(hst.floats(0.5, 10.0), hst.floats(0.5, 10.0)).map(
        lambda ab: inverse_gamma_prior(ab[0], ab[1], 1000, 50)
    ),
)

# Every built-in family at a sparsity tau = p/n log-uniform in [1e-8, 0.3];
# the horseshoe takes tau as its own scale.
SPARSITY = hst.floats(-8.0, math.log10(0.3)).map(lambda e: 10.0**e)
SPARSE_PRIORS = hst.one_of(
    SPARSITY.map(lambda tau: horseshoe_prior(tau, 10**8, tau * 10**8)),
    hst.tuples(SPARSITY, hst.floats(-1.0, 1.5)).map(
        lambda a: exponential_prior(10.0 ** a[1], 10**8, a[0] * 10**8)
    ),
    hst.tuples(SPARSITY, hst.floats(0.5, 10.0), hst.floats(0.5, 10.0)).map(
        lambda a: inverse_gamma_prior(a[1], a[2], 10**8, a[0] * 10**8)
    ),
)


@pytest.fixture(scope="module")
def hs_curve():
    return ShrinkageCurve(horseshoe_prior(0.05, 1000, 50))


@pytest.fixture(scope="module")
def hs_oracle():
    return oracles.TrapezoidShrinkageOracle(horseshoe_prior(0.05, 1000, 50))


class TestWeight:
    @pytest.mark.parametrize("x", [0.0, 0.7, 1.0, 2.5, 5.0, 17.3])
    def test_symmetric_in_x(self, hs_curve, x):
        assert hs_curve.weight(x) == hs_curve.weight(-x)

    def test_range_and_monotonicity(self, hs_curve):
        grid = np.linspace(0.0, 22.0, 181)
        vals = hs_curve.weights(grid)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_matches_trapezoid_oracle(self, hs_curve, hs_oracle):
        for x in range(11):
            assert hs_curve.weight(float(x)) == pytest.approx(
                hs_oracle.weight(float(x)), abs=1e-6
            )

    def test_overflow_free_at_300(self, hs_curve):
        m = hs_curve.weight(300.0)
        assert 0.999 < m <= 1.0
        # Extended-precision oracle evaluates the raw (uncancelled) form.
        assert m == pytest.approx(oracles.mp_shrinkage_weight(0.05, 300.0), abs=1e-9)

    def test_exponential_tail_underflow_guarded(self):
        # With an exponential prior both integrands decay like
        # exp(-x sqrt(2 rate)); the shared-scale normalization keeps the
        # ratio exact where the unnormalized form would underflow.
        curve = ShrinkageCurve(exponential_prior(1.0, 1000, 50))
        assert curve.weight(100.0) == pytest.approx(
            oracles.mp_shrinkage_weight_exponential(1.0, 100.0), abs=1e-9
        )

    @pytest.mark.parametrize(
        "prior",
        [exponential_prior(1.0, 1000, 50), inverse_gamma_prior(2.0, 1.0, 1000, 50)],
        ids=["exponential", "inverse_gamma"],
    )
    def test_other_families_match_oracle(self, prior):
        curve = ShrinkageCurve(prior)
        oracle = oracles.TrapezoidShrinkageOracle(prior, nodes=10**6)
        for x in (0.0, 1.5, 4.0, 9.0, 20.0):
            assert curve.weight(x) == pytest.approx(oracle.weight(x), abs=1e-6)

    def test_rejects_non_finite_x(self, hs_curve):
        with pytest.raises(ValueError):
            hs_curve.weight(math.inf)
        with pytest.raises(ValueError):
            hs_curve.weight(math.nan)

    def test_saturates_for_moderate_tau(self):
        for tau in (1e-6, 1e-4, 1e-2, 1.0):
            curve = ShrinkageCurve(horseshoe_prior(tau, 100, 10))
            assert curve.weight(50.0) >= 0.999


class TestFixedNodeKernel:
    """The fast kernel against its panel fallback and QUADPACK, and its invariants."""

    @settings(deadline=None, derandomize=True)
    @given(
        prior=hst.one_of(BUILTIN_PRIORS, SPARSE_PRIORS),
        xs=hst.lists(hst.floats(-300.0, 300.0), min_size=1, max_size=3),
    )
    def test_agrees_with_adaptive(self, prior, xs):
        curve = ShrinkageCurve(prior)
        fast = curve.weights(xs)
        slow = np.array([curve.adaptive_weight(x) for x in xs])
        assert np.max(np.abs(fast - slow)) <= 1e-9
        quadpack = np.array([oracles.quadpack_weight(prior, x) for x in xs])
        assert np.max(np.abs(fast - quadpack)) <= 1e-9

    def test_discontinuous_prior_falls_back_to_adaptive(self):
        curve = ShrinkageCurve(box_prior())
        xs = [0.0, 1.0, 3.0, 10.0]
        fast = curve.weights(xs)
        assert curve.fallbacks == len(xs)
        assert np.array_equal(fast, [curve.adaptive_weight(x) for x in xs])

    @pytest.mark.parametrize("x", [0.0, 1.0, 3.0, 10.0])
    def test_box_prior_fallback_matches_mpmath(self, x):
        # The density jumps at u = 0.1; mpmath takes it as a breakpoint.
        curve = ShrinkageCurve(box_prior())
        exact = oracles._mp_weight(lambda u: 10 if u < 0.1 else 0, x, 30, spike=0.1)
        assert abs(curve.adaptive_weight(x) - exact) <= 1e-10

    @pytest.mark.parametrize("rate", [0.01, 1.0, 10.0])
    def test_exponential_matches_laplace_closed_form(self, rate):
        # The exponential variance mixture is the Laplace prior.  At rates
        # 1 and 10 the values from x = 150 on are fallbacks.
        curve = ShrinkageCurve(exponential_prior(rate, 1000, 50))
        xs = [0.0, 0.5, 5.0, 40.0, 150.0, 300.0]
        exact = [oracles.laplace_weight(rate, x) for x in xs]
        assert np.max(np.abs(curve.weights(xs) - exact)) <= 1e-12
        assert np.max(np.abs([curve.adaptive_weight(x) for x in xs] - np.array(exact))) <= 1e-12

    def test_laplace_oracle_matches_mpmath_quadrature(self):
        for rate, x in ((0.01, 0.0), (1.0, 2.5), (10.0, 40.0)):
            assert oracles.laplace_weight(rate, x) == pytest.approx(
                oracles.mp_shrinkage_weight_exponential(rate, x), abs=1e-14
            )

    @pytest.mark.parametrize("prior", [box_prior(), exponential_prior(1.0, 1000, 50)],
                             ids=["box", "exponential"])
    def test_far_fallback_raises_no_warning(self, prior):
        curve = ShrinkageCurve(prior)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = curve.weights([150.0, 200.0, 300.0])
        assert curve.fallbacks == 3
        assert np.all((m > 0.0) & (m <= 1.0)) and np.all(np.diff(m) >= 0.0)

    @pytest.mark.parametrize("prior", CURVE_PRIORS, ids=CURVE_IDS)
    def test_no_fallback_on_curve_priors(self, prior):
        curve = ShrinkageCurve(prior)
        curve.weights(np.linspace(0.0, 25.0, 1000))
        assert curve.fallbacks == 0

    def test_fallback_count_is_read_only(self):
        curve = ShrinkageCurve(box_prior())
        with pytest.raises(AttributeError):
            curve.fallbacks = 0

    def test_fallback_count_under_threads(self):
        # At these x the exponential prior's peak in t is narrower than the
        # node step, so every value falls back; no increment may be lost.
        curve = ShrinkageCurve(exponential_prior(1.0, 1000, 50))
        xs = [150.0, 200.0, 300.0]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=curve.weights, args=(xs,)) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert curve.fallbacks == 8 * len(xs)

    @pytest.mark.parametrize("prior", CURVE_PRIORS, ids=CURVE_IDS)
    def test_one_value_per_x(self, prior):
        curve = ShrinkageCurve(prior)
        grid = np.linspace(-30.0, 30.0, 1000)
        batch = curve.weights(grid)
        single = np.array([curve.weight(x) for x in grid])
        assert np.array_equal(batch, single)
        assert np.array_equal(single, [curve.weight(-x) for x in grid])

        results = [None] * 8

        def worker(i):
            results[i] = curve.weights(grid)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(r, batch) for r in results)


class TestPosteriorMean:
    def test_zero_at_zero(self, hs_curve):
        assert hs_curve.posterior_mean(0.0) == 0.0

    @pytest.mark.parametrize("x", [0.5, 2.0, 7.7])
    def test_odd(self, hs_curve, x):
        assert hs_curve.posterior_mean(-x) == -hs_curve.posterior_mean(x)

    def test_contracts(self, hs_curve):
        for x in np.linspace(-12.0, 12.0, 25):
            assert abs(hs_curve.posterior_mean(x)) <= abs(x)

    def test_large_signal_barely_shrunk(self, hs_curve, hs_oracle):
        # m_8 is above 7/8 (oracle concurs), so the shrinkage bias is below 1.
        m8 = hs_oracle.weight(8.0)
        assert m8 >= 7.0 / 8.0
        assert hs_curve.posterior_mean(8.0) == pytest.approx(8.0 * m8, abs=1e-5)
        assert abs(hs_curve.posterior_mean(8.0) - 8.0) <= 1.0


class TestDecisionThreshold:
    def test_round_trip(self, hs_curve):
        for alpha in (0.1, 0.25, 0.5, 0.75, 0.9):
            x_star = hs_curve.decision_threshold(alpha)
            assert abs(hs_curve.weight(x_star) - alpha) <= 1e-9

    def test_monotone_in_alpha(self, hs_curve):
        alphas = (0.05, 0.2, 0.5, 0.8, 0.95)
        cuts = [hs_curve.decision_threshold(a) for a in alphas]
        assert all(b >= a for a, b in zip(cuts, cuts[1:]))

    def test_crossing_separates_decisions(self, hs_curve):
        # Strictly below the crossing the rule accepts, above it rejects.
        x_star = hs_curve.decision_threshold(0.5)
        for dx in (0.01, 0.1, 1.0):
            assert hs_curve.weight(x_star - dx) < 0.5
            assert hs_curve.weight(x_star + dx) > 0.5

    def test_matches_oracle_bisection(self):
        # Frozen from bisection on the 1e6-node trapezoid weight.
        curve = ShrinkageCurve(horseshoe_prior(10 / 200, 200, 10))
        x_star = curve.decision_threshold(0.5)
        assert x_star == pytest.approx(3.5205630043, abs=1e-8)
        n_over_p = 200 / 10
        assert math.sqrt(2 * math.log(n_over_p)) - 2 <= x_star <= math.sqrt(2 * math.log(200)) + 2

    def test_always_reject(self):
        curve = ShrinkageCurve(horseshoe_prior(10.0, 100, 10))
        assert curve.weight(0.0) > 0.5
        with pytest.raises(AlwaysReject):
            curve.decision_threshold(0.5)

    def test_no_crossing(self):
        curve = ShrinkageCurve(box_prior())
        # Weights saturate near 0.1/1.1, far below 1/2.
        with pytest.raises(NoCrossing):
            curve.decision_threshold(0.5)

    def test_invalid_alpha(self, hs_curve):
        for alpha in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                hs_curve.decision_threshold(alpha)

    def test_refuses_non_monotone_fallback_curve(self):
        curve = ShrinkageCurve(box_prior())
        # Every x of the box prior falls back, here to a step function
        # that drops from 0.8 to 0.45 at |x| = 4.
        curve.adaptive_weight = lambda x: (0.2, 0.8, 0.45, 0.9)[min(int(abs(x) // 2), 3)]
        with pytest.raises(NumericError, match="not monotone"):
            curve.decision_threshold(0.5)

    @staticmethod
    def _batch_sizes(curve):
        """Record the number of x in every batch the curve evaluates."""
        sizes = []
        evaluate = curve._evaluate

        def recording(xs):
            sizes.append(len(xs))
            return evaluate(xs)

        curve._evaluate = recording
        return sizes

    @pytest.mark.parametrize("prior", CURVE_PRIORS, ids=CURVE_IDS)
    def test_fixed_node_search_skips_monotone_grid(self, prior):
        curve = ShrinkageCurve(prior)
        sizes = self._batch_sizes(curve)
        curve.decision_threshold(0.5)
        assert max(sizes) <= 2
        assert curve.fallbacks == 0

    def test_fallback_search_checks_monotone_grid(self):
        # At alpha = 0.9 the search reaches |x| ~ 45, where the
        # exponential prior's peak is narrower than the node step.
        curve = ShrinkageCurve(exponential_prior(10.0, 10**4, 100))
        sizes = self._batch_sizes(curve)
        curve.decision_threshold(0.9)
        assert curve.fallbacks > 0
        assert sizes.count(65) == 1

    def test_same_threshold_across_threads(self):
        curve = ShrinkageCurve(horseshoe_prior(0.05, 1000, 50))
        results = [None] * 8

        def worker(i):
            results[i] = curve.decision_threshold(0.5)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({repr(r) for r in results}) == 1


class TestThresholdSearch:
    """The Newton search against the oracle bisection, and its cost."""

    @settings(deadline=None, derandomize=True, max_examples=200)
    @given(prior=SPARSE_PRIORS, alpha=hst.floats(0.05, 0.95))
    def test_agrees_with_oracle_in_few_kernel_calls(self, prior, alpha):
        curve = ShrinkageCurve(prior)
        calls = []
        fixed_nodes = curve._fixed_nodes

        def counted(*args):
            calls.append(len(args[0]))
            return fixed_nodes(*args)

        curve._fixed_nodes = counted
        reference = oracles.ReferenceCurve(prior)
        try:
            x_star = curve.decision_threshold(alpha)
        except AlwaysReject:
            assert reference.weight(0.0) >= alpha - 1e-9
            return
        except NoCrossing:
            assert reference.weight(2.0 * curve.search_cap()) < alpha + 1e-9
            return
        assert x_star == pytest.approx(reference.bisect_threshold(alpha), abs=1e-8)
        # A search that fell back also pays an adaptive integration per
        # point and the monotone grid; the fallback test below bounds it.
        if curve.fallbacks == 0:
            assert len(calls) <= 20

    def test_tiny_tau_matches_mpmath(self):
        # At tau = 1e-8 the spike sits at u ~ 1e-16; the kernel resolves it
        # with no fallback from x = 0 to 300.
        curve = ShrinkageCurve(horseshoe_prior(1e-8, 10**8, 1))
        xs = [0.0, 5.0, 6.740368, 20.0, 300.0]
        got = curve.weights(xs)
        for x, m in zip(xs, got):
            assert m == pytest.approx(oracles.mp_shrinkage_weight(1e-8, x, dps=25), abs=1e-12)
        assert curve.decision_threshold(0.5) == pytest.approx(6.740368, abs=1e-6)
        assert curve.fallbacks == 0

    def test_fallback_search_uses_secant_steps(self):
        # Past |x| ~ 40 the exponential prior at rate 10 falls back, so the
        # search near x* ~ 44.7 runs on adaptive values without node slopes.
        curve = ShrinkageCurve(exponential_prior(10.0, 10**4, 100))
        x_star = curve.decision_threshold(0.9)
        assert curve.fallbacks > 0
        assert curve.fallbacks <= 20
        assert abs(curve.adaptive_weight(x_star) - 0.9) <= 1e-10

    def test_fallback_search_matches_laplace_root(self):
        # With lam = sqrt(2 rate) the Laplace closed form is
        # m_x = 1 - lam / x up to terms of order e^{-(x - lam)^2 / 2}, so
        # x*(0.9) = 10 lam = 10 sqrt(20) at rate 10 to double precision.
        curve = ShrinkageCurve(exponential_prior(10.0, 10**4, 100))
        root = 10.0 * math.sqrt(20.0)
        assert oracles.laplace_weight(10.0, root) == pytest.approx(0.9, abs=1e-15)
        assert abs(curve.decision_threshold(0.9) - root) <= 1e-13


class TestLargeSignalThreshold:
    def test_declared_constant_value(self):
        # K=1, u0=1, n/p=100: sqrt(4 log 100) = 4.29193...
        prior = horseshoe_prior(0.01, 10**4, 100)
        assert large_signal_threshold(prior) == pytest.approx(4.291932052578694, abs=1e-12)

    def test_zero_exponent_collapses_to_offset(self):
        prior = exponential_prior(1.0, 10**4, 100)  # declares K = 0
        assert large_signal_threshold(prior, c1=1.25) == 1.25

    def test_explicit_p_argument(self):
        prior = horseshoe_prior(0.01, 10**4, 100)
        t_small = large_signal_threshold(prior, p=1000.0)
        assert t_small < large_signal_threshold(prior)
        with pytest.raises(ValueError):
            large_signal_threshold(prior, p=10**4)

    def test_missing_exponent(self):
        prior = ScaleMixturePrior(
            log_density=lambda u: -np.asarray(u, dtype=float), n=100, p=10
        )
        with pytest.raises(ValueError, match="tail exponent"):
            large_signal_threshold(prior)

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            large_signal_threshold(horseshoe_prior(0.01, 10**4, 100), c1=-1.0)

    def test_empirical_companion(self):
        # Weights stay above 1/2 beyond the calibrated threshold.
        prior = horseshoe_prior(0.01, 10**4, 100)
        curve = ShrinkageCurve(prior)
        c1 = calibrate_signal_offset(curve, 0.5, n_grid=128)
        threshold = large_signal_threshold(prior, c1=c1)
        for x in np.linspace(threshold, threshold + 10.0, 41):
            assert curve.weight(x) >= 0.5 - 1e-9
