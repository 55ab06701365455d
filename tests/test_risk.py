import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from shrinktest import (
    NumericError,
    RiskReport,
    ScaleMixturePrior,
    ShrinkageCurve,
    SparseSignal,
    TwoGroupModel,
    bayes_risk_analytic,
    bayes_risk_bound,
    adaptive_risk_replicates,
    calibrate_signal_offset,
    exponential_prior,
    fdp_fnp_replicates,
    fdr_fnr_mc,
    flat_signal,
    horseshoe_family,
    horseshoe_prior,
    inverse_gamma_prior,
    minimax_risk_bound,
    miss_probability,
    oracle_comparison_mc,
    oracle_risk,
    separation_magnitude,
    separation_rate,
    two_group_risk_mc,
)
from shrinktest import risk
from shrinktest.risk import standard_error
from shrinktest.rng import substream

import oracles


@pytest.fixture(scope="module")
def model():
    return TwoGroupModel.from_c_psi(10**4, 100, 1.0)


@pytest.fixture(scope="module")
def curve():
    return ShrinkageCurve(horseshoe_prior(0.01, 10**4, 100))


class TestRiskReport:
    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError):
            RiskReport(type1=1.5)
        with pytest.raises(ValueError):
            RiskReport(fdr=-0.1)
        with pytest.raises(ValueError):
            RiskReport(bayes_risk=-2.0)

    def test_rsup_consistency(self):
        with pytest.raises(ValueError, match="rsup"):
            RiskReport(fdr=0.1, fnr=0.2, rsup=0.5)
        report = RiskReport(fdr=0.1, fnr=0.2, rsup=0.3)
        assert report.rsup == pytest.approx(report.fdr + report.fnr)


class TestSparseSignal:
    def test_off_support_exactly_zero(self):
        signal = flat_signal(10, 3, 5.0)
        theta = oracles.signal_vector(signal)
        assert np.count_nonzero(theta) == 3
        assert signal.p_n == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseSignal(5, np.ones(6))  # more values than coordinates
        with pytest.raises(ValueError):
            SparseSignal(5, np.ones((1, 2)))  # not 1-d
        with pytest.raises(ValueError):
            SparseSignal(5, np.array([0.0]))  # zero magnitude
        with pytest.raises(ValueError):
            flat_signal(5, 0, 1.0)


class TestBayesRiskAnalytic:
    def test_zero_cut(self, model):
        report = bayes_risk_analytic(model, 0.0)
        assert report.type1 == pytest.approx(1.0)
        assert report.type2 == pytest.approx(0.0)
        assert report.bayes_risk == pytest.approx(model.n - model.p_n)
        assert report.se("bayes_risk") == 0.0

    def test_huge_cut(self, model):
        report = bayes_risk_analytic(model, 50.0)
        assert report.type1 == pytest.approx(0.0, abs=1e-12)
        assert report.bayes_risk == pytest.approx(model.p_n, rel=1e-9)

    def test_matches_mc(self, model, curve):
        x_star = curve.decision_threshold(0.5)
        analytic = bayes_risk_analytic(model, x_star)
        mc = two_group_risk_mc(model, x_star, draws=200000, seed=17)
        assert abs(analytic.bayes_risk - mc.bayes_risk) <= 3.0 * mc.se("bayes_risk")

    def test_matches_mc_over_random_configurations(self):
        rng = substream(99, 0, 0)
        for rep in range(10):
            n = int(rng.integers(500, 5000))
            p_n = int(rng.integers(5, n // 10))
            c_psi = float(rng.uniform(0.5, 4.0))
            cut = float(rng.uniform(0.5, 5.0))
            m = TwoGroupModel.from_c_psi(n, p_n, c_psi)
            analytic = bayes_risk_analytic(m, cut)
            mc = two_group_risk_mc(m, cut, draws=100000, seed=1000 + rep)
            assert abs(analytic.bayes_risk - mc.bayes_risk) <= 3.0 * mc.se("bayes_risk")

    def test_unimodal_with_oracle_minimizer(self, model):
        # Risk decreases then increases in the cut; the turn sits at the
        # two-group posterior-odds cut up to grid resolution.
        grid = np.arange(0.0, 8.0, 0.02)
        risks = np.array([bayes_risk_analytic(model, x).bayes_risk for x in grid])
        drops = np.diff(risks) < 0
        switches = int(np.sum(np.abs(np.diff(drops.astype(int)))))
        assert switches == 1
        minimizer = grid[int(np.argmin(risks))]
        assert minimizer == pytest.approx(model.oracle_cutoff(), abs=0.02 + 1e-9)

    def test_negative_cut_rejected(self, model):
        with pytest.raises(ValueError):
            bayes_risk_analytic(model, -1.0)


class TestOracleRisk:
    def test_reference_values(self):
        # p_n (2 Phi(sqrt(c_psi)) - 1) at c_psi = 1 and 4.
        assert oracle_risk(TwoGroupModel.from_c_psi(200, 10, 1.0)) == pytest.approx(
            6.826894921370858, abs=1e-9
        )
        assert oracle_risk(TwoGroupModel.from_c_psi(10**4, 100, 4.0)) == pytest.approx(
            95.44997361036415, abs=1e-9
        )

    def test_vanishes_with_c_psi(self):
        assert oracle_risk(TwoGroupModel.from_c_psi(200, 10, 1e-12)) == pytest.approx(
            0.0, abs=1e-5
        )

    def test_risk_at_oracle_cut_approaches_leading_term(self):
        # Growing n with p_n = sqrt(n): the finite-n gap shrinks toward 0.
        gaps = []
        for n in (10**4, 10**5, 10**6):
            m = TwoGroupModel.from_c_psi(n, int(math.isqrt(n)), 4.0)
            risk = bayes_risk_analytic(m, m.oracle_cutoff()).bayes_risk
            gaps.append(risk / oracle_risk(m) - 1.0)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.05


class TestBayesRiskBound:
    def test_formula(self, model):
        prior = horseshoe_prior(0.01, 10**4, 100)
        c, big_c = 0.5, 0.25
        expected = 100.0 * (
            8.0 * math.sqrt(math.pi) * big_c / (c * 0.5)
            + 2.0 * float(norm.cdf(math.sqrt(4.0 * model.c_psi)))
            - 1.0
        )
        assert bayes_risk_bound(prior, model, 0.5, big_c, c) == pytest.approx(expected)

    def test_zero_tail_constant_limit(self, model):
        prior = horseshoe_prior(0.01, 10**4, 100)
        bound = bayes_risk_bound(prior, model, 0.5, 0.0, 0.5)
        assert bound == pytest.approx(
            100.0 * (2.0 * float(norm.cdf(2.0 * math.sqrt(model.c_psi))) - 1.0)
        )

    def test_needs_positive_mass_constant(self, model):
        prior = horseshoe_prior(0.01, 10**4, 100)
        with pytest.raises(ValueError):
            bayes_risk_bound(prior, model, 0.5, 0.25, 0.0)


_DESK_PRIOR = horseshoe_prior(0.01, 10**4, 100)


class TestSeparationRate:
    def test_reference_value(self):
        # K = 1, u0 = 1, n/p = 100: sqrt(4 log 100) = 4.29193...
        assert separation_rate(_DESK_PRIOR) == pytest.approx(4.291932052578694, abs=1e-12)

    def test_v_n_adds_exactly(self):
        assert separation_rate(_DESK_PRIOR, v_n=3.0) == separation_rate(_DESK_PRIOR) + 3.0

    def test_zero_exponent_collapses_to_offset(self):
        prior = exponential_prior(1.0, 10**4, 100)  # declares K = 0
        assert separation_rate(prior, c1=1.25) == 1.25

    def test_explicit_p_argument(self):
        assert separation_rate(_DESK_PRIOR, p=1000.0) < separation_rate(_DESK_PRIOR)

    @pytest.mark.parametrize("prior, kwargs, match", [
        (_DESK_PRIOR, {"p": 10**4}, "p must lie in"),
        (ScaleMixturePrior(log_density=lambda u: -np.asarray(u, dtype=float), n=100, p=10), {},
         "tail exponent"),
        (_DESK_PRIOR, {"c1": -1.0}, "c1"),
    ], ids=["p=n", "no-exponent", "negative-c1"])
    def test_refused(self, prior, kwargs, match):
        with pytest.raises(ValueError, match=match):
            separation_rate(prior, **kwargs)

    def test_empirical_companion(self):
        # Weights stay above 1/2 beyond the calibrated rate.
        curve = ShrinkageCurve(_DESK_PRIOR)
        threshold = separation_rate(_DESK_PRIOR, c1=calibrate_signal_offset(curve, 0.5))
        for x in np.linspace(threshold, threshold + 10.0, 41):
            assert curve.weight(x) >= 0.5 - 1e-9


@pytest.mark.parametrize("call, name", [
    (lambda: separation_rate(_DESK_PRIOR, c1=math.nan), "c1"),
    (lambda: separation_rate(_DESK_PRIOR, v_n=math.nan), "v_n"),
    (lambda: bayes_risk_bound(_DESK_PRIOR, TwoGroupModel.from_c_psi(10**4, 100, 1.0), 0.5, 0.25,
                              0.5, zeta=math.nan), "zeta"),
    (lambda: minimax_risk_bound(0.5, 0.5, 1e-3, 0.5, math.nan), "v_n"),
], ids=["separation_rate-c1", "separation_rate-v_n", "bayes_risk_bound-zeta",
        "minimax_risk_bound-v_n"])
def test_nan_argument_is_refused(call, name):
    # Each returned nan before.
    with pytest.raises(ValueError, match=name):
        call()


# Three families with tau from 1e-8 to 0.1 (tau = p/n for the exponential and inverse-gamma).
_CALIBRATION_PRIORS = {
    f"{name}-tau={tau:g}": make(tau)
    for tau in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1)
    for name, make in (
        ("horseshoe", lambda tau: horseshoe_prior(tau, 10**8, tau * 10**8)),
        ("exponential-rate=1", lambda tau: exponential_prior(1.0, 10**8, tau * 10**8)),
        ("exponential-rate=10", lambda tau: exponential_prior(10.0, 10**8, tau * 10**8)),
        ("inverse_gamma", lambda tau: inverse_gamma_prior(2.0, 1.0, 10**8, tau * 10**8)),
    )
}


class TestCalibrateSignalOffset:
    @pytest.mark.parametrize("name", _CALIBRATION_PRIORS)
    def test_matches_the_weight_scan(self, name):
        curve = ShrinkageCurve(_CALIBRATION_PRIORS[name])
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            try:
                expected = repr(oracles.calibrate_signal_offset_scan(curve, alpha))
            except NumericError:
                expected = "NumericError"
            try:
                got = repr(calibrate_signal_offset(curve, alpha))
            except NumericError:
                got = "NumericError"
            assert got == expected, alpha

    def test_reads_the_decision_threshold(self, monkeypatch):
        alphas = []
        search = ShrinkageCurve.decision_threshold

        def spy(curve, alpha):
            alphas.append(alpha)
            return search(curve, alpha)

        monkeypatch.setattr(ShrinkageCurve, "decision_threshold", spy)
        calibrate_signal_offset(ShrinkageCurve(_DESK_PRIOR), 0.5)
        assert alphas == [0.5]


class TestDetectionWindow:
    def test_detectable_below_universal_threshold(self):
        # With p_n = sqrt(n) the certified rate hits sqrt(2 log n) exactly,
        # and signals at that height are already caught better than chance
        # even though estimation would shrink them.
        n, p = 10**4, 100
        prior = horseshoe_prior(0.01, n, p)
        rho0 = separation_rate(prior)  # c1 = 0, v_n = 0
        assert rho0 == pytest.approx(math.sqrt(2.0 * math.log(n)), abs=1e-12)
        curve = ShrinkageCurve(prior)
        report = fdr_fnr_mc(curve, flat_signal(n, p, rho0), 0.5, replicates=50, seed=6)
        assert report.fnr < 0.5
        assert curve.decision_threshold(0.5) < rho0


class TestMinimaxBound:
    def test_reference_value(self):
        # lam=1/2, alpha=1/2, c=1/2, C=1e-3, v_n=3.
        assert minimax_risk_bound(0.5, 0.5, 1e-3, 0.5, 3.0) == pytest.approx(
            0.10322997002924955, abs=1e-12
        )

    def test_vanishing_limits(self):
        assert minimax_risk_bound(0.5, 0.5, 0.0, 0.5, 40.0) == pytest.approx(0.0, abs=1e-12)

    def test_monotonicity(self):
        lo_v = minimax_risk_bound(0.5, 0.5, 0.1, 0.5, 1.0)
        hi_v = minimax_risk_bound(0.5, 0.5, 0.1, 0.5, 4.0)
        assert hi_v < lo_v
        small_c = minimax_risk_bound(0.5, 0.5, 0.01, 0.5, 3.0)
        large_c = minimax_risk_bound(0.5, 0.5, 1.0, 0.5, 3.0)
        assert small_c < large_c

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            minimax_risk_bound(0.0, 0.5, 0.1, 0.5, 3.0)
        with pytest.raises(ValueError):
            minimax_risk_bound(1.0, 0.5, 0.1, 0.5, 3.0)


class TestFdrFnrMc:
    def test_huge_signals_never_missed(self, curve):
        signal = flat_signal(500, 20, 1e6)
        report = fdr_fnr_mc(curve, signal, 0.5, replicates=10, seed=4)
        assert report.fnr == 0.0

    def test_empty_rejection_regime(self):
        # Tiny signals against a high cut: no rejections, so the 0/1
        # convention pins the false-discovery proportion at zero.
        curve = ShrinkageCurve(horseshoe_prior(1e-6, 10**6, 1))
        signal = flat_signal(100, 5, 1e-3)
        report = fdr_fnr_mc(curve, signal, 0.9, replicates=10, seed=4)
        assert report.fdr == 0.0
        assert report.fnr == 1.0

    def test_reproducible_bit_for_bit(self, curve):
        signal = flat_signal(2000, 40, 5.0)
        a = fdr_fnr_mc(curve, signal, 0.5, replicates=20, seed=12)
        b = fdr_fnr_mc(curve, signal, 0.5, replicates=20, seed=12)
        assert a == b

    def test_rates_in_unit_interval(self, curve):
        signal = flat_signal(2000, 40, 4.0)
        report = fdr_fnr_mc(curve, signal, 0.5, replicates=25, seed=3)
        assert 0.0 <= report.fdr <= 1.0
        assert 0.0 <= report.fnr <= 1.0
        assert report.rsup == pytest.approx(report.fdr + report.fnr)
        assert report.n_replicates == 25

    def test_empty_support_rejected(self, curve):
        empty = SparseSignal(50, np.array([]))
        with pytest.raises(ValueError, match="FNR"):
            fdr_fnr_mc(curve, empty, 0.5, replicates=5, seed=1)


class TestRatesInN:
    def test_rho_n_risk_does_not_grow_with_n(self):
        # p = sqrt(n) at the separation rate (c1 calibrated, v_n = 3), 200
        # replicates per n.  A replicate's cost does not depend on n, so
        # n = 1e8 fits in the stated wall budget of 10 s.
        start = time.monotonic()
        reports = []
        for n in (10**4, 10**6, 10**8):
            p = math.isqrt(n)
            curve = ShrinkageCurve(horseshoe_prior(p / n, n, p))
            rho = separation_magnitude(curve, 0.5, v_n=3.0)
            report = fdr_fnr_mc(curve, flat_signal(n, p, rho), 0.5, replicates=200, seed=19)
            q = miss_probability(curve.decision_threshold(0.5), rho)
            assert abs(report.fnr - q) <= 3.0 * math.sqrt(q * (1.0 - q) / (p * 200)), n
            reports.append(report)
        for a, b in zip(reports, reports[1:]):
            assert b.rsup <= a.rsup + 3.0 * math.hypot(a.se("rsup"), b.se("rsup"))
        assert time.monotonic() - start < 10.0


class TestOracleComparison:
    def test_oracle_not_worse(self, model, curve):
        x_star = curve.decision_threshold(0.5)
        cmp = oracle_comparison_mc(model, x_star, draws=200000, seed=5)
        assert cmp.oracle.bayes_risk <= cmp.threshold.bayes_risk + 3.0 * cmp.risk_diff_se

    def test_deterministic_across_threads(self, model, curve):
        x_star = curve.decision_threshold(0.5)
        a = oracle_comparison_mc(model, x_star, draws=50000, seed=5, threads=1)
        b = oracle_comparison_mc(model, x_star, draws=50000, seed=5, threads=8)
        assert a == b


def _scattered_signal(n: int = 5000, p: int = 60) -> SparseSignal:
    """Mixed-sign magnitudes; the full-mask oracle places them on a scattered support."""
    rng = substream(31, 0, 0)
    values = rng.choice([-1.0, 1.0], p) * rng.uniform(0.5, 6.0, p)
    return SparseSignal(n, values)


class TestCountedKernels:
    """The kernels count on the signal coordinates only.  The FDR + FNR
    replicates draw p_n signal normals and one binomial null count, and
    must match the oracle module's plain-mask version of that layout; the
    other kernels must match the full-length masks on the same draws."""

    @pytest.mark.parametrize("x_star", [2.7, 0.0, 1e3])
    def test_fdp_fnp_match_counts_oracle(self, x_star):
        signal = _scattered_signal()
        assert np.any(signal.values < 0) and np.any(signal.values > 0)
        fdp, fnp = fdp_fnp_replicates(signal, x_star, 12, seed=8)
        want_fdp, want_fnp = oracles.fdp_fnp_counts(signal, x_star, 12, seed=8)
        np.testing.assert_array_equal(fdp, want_fdp)
        np.testing.assert_array_equal(fnp, want_fnp)

    @pytest.mark.parametrize("x_star", [0.0, 1e3])
    def test_fdp_fnp_match_full_masks(self, x_star):
        # Cuts that reject everything or nothing leave no randomness in the counts.
        signal = _scattered_signal()
        assert not np.all(np.diff(oracles.scattered_support(signal.n, signal.p_n)) > 0)
        fdp, fnp = fdp_fnp_replicates(signal, x_star, 12, seed=8)
        want_fdp, want_fnp = oracles.fdp_fnp_full_mask(signal, x_star, 12, seed=8)
        np.testing.assert_array_equal(fdp, want_fdp)
        np.testing.assert_array_equal(fnp, want_fnp)

    def test_fdp_fnp_run_serially_at_any_thread_count(self, monkeypatch):
        # A replicate costs microseconds, so no thread count hands replicates to a pool.
        def forbidden(*args, **kwargs):
            raise AssertionError("fdp_fnp_replicates must not map its replicates")

        monkeypatch.setattr(risk, "map_replicates", forbidden)
        fdp, fnp = fdp_fnp_replicates(_scattered_signal(), 2.7, 12, seed=8)
        want_fdp, want_fnp = oracles.fdp_fnp_counts(_scattered_signal(), 2.7, 12, seed=8)
        np.testing.assert_array_equal(fdp, want_fdp)
        np.testing.assert_array_equal(fnp, want_fnp)

    def test_flat_signal_fnp_matches_full_masks(self):
        # On the first p coordinates the signal takes the full-length draw's first p normals.
        signal = flat_signal(5000, 60, 3.0)
        _, fnp = fdp_fnp_replicates(signal, 2.7, 40, seed=8)
        _, want_fnp = oracles.fdp_fnp_full_mask(signal, 2.7, 40, seed=8, support=np.arange(60))
        np.testing.assert_array_equal(fnp, want_fnp)
        assert 0.0 < fnp.mean() < 1.0

    def test_fdr_fnr_agree_with_full_masks_in_distribution(self):
        # 2,000 replicates per side on independent seeds (41 for the library,
        # 42 for the full-length masks): the means agree within 4 combined SE.
        signal = _scattered_signal()
        fdp, fnp = fdp_fnp_replicates(signal, 2.7, 2000, seed=41)
        want_fdp, want_fnp = oracles.fdp_fnp_full_mask(signal, 2.7, 2000, seed=42)
        for got, want in ((fdp, want_fdp), (fnp, want_fnp)):
            se = math.hypot(standard_error(got), standard_error(want))
            assert se > 0.0
            assert abs(got.mean() - want.mean()) <= 4.0 * se

    def test_zero_cut_rejects_everything(self):
        signal = _scattered_signal()
        fdp, fnp = fdp_fnp_replicates(signal, 0.0, 5, seed=8)
        assert np.all(fdp == (signal.n - signal.p_n) / signal.n)
        assert np.all(fnp == 0.0)

    def test_cut_above_every_draw_rejects_nothing(self):
        # No rejections: FDP is 0 by the max(R, 1) rule and every signal is missed.
        fdp, fnp = fdp_fnp_replicates(_scattered_signal(), 1e3, 5, seed=8)
        assert np.all(fdp == 0.0)
        assert np.all(fnp == 1.0)

    def test_signal_on_every_coordinate(self):
        # No nulls: binomial(0, q) gives no false positives.
        signal = flat_signal(50, 50, 3.0)
        fdp, fnp = fdp_fnp_replicates(signal, 2.7, 20, seed=8)
        want_fdp, want_fnp = oracles.fdp_fnp_counts(signal, 2.7, 20, seed=8)
        assert np.all(fdp == 0.0)
        np.testing.assert_array_equal(fnp, want_fnp)
        np.testing.assert_array_equal(fdp, want_fdp)

    @pytest.mark.parametrize("x_star", [-1.0, -1e-300, math.nan])
    def test_bad_cut_rejected_before_any_draw(self, x_star, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before validating x_star")

        signal = _scattered_signal()
        monkeypatch.setattr(risk, "substreams", no_draws)
        monkeypatch.setattr(np.random, "Philox", no_draws)  # any other route to a draw
        with pytest.raises(ValueError, match="x_star"):
            fdp_fnp_replicates(signal, x_star, 5, seed=8)

    def test_fdp_fnp_builds_at_most_one_philox(self, monkeypatch):
        # The replicates re-key one generator in place of building one each.
        signal = flat_signal(10**4, 100, 5.0)
        want_fdp, want_fnp = oracles.fdp_fnp_counts(signal, 3.0, 200, seed=8)
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        fdp, fnp = fdp_fnp_replicates(signal, 3.0, 200, seed=8)
        assert len(built) <= 1
        np.testing.assert_array_equal(fdp, want_fdp)
        np.testing.assert_array_equal(fnp, want_fnp)

    def test_fdr_fnr_report_matches_counts_oracle(self, curve):
        signal = _scattered_signal()
        report = fdr_fnr_mc(curve, signal, 0.5, replicates=15, seed=21)
        fdp, fnp = oracles.fdp_fnp_counts(signal, curve.decision_threshold(0.5), 15, seed=21)
        assert report == RiskReport(
            fdr=float(fdp.mean()), fnr=float(fnp.mean()),
            rsup=float(fdp.mean()) + float(fnp.mean()),
            mc_standard_errors={
                "fdr": standard_error(fdp), "fnr": standard_error(fnp),
                "rsup": standard_error(fdp + fnp),
            },
            n_replicates=15,
        )

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_oracle_comparison_matches_full_masks(self, model, shift, threads):
        # The oracle cut sits above x* for shift = -1 and below it for +1.
        x_star = model.oracle_cutoff() + shift
        got = oracle_comparison_mc(model, x_star, draws=60000, seed=13, threads=threads)
        assert got == oracles.oracle_comparison_full_mask(
            model, x_star, 60000, seed=13, sample=oracles.two_group_sample_counts)
        assert got.risk_diff_se > 0.0

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("draws", [40, 70001])
    def test_two_group_risk_matches_full_masks(self, model, draws, threads):
        # 40 draws leave most of the 64 batches empty.
        x_star = model.oracle_cutoff()
        got = two_group_risk_mc(model, x_star, draws=draws, seed=3, threads=threads)
        want = oracles.oracle_comparison_full_mask(
            model, x_star, draws, seed=3, sample=oracles.two_group_sample_counts).threshold
        assert got == want

    def test_two_group_counts_agree_with_full_masks_in_distribution(self, model):
        # One binomial signal count replaces a uniform label per draw.  Over
        # 200 seeds of 5,000 draws per side (the kernel on seeds 0-199, the
        # uniform-label masks on 200-399), the mean signal, fp and fn counts
        # per seed agree with each other within 4 combined SE, and each side
        # with bayes_risk_analytic within 4 SE.
        cuts, m, seeds = (2.5, model.oracle_cutoff()), 5000, 200
        got = np.vstack([risk._two_group_counts(model, cuts, m, seed, 1, batches=1)
                         for seed in range(seeds)])[:, 1:]
        want = np.array([[n_signal, *fp_fn.ravel()] for fp_fn, _, n_signal, _ in (
            oracles.two_group_counts_full_mask(model, cuts, m, seed, batches=1)
            for seed in range(seeds, 2 * seeds))])
        f = model.signal_fraction
        exact = [m * f]
        for cut in cuts:
            rates = bayes_risk_analytic(model, cut)
            exact += [m * (1.0 - f) * rates.type1, m * f * rates.type2]
        for column, mean in enumerate(exact):
            a, b = got[:, column].astype(float), want[:, column].astype(float)
            se_a, se_b = standard_error(a), standard_error(b)
            assert se_a > 0.0 and se_b > 0.0
            assert abs(a.mean() - b.mean()) <= 4.0 * math.hypot(se_a, se_b)
            assert abs(a.mean() - mean) <= 4.0 * se_a
            assert abs(b.mean() - mean) <= 4.0 * se_b

    def test_sample_returns_the_label_mask_indices(self, model):
        x, signal_idx = model.sample(substream(5, 0, 1), 20000)
        want_x, is_signal = oracles.two_group_sample_mask(model, substream(5, 0, 1), 20000)
        np.testing.assert_array_equal(x, want_x)
        np.testing.assert_array_equal(signal_idx, np.flatnonzero(is_signal))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_adaptive_losses_match_full_masks(self, model, threads):
        got = adaptive_risk_replicates(model, 0.5, 6, seed=2, threads=threads)
        want = oracles.adaptive_losses_full_mask(horseshoe_family, model, 0.5, 6, seed=2)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
