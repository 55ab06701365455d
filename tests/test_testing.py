import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import norm

from shrinktest import (
    ShrinkageCurve,
    TwoGroupModel,
    adaptive_threshold_test,
    bayes_oracle_test,
    benjamini_hochberg,
    horseshoe_prior,
    threshold_test,
)
from shrinktest.rng import substream

import oracles


@pytest.fixture(scope="module")
def curve():
    return ShrinkageCurve(horseshoe_prior(0.01, 10**4, 100))


# Each procedure as a function of the data alone.
PROCEDURES = {
    "threshold": lambda data: threshold_test(
        ShrinkageCurve(horseshoe_prior(0.01, 10**4, 100)), data, 0.5),
    "bayes_oracle": lambda data: bayes_oracle_test(TwoGroupModel.from_c_psi(10**4, 100, 1.0), data),
    "benjamini_hochberg": lambda data: benjamini_hochberg(data, 0.1),
    "adaptive_threshold": lambda data: adaptive_threshold_test(data, 0.5),
}


@pytest.mark.parametrize("name", PROCEDURES)
def test_returns_a_boolean_mask_of_the_data_shape(name):
    data = substream(4, 0, 0).standard_normal(300) * 3.0
    out = PROCEDURES[name](data)
    assert isinstance(out, np.ndarray) and out.dtype == bool and out.shape == data.shape
    assert 0 < out.sum() < len(data)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", PROCEDURES)
def test_refuses_non_finite_data(name, bad):
    # The two baselines left a nan unrejected, and BH counted it in n.
    with pytest.raises(ValueError, match="data must be finite"):
        PROCEDURES[name](np.array([bad, 8.0, 0.1, 9.0]))


@pytest.mark.parametrize("name", PROCEDURES)
def test_refuses_data_that_is_not_a_vector(name):
    # BH ranked a 2 x 2 array row by row and returned a mask of length 2.
    with pytest.raises(ValueError, match="data must be a vector"):
        PROCEDURES[name](np.array([[9.0, 0.1], [0.2, 8.0]]))


class TestThresholdTest:
    def test_all_zero_data_accepts(self, curve):
        out = threshold_test(curve, np.zeros(50), 0.5)
        np.testing.assert_array_equal(out, np.zeros(50, dtype=bool))

    def test_huge_entry_rejected(self, curve):
        data = np.zeros(20)
        data[7] = 1e6
        out = threshold_test(curve, data, 0.5)
        assert np.flatnonzero(out).tolist() == [7]

    def test_rejection_fraction_under_null(self, curve):
        data = substream(0, 0, 0).standard_normal(10**4)
        out = threshold_test(curve, data, 0.5)
        x_star = curve.decision_threshold(0.5)
        expected = 2.0 * float(norm.sf(x_star))
        band = 3.0 * math.sqrt(expected * (1.0 - expected) / 10**4)
        assert abs(out.sum() / 10**4 - expected) <= band

    def test_depends_on_magnitudes_only(self, curve):
        data = substream(1, 0, 0).standard_normal(200) * 3.0
        flipped = -data
        a = threshold_test(curve, data, 0.5)
        b = threshold_test(curve, flipped, 0.5)
        np.testing.assert_array_equal(a, b)

    def test_rejections_nest_in_alpha(self, curve):
        data = substream(2, 0, 0).standard_normal(500) * 4.0
        loose = threshold_test(curve, data, 0.25)
        strict = threshold_test(curve, data, 0.75)
        assert not (strict & ~loose).any()

    def test_agrees_with_direct_weight_comparison(self, curve):
        data = substream(3, 0, 0).standard_normal(1000) * 4.0
        out = threshold_test(curve, data, 0.5)
        for i, x in enumerate(data):
            m = curve.weight(float(x))
            if abs(m - 0.5) > 1e-8:
                assert out[i] == (m > 0.5)



class TestTwoGroupModel:
    def test_from_c_psi_relation(self):
        model = TwoGroupModel.from_c_psi(10**4, 100, 1.0)
        assert model.psi_sq == pytest.approx(math.log(100.0))
        assert model.psi_sq == math.log(10**4 / 100) / 1.0
        assert model == TwoGroupModel(10**4, 100, 1.0)
        assert model.signal_fraction == pytest.approx(0.01)
        assert model.alt_sd == pytest.approx(math.sqrt(1.0 + math.log(100.0)))

    def test_from_psi_sq_relation(self):
        model = TwoGroupModel.from_c_psi(10**4, 100, math.log(100.0) / 4.0)
        assert model.psi_sq == pytest.approx(4.0)
        assert model.psi_sq == math.log(10**4 / 100) / model.c_psi
        assert model.c_psi == pytest.approx(math.log(100.0) / 4.0)

    def test_degenerate_psi_rejected(self):
        # c_psi = inf gives psi_sq = 0: no signal variance.
        with pytest.raises(ValueError, match="psi_sq"):
            TwoGroupModel.from_c_psi(100, 10, math.inf)
        with pytest.raises(TypeError):
            TwoGroupModel(n=100, p_n=10, c_psi=1.0, psi_sq=5.0)

    def test_invalid_sparsity(self):
        with pytest.raises(ValueError):
            TwoGroupModel.from_c_psi(100, 0, 1.0)
        with pytest.raises(ValueError):
            TwoGroupModel.from_c_psi(100, 100, 1.0)


class TestBayesOracle:
    def test_cutoff_matches_posterior_odds_root(self):
        model = TwoGroupModel.from_c_psi(200, 10, 1.0)
        cut = model.oracle_cutoff()
        root = oracles.posterior_odds_root(200, 10, model.psi_sq)
        assert cut * cut == pytest.approx(root * root, abs=1e-10)

    def test_cutoff_grows_with_large_psi_sq(self):
        # For strong signals the squared cut tracks log(1+psi^2) + 2 log odds.
        cuts_sq = [
            TwoGroupModel.from_c_psi(200, 10, math.log(20.0) / psi_sq).oracle_cutoff() ** 2
            for psi_sq in (16.0, 64.0, 256.0, 1024.0)
        ]
        assert all(b > a for a, b in zip(cuts_sq, cuts_sq[1:]))
        asymptote = math.log(1.0 + 1024.0) + 2.0 * math.log(190.0 / 10.0)
        assert cuts_sq[-1] == pytest.approx(asymptote, rel=0.01)

    def test_dense_regime_collapses_to_zero(self):
        # p_n close to n turns the prior odds against the null; with a log
        # term negative enough the cut hits the floor and everything rejects.
        model = TwoGroupModel.from_c_psi(100, 99, math.log(100 / 99) / 0.05)
        assert model.oracle_cutoff() == 0.0
        out = bayes_oracle_test(model, np.zeros(100))
        assert out.all()

    def test_decisions(self):
        model = TwoGroupModel.from_c_psi(200, 10, 1.0)
        cut = model.oracle_cutoff()
        data = np.array([0.0, cut - 1e-9, cut + 1e-9, -cut - 1.0])
        out = bayes_oracle_test(model, data)
        assert out.tolist() == [False, False, True, True]


class TestBenjaminiHochberg:
    def test_all_zero_no_rejections(self):
        out = benjamini_hochberg(np.zeros(30), 0.1)
        assert not out.any()

    def test_single_huge_entry(self):
        data = np.zeros(100)
        data[42] = 1e6
        out = benjamini_hochberg(data, 0.1)
        assert np.flatnonzero(out).tolist() == [42]

    def test_matches_exhaustive_step_up(self):
        data = substream(5, 0, 0).standard_normal(20) * 2.5
        out = benjamini_hochberg(data, 0.2)
        pvals = 2.0 * norm.sf(np.abs(data))
        np.testing.assert_array_equal(out, oracles.step_up_reference(pvals, 0.2))

    @settings(max_examples=50, deadline=None)
    @given(
        hst.lists(hst.floats(-6.0, 6.0), min_size=1, max_size=40),
        hst.floats(0.01, 0.99),
    )
    def test_always_matches_reference(self, values, q):
        data = np.array(values)
        out = benjamini_hochberg(data, q)
        pvals = 2.0 * norm.sf(np.abs(data))
        np.testing.assert_array_equal(out, oracles.step_up_reference(pvals, q))

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            benjamini_hochberg(np.zeros(5), 0.0)
        with pytest.raises(ValueError):
            benjamini_hochberg(np.zeros(5), 1.0)
