import math

import numpy as np
import pytest
from scipy.special import exp1

from oracles import (
    integrate_finite,
    integrate_half_line,
    integrate_tail,
    integrate_unit,
    integrate_unit_vec,
)
from shrinktest.quadrature import QuadratureError, integrate_log_panels


class TestHalfLine:
    def test_exponential_moments(self):
        assert integrate_half_line(lambda u: math.exp(-u)) == pytest.approx(1.0, rel=1e-9)
        assert integrate_half_line(lambda u: u * math.exp(-u)) == pytest.approx(1.0, rel=1e-9)

    def test_half_cauchy_density(self):
        # The variance density tau/(pi sqrt(u)(tau^2+u)) integrates to one,
        # singular endpoint and heavy tail included.
        tau = 0.02
        assert integrate_half_line(
            lambda u: tau / (math.pi * math.sqrt(u) * (tau * tau + u))
        ) == pytest.approx(1.0, rel=1e-9)

    def test_breakpoint_hint(self):
        val = integrate_half_line(lambda u: math.exp(-u), points_u=[3.0])
        assert val == pytest.approx(1.0, rel=1e-9)


class TestTail:
    def test_exponential_tail(self):
        assert integrate_tail(lambda u: math.exp(-u), 2.5) == pytest.approx(
            math.exp(-2.5), rel=1e-9
        )

    def test_polynomial_tail(self):
        assert integrate_tail(lambda u: u**-2.0, 4.0) == pytest.approx(0.25, rel=1e-9)


class TestUnitInterval:
    def test_sqrt_singularities_both_ends(self):
        # beta(1/2, 1/2): integral of 1/sqrt(z(1-z)) over (0,1) is pi.
        val = integrate_unit(lambda z, omz: 1.0 / math.sqrt(z * omz))
        assert val == pytest.approx(math.pi, rel=1e-9)

    def test_vector_components_share_mesh(self):
        val = integrate_unit_vec(lambda z, omz: np.array([1.0, z, z * z]))
        np.testing.assert_allclose(val, [1.0, 0.5, 1.0 / 3.0], rtol=1e-9)


class TestFiniteInterval:
    def test_basic(self):
        assert integrate_finite(lambda u: u, 0.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_finite(lambda u: u, 2.0, 2.0)


class TestNonConvergence:
    def test_noisy_integrand_raises_with_achieved_error(self):
        rng = np.random.default_rng(0)

        def noisy(z, omz):
            return float(rng.normal())

        with pytest.raises(QuadratureError) as err:
            integrate_unit(noisy, rel_tol=1e-12)
        assert err.value.achieved is not None


class TestLogPanels:
    def test_gaussian_over_the_line(self):
        value, error = integrate_log_panels(lambda t: -0.5 * t * t, -math.inf, math.inf)
        assert value == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-14)
        assert 0.0 <= error <= 1e-9 * value

    def test_boundary_layer_is_refined(self):
        # exp(-100 e^t) falls by a factor e within 0.01 of t = 0, far
        # inside the first panel; its integral over t >= 0 is E1(100).
        value, _ = integrate_log_panels(lambda t: -100.0 * np.exp(t), 0.0, 10.0)
        assert value == pytest.approx(exp1(100.0), rel=1e-12)

    def test_slow_tail_at_the_cut_raises(self):
        # e^{-t/100} is still e^{-7} at the upper cut t = 700.
        with pytest.raises(QuadratureError, match="not negligible"):
            integrate_log_panels(lambda t: -0.01 * t, 0.0, math.inf)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureError, match="non-finite integrand"):
            integrate_log_panels(lambda t: np.full(np.shape(t), np.nan), 0.0, 1.0)

    def test_noise_exhausts_the_panels(self):
        rng = np.random.default_rng(0)
        with pytest.raises(QuadratureError, match="panels") as err:
            integrate_log_panels(lambda t: rng.normal(size=np.shape(t)), 0.0, 10.0, rel_tol=1e-12)
        assert err.value.achieved is not None

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_log_panels(lambda t: -t, 2.0, 2.0)
