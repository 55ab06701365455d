import math
import warnings

import numpy as np
import pytest

from shrinktest import (
    ConditionGrid,
    DegenerateSparsityError,
    QuadratureError,
    ScaleMixturePrior,
    certify_prior,
    check_condition1,
    check_condition1_lower,
    check_condition2,
    check_condition3,
    exponential_prior,
    horseshoe_prior,
    inverse_gamma_prior,
    mass_below,
    normalization,
    parse_prior_spec,
    prior_from_config,
    prior_to_config,
)

import oracles


def builtin_priors():
    return [
        horseshoe_prior(0.05, 1000, 50),
        exponential_prior(1.0, 1000, 50),
        inverse_gamma_prior(2.0, 1.0, 1000, 50),
    ]


class TestBuiltinDensities:
    def test_horseshoe_pointwise(self):
        prior = horseshoe_prior(1.0, 100, 10)
        assert float(prior.density(1.0)) == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)

    def test_exponential_pointwise(self):
        prior = exponential_prior(1.0, 100, 10)
        assert float(prior.density(0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_inverse_gamma_pointwise(self):
        prior = inverse_gamma_prior(1.0, 1.0, 100, 10)
        assert float(prior.density(1.0)) == pytest.approx(math.exp(-1.0), abs=1e-12)

    @pytest.mark.parametrize("prior", builtin_priors(), ids=lambda p: p.family)
    def test_normalization(self, prior):
        assert normalization(prior) == pytest.approx(1.0, abs=1e-8)
        assert oracles.trapezoid_normalization(prior) == pytest.approx(1.0, abs=1e-8)

    def test_small_tau_normalization(self):
        assert normalization(horseshoe_prior(0.1, 100, 10)) == pytest.approx(1.0, abs=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            horseshoe_prior(0.0, 100, 10)
        with pytest.raises(ValueError):
            exponential_prior(-1.0, 100, 10)
        with pytest.raises(ValueError):
            inverse_gamma_prior(0.0, 1.0, 100, 10)
        with pytest.raises(ValueError):
            inverse_gamma_prior(1.0, -2.0, 100, 10)
        with pytest.raises(ValueError):
            horseshoe_prior(0.1, 100, 100)  # p must stay below n
        with pytest.raises(ValueError):
            horseshoe_prior(0.1, 100, 0)

    def test_sparsity_scales(self):
        prior = horseshoe_prior(0.1, 100, 10)
        assert prior.tau == pytest.approx(0.1)
        assert prior.nu == pytest.approx(math.sqrt(math.log(10.0)))
        # n=100, p=10 puts the mass scale at 0.1 log 10.
        assert prior.s_n == pytest.approx(0.23025850929940458, abs=1e-12)


class TestConditionTwo:
    def test_exponential_closed_form(self):
        cert = check_condition2(exponential_prior(1.0, 1000, 50))
        assert cert.condition_id == "C2"
        assert cert.satisfied
        assert cert.estimated_constant == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_horseshoe_tau_one_closed_form(self):
        # With u = t^2 the mass below 1 is (2/pi) arctan(1) = 1/2.
        cert = check_condition2(horseshoe_prior(1.0, 1000, 50))
        assert cert.estimated_constant == pytest.approx(0.5, abs=1e-10)

    def test_horseshoe_small_tau_matches_trapezoid_oracle(self):
        # Frozen from the 1e6-node u = t^2 trapezoid oracle.
        prior = horseshoe_prior(0.05, 1000, 50)
        cert = check_condition2(prior)
        assert cert.estimated_constant == pytest.approx(0.9681954974876, abs=1e-6)
        assert cert.estimated_constant == pytest.approx(
            oracles.trapezoid_mass_below(prior), abs=1e-6
        )

    def test_horseshoe_tau_001_matches_oracle(self):
        prior = horseshoe_prior(0.01, 1000, 50)
        cert = check_condition2(prior)
        assert cert.estimated_constant == pytest.approx(
            oracles.trapezoid_mass_below(prior), abs=1e-6
        )
        assert cert.estimated_constant == pytest.approx(
            2.0 / math.pi * math.atan(100.0), abs=1e-9
        )

    def test_monotone_as_tau_decreases(self):
        taus = [1.0, 0.5, 0.1, 0.05, 0.01]
        values = [
            check_condition2(horseshoe_prior(t, 1000, 50)).estimated_constant for t in taus
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(v >= 0.5 for v in values)

    @pytest.mark.parametrize("tau", [1e-1, 1e-6, 1e-8])
    def test_tiny_tau_closed_form_without_warning(self, tau):
        # The horseshoe puts most of its mass near u = tau^2, far below the
        # node spacing of a grid in sqrt(u) once tau is small.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cert = check_condition2(horseshoe_prior(tau, 10**4, 100))
        exact = 2.0 / math.pi * math.atan(1.0 / tau)
        assert abs(cert.estimated_constant - exact) <= 1e-9 * exact
        assert cert.satisfied


class TestConditionOne:
    def test_exponential_constant_factor_gives_exactly_one(self):
        cert = check_condition1(exponential_prior(1.0, 1000, 50))
        assert cert.satisfied
        assert cert.estimated_constant == 1.0

    def test_horseshoe_satisfied(self):
        prior = horseshoe_prior(0.05, 1000, 50)
        assert prior.lower_exponent == 1.0
        assert prior.lower_rate == 1.0
        assert prior.lower_onset == 1.0
        assert check_condition1(prior).satisfied
        assert check_condition1_lower(prior).satisfied

    def test_super_exponential_tail_fails_with_witness(self):
        def log_density(u):
            u = np.asarray(u, dtype=float)
            return math.log(2.0 / math.sqrt(math.pi)) - u * u

        prior = ScaleMixturePrior(log_density=log_density, n=100, p=10)
        cert = check_condition1(prior)
        assert not cert.satisfied
        assert cert.witness is not None

    def test_inverse_gamma_ratio_matches_analytic(self):
        # For a polynomial tail u^{-(shape+1)} the two-sided ratio tops out
        # at a^{shape+1} with a vanishing exp(-scale/u) correction.
        shape = 1.5
        cert = check_condition1(inverse_gamma_prior(shape, 1.0, 1000, 50))
        assert cert.satisfied
        assert cert.estimated_constant == pytest.approx(2.0 ** (shape + 1.0), rel=0.05)

    @pytest.mark.parametrize("prior", builtin_priors(), ids=lambda p: p.family)
    def test_certified_ratio_bounds_grid(self, prior):
        # Restates the two-sided ratio bound at grid level.
        cert = check_condition1(prior)
        grid = ConditionGrid()
        u = grid.u_points(prior.rv_onset)
        log_l = prior.log_density_at(u) + prior.tail_rate * u
        for a in (1.25, 1.75, 2.0):
            ratio = np.exp(prior.log_density_at(a * u) + prior.tail_rate * a * u - log_l)
            assert np.all(ratio <= cert.estimated_constant * (1.0 + 1e-9))
            assert np.all(ratio >= 1.0 / cert.estimated_constant * (1.0 - 1e-9))

    @pytest.mark.parametrize(
        "prior",
        builtin_priors()
        + [horseshoe_prior(1e-6, 10**4, 100), inverse_gamma_prior(0.5, 3.0, 1000, 50)],
        ids=lambda p: f"{p.family}{dict(p.params)}",
    )
    def test_matches_row_by_row_loop(self, prior):
        grid = ConditionGrid(u_max=1e5, n_u=300, n_a=17)
        for g in (ConditionGrid(), grid):
            expected = oracles.condition1_constant_by_row(prior, g)
            assert check_condition1(prior, g).estimated_constant == expected

    def test_declared_ratio_violation_detected(self):
        from dataclasses import replace

        prior = replace(horseshoe_prior(0.05, 1000, 50), rv_ratio=1.5)
        cert = check_condition1(prior)
        assert not cert.satisfied
        assert "1.5" in cert.witness

    def test_lower_bound_declared_too_small(self):
        from dataclasses import replace

        prior = replace(horseshoe_prior(0.05, 1000, 50), lower_scale=1e-3)
        cert = check_condition1_lower(prior)
        assert not cert.satisfied
        assert cert.witness is not None

    def test_lower_bound_needs_declared_constants(self):
        prior = ScaleMixturePrior(
            log_density=lambda u: -np.asarray(u, dtype=float), n=100, p=10
        )
        with pytest.raises(ValueError, match="lower-bound constants"):
            check_condition1_lower(prior)

    def test_grid_spec_validation(self):
        with pytest.raises(ValueError):
            ConditionGrid(n_a=8)
        with pytest.raises(ValueError):
            ConditionGrid(n_u=100)
        with pytest.raises(ValueError):
            ConditionGrid(u_max=100.0)

    def test_certify_prior_returns_all_four(self):
        certs = certify_prior(exponential_prior(1.0, 1000, 50))
        assert [c.condition_id for c in certs] == ["C1-rv", "C1-lower", "C2", "C3"]
        assert all(c.satisfied for c in certs)


class TestConditionThree:
    def test_mass_scale_value(self):
        # n=100, p=10: s_n = 0.1 log 10.
        prior = exponential_prior(1.0, 100, 10)
        cert = check_condition3(prior)
        assert cert.grid["s_n"] == pytest.approx(0.23025850929940458, abs=1e-12)

    def test_exponential_rate2_matches_log_grid_oracle(self):
        # Frozen from the 1e6-node log-grid trapezoid oracle.
        prior = exponential_prior(2.0, 1000, 10)
        cert = check_condition3(prior)
        assert cert.satisfied
        assert cert.estimated_constant == pytest.approx(16.1251434159, rel=1e-6)
        assert cert.estimated_constant == pytest.approx(
            oracles.condition3_constant(prior, nodes=10**6), rel=1e-6
        )

    def test_horseshoe_constant_stays_bounded(self):
        for n in (10**3, 10**4, 10**5):
            p = int(math.isqrt(n))
            prior = horseshoe_prior(p / n, n, p)
            constant = check_condition3(prior).estimated_constant
            assert constant <= 10.0
            assert constant == pytest.approx(
                oracles.condition3_constant(prior), rel=1e-4
            )

    def test_fixed_rate_exponential_does_not_adapt(self):
        prior = exponential_prior(1.0, 10**4, 100)
        cert = check_condition3(prior)
        assert cert.estimated_constant > 10.0
        assert cert.estimated_constant == pytest.approx(
            oracles.condition3_constant(prior), rel=1e-4
        )

    def test_degenerate_sparsity_rejected(self):
        with pytest.raises(DegenerateSparsityError):
            check_condition3(horseshoe_prior(0.5, 100, 50))

    def test_n_over_e_edge_names_p(self):
        # Just below n/e, log(n/p) still rounds to exactly 1.0.
        p = math.nextafter(10**4 / math.e, 0.0)
        with pytest.raises(DegenerateSparsityError, match=f"p={p!r}"):
            check_condition3(horseshoe_prior(0.1, 10**4, p))

    def test_constant_stable_under_finer_oracle(self):
        prior = horseshoe_prior(0.01, 10**4, 100)
        constant = check_condition3(prior).estimated_constant
        coarse = oracles.condition3_constant(prior, nodes=10**5)
        fine = oracles.condition3_constant(prior, nodes=10**6)
        assert abs(constant - fine) / fine <= 1e-4
        assert abs(coarse - fine) / fine <= 1e-4


# The horseshoe at tau = p/n from 1e-1 to 1e-8, and two priors of each
# other family at n = 1e4, p = 100.
MPMATH_PRIORS = [
    horseshoe_prior(1e-1, 10**3, 100),
    horseshoe_prior(1e-2, 10**4, 100),
    horseshoe_prior(1e-6, 10**8, 100),
    horseshoe_prior(1e-8, 10**8, 1),
    exponential_prior(1.0, 10**4, 100),
    exponential_prior(100.0, 10**4, 100),
    inverse_gamma_prior(2.0, 1.0, 10**4, 100),
    inverse_gamma_prior(10.0, 1.0, 10**4, 100),
]


class TestCertificatesAgainstMpmath:
    """C2, C3 and the total mass against closed forms at 30 digits."""

    @pytest.mark.parametrize("n", [10**7, 10**8])
    def test_condition3_at_tiny_sparsity(self, n):
        # tau = p/n = 1e-7 and 1e-8: s_n is below 2e-6, far under the
        # window [1, nu^2] that the inner integral must also cover.
        prior = horseshoe_prior(1.0 / n, n, 1)
        want = oracles.mp_certificate_constants(prior)[1]
        got = check_condition3(prior).estimated_constant
        assert abs(got / want - 1.0) <= 1e-10

    @pytest.mark.parametrize(
        "prior", MPMATH_PRIORS, ids=lambda p: f"{p.family}-{dict(p.params)}-{p.n}-{p.p:g}"
    )
    def test_constants_within_1e_12(self, prior):
        c2, c3, total = oracles.mp_certificate_constants(prior)
        cert2, cert3 = check_condition2(prior), check_condition3(prior)
        assert cert2.estimated_constant == pytest.approx(c2, rel=1e-12, abs=0.0)
        assert cert3.estimated_constant == pytest.approx(c3, rel=1e-12, abs=0.0)
        assert normalization(prior) == pytest.approx(total, rel=1e-12, abs=0.0)
        for cert in (cert2, cert3):
            assert 0.0 <= cert.grid["rel_error"] <= cert.grid["rel_tol"]

    def test_heavy_tail_reaches_the_far_cut(self):
        # u^{-1.1} at shape 0.1: in t the mass decays like e^{-0.1 t}, so
        # it needs the doubling panels out to t = 700.
        prior = inverse_gamma_prior(0.1, 1.0, 10**4, 100)
        assert normalization(prior) == pytest.approx(1.0, rel=1e-12)

    def test_steep_tail_refines_its_panels(self):
        # The C3 tail of the exponential at rate 100 lives within ~0.01 of
        # its lower end in t = log u, far narrower than one panel.
        prior = exponential_prior(100.0, 100, 30)
        want = oracles.mp_certificate_constants(prior)[1]
        assert check_condition3(prior).estimated_constant == pytest.approx(want, rel=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("prior", builtin_priors(), ids=lambda p: p.family)
    def test_round_trip(self, prior):
        config = prior_to_config(prior)
        back = prior_from_config(config)
        assert back.family == prior.family
        assert back.params == prior.params
        assert back.n == prior.n and back.p == prior.p
        assert back.tail_rate == prior.tail_rate
        assert back.lower_exponent == prior.lower_exponent
        u = np.geomspace(1e-4, 1e4, 64)
        np.testing.assert_allclose(back.log_density_at(u), prior.log_density_at(u))

    def test_parse_spec(self):
        prior = parse_prior_spec("horseshoe:tau=0.05,n=1000,p=50")
        assert prior.family == "horseshoe"
        assert dict(prior.params)["tau"] == 0.05

    def test_spec_with_constant_override(self):
        prior = parse_prior_spec("horseshoe:tau=0.05,n=1000,p=50,u0=0.5")
        assert prior.rv_onset == 0.5

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown prior family"):
            parse_prior_spec("cauchy:scale=1,n=10,p=2")

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            parse_prior_spec("horseshoe:tau=0.05,n=1000")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unknown prior config fields"):
            parse_prior_spec("horseshoe:tau=0.05,n=1000,p=50,zz=1")

    def test_malformed_item(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prior_spec("horseshoe:tau")


class TestMassBelow:
    def test_respects_cutoff(self):
        prior = exponential_prior(2.0, 100, 10)
        assert mass_below(prior, 0.5) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_non_finite_density_raises(self):
        # An overflowing density: pi(u) = e^{1000} on the whole half-line.
        prior = ScaleMixturePrior(
            log_density=lambda u: np.full(np.shape(u), 1000.0), n=100, p=10
        )
        with pytest.raises(QuadratureError, match="non-finite integrand"):
            mass_below(prior)
