"""Acceptance suite: every criterion asserts its stated tolerance and
prints one [PASS]/[FAIL] line (visible under ``pytest -s``)."""

import time
from dataclasses import replace

import numpy as np
import pytest

from shrinktest import (
    ExperimentConfig,
    ShrinkageCurve,
    TwoGroupModel,
    adaptive_bayes_risk_mc,
    bayes_risk_analytic,
    bayes_risk_bound,
    calibrate_signal_offset,
    check_condition2,
    check_condition3,
    exponential_prior,
    fdr_fnr_mc,
    flat_signal,
    horseshoe_prior,
    inverse_gamma_prior,
    minimax_risk_bound,
    oracle_comparison_mc,
    oracle_risk,
    run_experiment,
    separation_rate,
    simple_count_estimator,
    two_group_risk_mc,
    verify_condition4,
)

import oracles

SLACK = 1.05
SEED = 20240601


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk():
    """Shared desk-scale configuration: n=1e4, p_n=100, C_psi=1, alpha=1/2."""
    prior = horseshoe_prior(0.01, 10**4, 100)
    model = TwoGroupModel.from_c_psi(10**4, 100, 1.0)
    curve = ShrinkageCurve(prior)
    c = check_condition2(prior).estimated_constant
    big_c = check_condition3(prior).estimated_constant
    x_star = curve.decision_threshold(0.5)
    return prior, model, curve, c, big_c, x_star


def test_criterion_1_quadrature_oracle_agreement():
    # The budget times the library's weight calls only, not the 1e6-node oracle.
    priors = [
        horseshoe_prior(0.05, 1000, 50),
        exponential_prior(1.0, 1000, 50),
        inverse_gamma_prior(2.0, 1.0, 1000, 50),
    ]
    xs = np.arange(0.0, 20.5, 0.5)
    worst = elapsed = 0.0
    for prior in priors:
        curve = ShrinkageCurve(prior)
        oracle = oracles.TrapezoidShrinkageOracle(prior, nodes=10**6)
        for x in xs:
            start = time.monotonic()
            got = curve.weight(float(x))
            elapsed += time.monotonic() - start
            worst = max(worst, abs(got - oracle.weight(float(x))))
    report(
        "criterion 1 (quadrature vs 1e6-node trapezoid oracle)",
        worst <= 1e-6 and elapsed <= 10.0,
        f"max |diff| = {worst:.3e} (tol 1e-6), weight calls {elapsed:.3f}s (budget 10s)",
    )


def test_criterion_2_shrinkage_curve_properties():
    curve = ShrinkageCurve(horseshoe_prior(0.05, 1000, 50))
    sym_ok = all(curve.weight(x) == curve.weight(-x) for x in (0.3, 1.7, 6.4, 15.0))
    grid = np.linspace(0.0, 25.0, 1000)
    vals = curve.weights(grid)
    range_ok = bool(np.all(vals >= 0.0) and np.all(vals <= 1.0))
    mono_ok = bool(np.all(np.diff(vals) >= -1e-12))
    sat_ok = all(
        ShrinkageCurve(horseshoe_prior(tau, 100, 10)).weight(50.0) >= 0.999
        for tau in (1e-6, 1e-4, 1e-2, 1.0)
    )
    round_trip = max(
        abs(curve.weight(curve.decision_threshold(a)) - a)
        for a in (0.1, 0.25, 0.5, 0.75, 0.9)
    )
    ok = sym_ok and range_ok and mono_ok and sat_ok and round_trip <= 1e-9
    report(
        "criterion 2 (curve properties + threshold round-trip)",
        ok,
        f"symmetry={sym_ok}, range={range_ok}, monotone={mono_ok}, "
        f"m_50>=0.999={sat_ok}, max |m(x*)-alpha| = {round_trip:.2e} (tol 1e-9)",
    )


def test_criterion_3_bayes_risk_bound(desk):
    start = time.monotonic()
    prior, model, curve, c, big_c, x_star = desk
    # The additive offset of the guaranteed-detection threshold is
    # calibrated from x*, with the declared K = 1, u0 = 1.
    c1 = calibrate_signal_offset(curve, x_star)
    threshold = separation_rate(prior, c1=c1)
    grid_ok = all(
        curve.weight(x) >= 0.5 - 1e-9 for x in np.linspace(threshold, threshold + 8.0, 33)
    )
    risk = bayes_risk_analytic(model, x_star).bayes_risk
    bound = bayes_risk_bound(prior, model, 0.5, big_c, c)
    ratio = risk / oracle_risk(model)
    elapsed = time.monotonic() - start
    report(
        "criterion 3 (Bayes-risk bound, certified constants)",
        grid_ok and risk <= bound * SLACK and elapsed <= 60.0,
        f"risk = {risk:.2f} <= bound*{SLACK} = {bound * SLACK:.2f} "
        f"(c = {c:.4f}, C = {big_c:.4f}, c1 = {c1:.3f}); "
        f"risk/oracle = {ratio:.3f} (reported, not asserted); runtime {elapsed:.1f}s",
    )


def test_criterion_4_mc_vs_analytic(desk):
    start = time.monotonic()
    prior, model, curve, c, big_c, x_star = desk
    analytic = bayes_risk_analytic(model, x_star).bayes_risk
    mc = two_group_risk_mc(model, x_star, draws=10**6, seed=SEED, threads=8)
    gap = abs(analytic - mc.bayes_risk)
    limit = 3.0 * mc.se("bayes_risk")
    elapsed = time.monotonic() - start
    report(
        "criterion 4 (1e6-draw MC vs analytic risk)",
        gap <= limit and elapsed <= 60.0,
        f"|{analytic:.2f} - {mc.bayes_risk:.2f}| = {gap:.2f} <= 3 SE = {limit:.2f}; "
        f"runtime {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_5_minimax_bound(desk):
    start = time.monotonic()
    prior, model, curve, c, big_c, x_star = desk
    c1 = calibrate_signal_offset(curve, x_star)
    rho = separation_rate(prior, c1=c1, v_n=3.0)
    bound = minimax_risk_bound(0.5, 0.5, big_c, c, 3.0)
    at_rho = fdr_fnr_mc(
        curve, flat_signal(10**4, 100, rho), 0.5, replicates=200, seed=SEED
    )
    at_half = fdr_fnr_mc(
        curve, flat_signal(10**4, 100, 0.5 * rho), 0.5, replicates=200, seed=SEED
    )
    elapsed = time.monotonic() - start
    ok = at_rho.rsup <= bound * SLACK and at_half.rsup > at_rho.rsup and elapsed <= 300.0
    report(
        "criterion 5 (FDR+FNR at the separation rate)",
        ok,
        f"rsup(rho={rho:.2f}) = {at_rho.rsup:.4f} <= bound*{SLACK} = {bound * SLACK:.4f}; "
        f"rsup(rho/2) = {at_half.rsup:.4f} > rsup(rho); runtime {elapsed:.1f}s",
    )


def test_criterion_6_adaptive_pipeline(desk):
    start = time.monotonic()
    prior, model, curve, c, big_c, x_star = desk
    cond4 = verify_condition4(
        simple_count_estimator, model, c_u=2.0, zeta=0.0,
        replicates=1000, seed=SEED,
    )
    risk = adaptive_bayes_risk_mc(model, 0.5, replicates=200, seed=SEED, threads=8)
    bound = bayes_risk_bound(prior, model, 0.5, big_c, c, c_u=2.0, zeta=0.0)
    elapsed = time.monotonic() - start
    ok = cond4.passed and risk.bayes_risk <= bound * SLACK and elapsed <= 300.0
    report(
        "criterion 6 (adaptive estimator window + risk bound)",
        ok,
        f"freq_upper = {cond4.freq_upper:.3f} >= {cond4.target_upper:.3f}, "
        f"freq_lower = {cond4.freq_lower:.3f} >= {cond4.target_lower:.2f}; "
        f"adaptive risk = {risk.bayes_risk:.2f} <= bound*{SLACK} = {bound * SLACK:.2f}; "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_7_determinism(desk):
    prior, model, curve, c, big_c, x_star = desk
    signal = flat_signal(10**4, 100, 7.0)
    runs = {
        "two_group_mc": lambda threads: repr(
            two_group_risk_mc(model, x_star, draws=10**5, seed=SEED, threads=threads)
        ),
        # These two run serially at any thread count, so their four calls are reruns.
        "fdr_fnr_mc": lambda _: repr(
            fdr_fnr_mc(curve, signal, 0.5, replicates=50, seed=SEED)
        ),
        "condition4": lambda _: repr(
            verify_condition4(simple_count_estimator, model,
                              replicates=200, seed=SEED)
        ),
        "adaptive_mc": lambda threads: repr(
            adaptive_bayes_risk_mc(model, 0.5, replicates=20, seed=SEED, threads=threads)
        ),
    }
    failures = []
    for name, runner in runs.items():
        outputs = {runner(t) for t in (1, 8, 1, 8)}
        if len(outputs) != 1:
            failures.append(name)
    config = ExperimentConfig(
        experiment_id="determinism", kind="risk_bayes", prior=prior, model=model,
        alpha=0.5, replicates=8, seed=SEED, draws=5000,
    )
    csv_runs = {
        run_experiment(replace(config, threads=t)).csv_bytes().replace(
            f"# threads = {t}".encode(), b"# threads = _"
        )
        for t in (1, 8, 1, 8)
    }
    if len(csv_runs) != 1:
        failures.append("run_experiment")
    report(
        "criterion 7 (bit-for-bit determinism, threads 1 and 8)",
        not failures,
        "all MC paths byte-identical" if not failures else f"mismatch in {failures}",
    )


def test_criterion_8_oracle_baseline(desk):
    prior, model, curve, c, big_c, x_star = desk
    cmp = oracle_comparison_mc(model, x_star, draws=10**6, seed=SEED, threads=8)
    margin = cmp.threshold.bayes_risk - cmp.oracle.bayes_risk
    ok = cmp.oracle.bayes_risk <= cmp.threshold.bayes_risk + 3.0 * cmp.risk_diff_se
    report(
        "criterion 8 (two-group posterior-odds rule is no worse)",
        ok,
        f"oracle risk = {cmp.oracle.bayes_risk:.2f}, threshold risk = "
        f"{cmp.threshold.bayes_risk:.2f}, margin = {margin:.2f} "
        f"(3 SE of paired diff = {3.0 * cmp.risk_diff_se:.2f})",
    )
