"""Reproduce the risk guarantees numerically at desk scale.

The additive (Bayes) risk of the thresholding rule under the two-group
reference model is compared against its certified-constant bound and
against Monte Carlo; the FDR + FNR risk is swept over the signal
magnitude to show the separation-rate effect, with the bound overlaid.
"""

from shrinktest import (
    ExperimentConfig,
    ShrinkageCurve,
    TwoGroupModel,
    bayes_risk_analytic,
    bayes_risk_bound,
    calibrate_signal_offset,
    certified_constants,
    horseshoe_prior,
    minimax_risk_bound,
    oracle_risk,
    separation_rate,
    two_group_risk_mc,
)
from shrinktest.harness import emit_plot_script, run_experiment

n, p, c_psi, alpha = 10_000, 100, 1.0, 0.5
prior = horseshoe_prior(p / n, n, p)
model = TwoGroupModel.from_c_psi(n, p, c_psi)
curve = ShrinkageCurve(prior)

c, big_c = certified_constants(prior)
print(f"certified constants: c = {c:.4f} (mass near 0), C = {big_c:.4f} (decay)")

x_star = curve.decision_threshold(alpha)
analytic = bayes_risk_analytic(model, x_star)
mc = two_group_risk_mc(model, x_star, draws=200_000, seed=5, threads=4)
bound = bayes_risk_bound(prior, model, alpha, big_c, c)
print(f"x*({alpha}) = {x_star:.4f}")
print(f"analytic risk  = {analytic.bayes_risk:8.2f}")
print(f"MC risk        = {mc.bayes_risk:8.2f} +- {mc.se('bayes_risk'):.2f}")
print(f"bound          = {bound:8.2f}")
print(f"optimal (ref)  = {oracle_risk(model):8.2f}")

c1 = calibrate_signal_offset(curve, x_star)
rho = separation_rate(prior, c1=c1, v_n=3.0)
print(f"\nseparation rate rho = {rho:.3f} (c1 = {c1:.3f}, v_n = 3)")
print(f"FDR+FNR bound at lambda=1/2: {minimax_risk_bound(0.5, alpha, big_c, c, 3.0):.4f}")

config = ExperimentConfig(
    experiment_id="risk-vs-signal", kind="risk_minimax",
    prior=prior, alpha=alpha, replicates=50, seed=5,
    v_n=3.0,
    sweep_magnitudes=tuple(round(0.25 * k * rho, 3) for k in range(1, 6)),
    out="risk_vs_signal.csv",
)
table = run_experiment(config)
with open("plot_risk_vs_signal.py", "w", encoding="utf-8") as fh:
    fh.write(emit_plot_script(table, "risk_vs_signal", "risk_vs_signal.csv"))
print("\nwrote risk_vs_signal.csv and plot_risk_vs_signal.py")
print("(FDR+FNR collapses once the magnitude passes the separation rate)")
