"""Trace the shrinkage weight m_x and its decision thresholds.

m_x is the posterior mean of kappa = u/(1+u) given an observation x.
It runs from near 0 (tiny observations are shrunk away) to 1 (large
ones survive), and the test "reject when m_x > alpha" is the two-sided
cut at the crossing point x*(alpha).
"""

import numpy as np

from shrinktest import ExperimentConfig, ShrinkageCurve, horseshoe_prior
from shrinktest.harness import emit_plot_script, run_experiment

prior = horseshoe_prior(0.01, 10_000, 100)
curve = ShrinkageCurve(prior)

print("x      m_x        posterior mean")
for x in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 8.0, 20.0, 300.0):
    m = curve.weight(x)
    print(f"{x:<6g} {m:<10.6f} {curve.posterior_mean(x):.6f}")

print()
for alpha in (0.25, 0.5, 0.75):
    x_star = curve.decision_threshold(alpha)
    print(f"x*({alpha}) = {x_star:.6f}   (m at the crossing: {curve.weight(x_star):.10f})")

# The same curve through the experiment harness, plus a plot script.
config = ExperimentConfig(
    experiment_id="mx-demo", kind="mx_curve", prior=prior,
    x_grid=tuple(np.round(np.arange(0.0, 10.25, 0.25), 3)),
    out="mx_curve.csv",
)
table = run_experiment(config)
with open("plot_mx_curve.py", "w", encoding="utf-8") as fh:
    fh.write(emit_plot_script(table, "mx_curve", "mx_curve.csv"))
print("\nwrote mx_curve.csv and plot_mx_curve.py (run it to render the curve)")
