"""Fully data-driven testing: estimate the sparsity, then threshold.

The counting estimator p_hat = #{|X_i| >= sqrt(2 log n)} (floored at 1)
replaces the unknown number of signals inside the horseshoe prior.  The
demo verifies the estimator stays inside its guarantee window and that
the plug-in pipeline's risk still sits under the (inflated) bound.
"""

import json

import numpy as np

from shrinktest import (
    TwoGroupModel,
    adaptive_bayes_risk_mc,
    adaptive_threshold_test,
    bayes_risk_bound,
    certified_constants,
    horseshoe_prior,
    simple_count_estimator,
    verify_condition4,
)
from shrinktest.rng import substream

n, p = 10_000, 100
model = TwoGroupModel.from_c_psi(n, p, 1.0)

# One dataset end to end.
rng = substream(seed=13)
theta = np.zeros(n)
theta[:p] = 5.0
data = theta + rng.standard_normal(n)
result = adaptive_threshold_test(data, 0.5)
print(f"p_hat = {result.estimate.p_hat:.0f} (true p = {p}), "
      f"rejections = {result.decisions.n_rejections}")

# Does the estimator stay inside its window often enough?
report = verify_condition4(simple_count_estimator, model, c_u=2.0, zeta=0.0,
                           replicates=500, seed=13)
print("\nestimator window verification:")
print(json.dumps(report.to_record(), indent=2))

# Plug-in risk against the adaptive bound: the known-p bound with the
# estimator-window constants C^u and zeta passed in.
prior = horseshoe_prior(p / n, n, p)
c, big_c = certified_constants(prior)
risk = adaptive_bayes_risk_mc(model, 0.5, replicates=50, seed=13, threads=4)
bound = bayes_risk_bound(prior, model, 0.5, big_c, c, c_u=2.0, zeta=0.0)
print(f"\nadaptive risk = {risk.bayes_risk:.2f} +- {risk.se('bayes_risk'):.2f}"
      f"  vs bound = {bound:.2f}")
