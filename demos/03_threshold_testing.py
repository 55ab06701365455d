"""Run the thresholding rule against the two baselines on one dataset.

A sparse mean vector with 20 signals out of 2000 is observed in unit
Gaussian noise; the shrinkage-threshold rule is compared against the
closed-form two-group posterior-odds rule and Benjamini-Hochberg.
"""

import numpy as np

from shrinktest import (
    ShrinkageCurve,
    TwoGroupModel,
    bayes_oracle_test,
    benjamini_hochberg,
    horseshoe_prior,
    threshold_test,
)
from shrinktest.rng import substream

n, p = 2000, 20
rng = substream(seed=7)
theta = np.zeros(n)
theta[:p] = 5.0
data = theta + rng.standard_normal(n)

curve = ShrinkageCurve(horseshoe_prior(p / n, n, p))
model = TwoGroupModel.from_c_psi(n, p, 1.0)

procedures = {
    "shrinkage threshold (alpha=1/2)": threshold_test(curve, data, 0.5),
    "two-group posterior odds": bayes_oracle_test(model, data),
    "Benjamini-Hochberg (q=0.1)": benjamini_hochberg(data, 0.1),
}

truth = np.zeros(n, dtype=bool)
truth[:p] = True
print(f"{'procedure':<34} rejections  true pos  false pos  missed")
for label, rej in procedures.items():
    tp = int((rej & truth).sum())
    fp = int((rej & ~truth).sum())
    print(f"{label:<34} {int(rej.sum()):<11d} {tp:<9d} {fp:<10d} {p - tp}")

x_star = curve.decision_threshold(0.5)
print(f"\nshrinkage cut |x| > {x_star:.4f}; two-group cut |x| >= {model.oracle_cutoff():.4f}")
