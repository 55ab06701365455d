"""Multiple-testing procedures: the shrinkage-threshold rule and baselines.

The main rule rejects coordinate i when m_{X_i} > alpha, which by the
monotonicity of the shrinkage weight is a two-sided cut |X_i| > x*(alpha).
Two references are included for comparison: the closed-form two-group
posterior-odds rule and Benjamini-Hochberg step-up on two-sided normal
p-values.  Each procedure takes a finite vector of observations and
returns its rejections as a boolean vector of the same length (True
rejects the null): both risks depend on the rejection set alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .shrinkage import ShrinkageCurve

__all__ = [
    "TwoGroupModel",
    "threshold_test",
    "bayes_oracle_test",
    "benjamini_hochberg",
]


@dataclass(frozen=True)
class TwoGroupModel:
    """Reference mixture: with probability p_n/n a coordinate carries a
    N(0, psi^2) signal, so its observation is marginally N(0, 1 + psi^2).

    The signal variance is derived, psi^2 = log(n/p_n) / c_psi.
    """

    n: int
    p_n: float
    c_psi: float
    psi_sq: float = field(init=False)

    def __post_init__(self) -> None:
        invalid = self.invalid_field(self.n, self.p_n, self.c_psi)
        if invalid:
            raise ValueError(" ".join(invalid))
        object.__setattr__(self, "psi_sq", math.log(self.n / self.p_n) / self.c_psi)

    @staticmethod
    def invalid_field(n: int, p_n: float, c_psi: float) -> tuple[str, str] | None:
        """The first of n, p_n and c_psi that admits no model and what it must be, else None."""
        if not n >= 2:
            return "n", f"must be at least 2, got {n!r}"
        if not 0.0 < p_n < n:
            return "p_n", f"must lie in (0, n = {n!r}), got {p_n!r}"
        if not (c_psi > 0.0 and math.log(n / p_n) / c_psi > 0.0):
            return "c_psi", f"must be positive and leave psi_sq = log(n/p_n)/c_psi positive, got {c_psi!r}"
        return None

    @classmethod
    def from_c_psi(cls, n: int, p_n: float, c_psi: float) -> "TwoGroupModel":
        return cls(n=n, p_n=p_n, c_psi=c_psi)

    @property
    def signal_fraction(self) -> float:
        return self.p_n / self.n

    @property
    def alt_sd(self) -> float:
        """Marginal standard deviation of a signal coordinate."""
        return math.sqrt(1.0 + self.psi_sq)

    def sample(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw (x, signal_idx) for size coordinates: labels, then normals,
        then the signal rescaling.  Only the adaptive risk replicates draw
        this layout; the two-group batch kernel draws a signal count instead.

        signal_idx holds the sorted indices of the signal coordinates
        (those whose uniform label fell below p_n/n), not a boolean mask.
        """
        signal_idx = np.flatnonzero(rng.random(size) < self.signal_fraction)
        x = rng.standard_normal(size)
        x[signal_idx] *= self.alt_sd
        return x, signal_idx

    def oracle_cutoff(self) -> float:
        """|x| cut of the posterior-odds rule at posterior probability 1/2.

        Solves for x^2 = ((1+psi^2)/psi^2) (log(1+psi^2) + 2 log((n-p_n)/p_n));
        a negative right side (p_n close to n) collapses the cut to 0.
        """
        psi_sq = self.psi_sq
        c_sq = (1.0 + psi_sq) / psi_sq * (
            math.log1p(psi_sq) + 2.0 * math.log((self.n - self.p_n) / self.p_n)
        )
        return math.sqrt(max(c_sq, 0.0))


def _finite_data(data) -> np.ndarray:
    """data as a float vector; any other shape and non-finite values are refused."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 1:
        raise ValueError(f"data must be a vector, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("data must be finite")
    return data


def threshold_test(curve: ShrinkageCurve, data, alpha: float) -> np.ndarray:
    """Reject where m_{X_i} > alpha, i.e. |X_i| > x*(alpha).

    Ties at the crossing keep the null (the rule is a strict inequality).
    """
    return np.abs(_finite_data(data)) > curve.decision_threshold(alpha)


def bayes_oracle_test(model: TwoGroupModel, data) -> np.ndarray:
    """Reject where the two-group posterior probability of a signal exceeds 1/2."""
    return np.abs(_finite_data(data)) >= model.oracle_cutoff()


def benjamini_hochberg(data, q: float) -> np.ndarray:
    """Step-up on two-sided p-values p_i = 2 Phi(-|X_i|); ties keep index order."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    data = _finite_data(data)
    n = len(data)
    pvals = 2.0 * ndtr(-np.abs(data))
    order = np.argsort(pvals, kind="stable")
    ranked = pvals[order]
    passing = ranked <= q * (np.arange(1, n + 1) / n)
    decisions = np.zeros(n, dtype=bool)
    if passing.any():
        k = int(np.flatnonzero(passing).max()) + 1
        decisions[order[:k]] = True
    return decisions
