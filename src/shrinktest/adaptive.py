"""Plug-in sparsity estimation and the adaptive testing pipeline.

The number of signals p is rarely known; the counting estimator
p_hat = #{i : |X_i| >= sqrt(2 log n)} (floored at one) replaces it
inside the prior before thresholding: the horseshoe at tau = p_hat/n,
the one plug-in rule here.  Verification utilities measure, by
simulation, how often the estimator stays inside the window the
adaptive risk guarantees require.  The adaptive guarantees are the risk
module's bounds with the window constants passed in.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .priors import ScaleMixturePrior, horseshoe_prior
from .rng import STREAM_ESTIMATOR, STREAM_TWO_GROUP, map_replicates, substream, substreams
from .risk import RiskReport, _error_counts, null_rejection_rate, standard_error
from .shrinkage import ShrinkageCurve
from .testing import TwoGroupModel, _finite_data

__all__ = [
    "SparsityEstimate",
    "simple_count_estimator",
    "horseshoe_family",
    "adaptive_threshold_test",
    "Condition4Report",
    "verify_condition4",
    "adaptive_risk_replicates",
    "adaptive_bayes_risk_mc",
]

Estimator = Callable[[np.ndarray], "SparsityEstimate"]

# The window verify_condition4 checks: the lower bound's exponent K, the
# upper event's frequency slack in units of p_n/n, and the lower event's
# required frequency.
_K = 1.0
_UPPER_SLACK = 10.0
_LOWER_FREQUENCY = 0.95
# The most replicates verify_condition4 draws, one int64 count each in one array:
# 1e7 take 80 MB and about 1.2 s (2-core x86-64 host).
MAX_WINDOW_REPLICATES = 10**7


@dataclass(frozen=True)
class SparsityEstimate:
    """An estimate of the number of signals, always in [1, n]."""

    p_hat: float

    def __post_init__(self) -> None:
        if not self.p_hat >= 1.0:
            raise ValueError("p_hat must be at least 1")


def simple_count_estimator(data) -> SparsityEstimate:
    """Count exceedances of the universal threshold sqrt(2 log n), floor 1."""
    data = np.asarray(data, dtype=float)
    n = len(data)
    if n < 2:
        raise ValueError("need at least 2 observations")
    count = int((np.abs(data) >= math.sqrt(2.0 * math.log(n))).sum())
    return SparsityEstimate(float(max(count, 1)))


def horseshoe_family(n: int, p: float) -> ScaleMixturePrior:
    """The plug-in family used throughout: horseshoe with tau = p/n."""
    return horseshoe_prior(p / n, n, p)


def _plug_in_threshold(n: int, p_hat: float, alpha: float) -> float:
    """x*(alpha) of the plug-in prior horseshoe_family(n, p_hat), p_hat capped at n - 1."""
    return ShrinkageCurve(horseshoe_family(n, min(p_hat, n - 1))).decision_threshold(alpha)


def adaptive_threshold_test(data, alpha: float) -> np.ndarray:
    """Estimate p by simple_count_estimator, plug it into the horseshoe, and threshold.

    Rejects where |X_i| > x*(alpha) of horseshoe_family(n, p_hat); ties
    keep the null, as in threshold_test.  p_hat is simple_count_estimator(data).
    """
    data = _finite_data(data)
    p_hat = simple_count_estimator(data).p_hat
    return np.abs(data) > _plug_in_threshold(len(data), p_hat, alpha)


# ---------------------------------------------------------------------------
# Estimator window verification
# ---------------------------------------------------------------------------

def _wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class Condition4Report:
    """Empirical frequencies of the estimator window events under the model."""

    freq_upper: float                 # p_hat <= C_u * p_n
    freq_lower: float                 # p_hat >= lower_bound_value
    ci_upper: tuple[float, float]
    ci_lower: tuple[float, float]
    target_upper: float
    target_lower: float
    passed_upper: bool
    passed_lower: bool
    lower_bound_value: float
    c_u: float
    c_d: float
    capital_c_d: float
    zeta: float
    n_replicates: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.passed_upper and self.passed_lower

    def to_record(self) -> dict:
        return {
            "freq_upper": self.freq_upper,
            "freq_lower": self.freq_lower,
            "ci_upper": list(self.ci_upper),
            "ci_lower": list(self.ci_lower),
            "target_upper": self.target_upper,
            "target_lower": self.target_lower,
            "passed_upper": self.passed_upper,
            "passed_lower": self.passed_lower,
            "passed": self.passed,
            "lower_bound_value": self.lower_bound_value,
            "c_u": self.c_u,
            "c_d": self.c_d,
            "capital_c_d": self.capital_c_d,
            "zeta": self.zeta,
            "replicates": self.n_replicates,
            "seed": self.seed,
        }


def _window_report(
    p_hat: np.ndarray,
    model: TwoGroupModel,
    c_u: float,
    c_d: float,
    capital_c_d: float,
    zeta: float,
    seed: int,
) -> Condition4Report:
    """The window frequencies of one p_hat per replicate, with their Wilson intervals."""
    replicates = len(p_hat)
    log_ratio = math.log(model.n / model.p_n)
    lower_bound = (
        c_d
        * model.p_n
        * (model.n / model.p_n) ** (-zeta)
        * math.exp(-capital_c_d * math.sqrt(_K * log_ratio))
    )
    n_upper = int(np.count_nonzero(p_hat <= c_u * model.p_n))
    n_lower = int(np.count_nonzero(p_hat >= lower_bound))
    freq_upper, freq_lower = n_upper / replicates, n_lower / replicates
    target_upper = 1.0 - _UPPER_SLACK * model.p_n / model.n
    return Condition4Report(
        freq_upper=freq_upper,
        freq_lower=freq_lower,
        ci_upper=_wilson_interval(n_upper, replicates),
        ci_lower=_wilson_interval(n_lower, replicates),
        target_upper=target_upper,
        target_lower=_LOWER_FREQUENCY,
        passed_upper=freq_upper >= target_upper,
        passed_lower=freq_lower >= _LOWER_FREQUENCY,
        lower_bound_value=lower_bound,
        c_u=c_u,
        c_d=c_d,
        capital_c_d=capital_c_d,
        zeta=zeta,
        n_replicates=replicates,
        seed=seed,
    )


def verify_condition4(
    estimator: Estimator,
    model: TwoGroupModel,
    c_u: float = 2.0,
    c_d: float = 1.0,
    capital_c_d: float = 2.0,
    zeta: float = 0.0,
    replicates: int = 1000,
    seed: int = 0,
) -> Condition4Report:
    """Estimate how often the estimator stays inside its guarantee window.

    The upper event is p_hat <= c_u p_n, required with frequency at least
    1 - 10 p_n / n (a finite-n surrogate for 1 - o(p_n/n)); the lower
    event is p_hat >= c_d p_n (n/p_n)^{-zeta}
    e^{-capital_c_d sqrt(K log(n/p_n))} with K = 1, required with
    frequency at least 0.95.

    The coordinates are i.i.d. under the two-group marginal, so the count
    of |x| >= t = sqrt(2 log n) is binomial(n, q) with
    q = (1 - p_n/n) 2 Phi(-t) + (p_n/n) 2 Phi(-t/alt_sd); a tie at t has
    probability 0.  All replicates' counts come from one
    binomial(n, q, size=replicates) draw on the (seed, 0, STREAM_ESTIMATOR)
    stream, and p_hat = max(count, 1).  The layout holds only for
    simple_count_estimator, the one accepted; estimator, replicates and
    seed stay while the benchmark's mc workload passes them.
    """
    if estimator is not simple_count_estimator:
        raise ValueError(
            f"estimator must be simple_count_estimator (the binomial count layout), got {estimator!r}"
        )
    if not 100 <= replicates <= MAX_WINDOW_REPLICATES:
        raise ValueError(f"replicates must lie in [100, {MAX_WINDOW_REPLICATES:g}], got {replicates!r}")
    t = math.sqrt(2.0 * math.log(model.n))
    frac = model.signal_fraction
    q = (1.0 - frac) * null_rejection_rate(t) + frac * null_rejection_rate(t / model.alt_sd)
    # Own stream id: window checks must not recycle the risk MC draws.
    counts = substream(seed, 0, STREAM_ESTIMATOR).binomial(model.n, q, size=replicates)
    return _window_report(np.maximum(counts, 1), model, c_u, c_d, capital_c_d, zeta, seed)


# ---------------------------------------------------------------------------
# Adaptive risk: Monte Carlo and bounds
# ---------------------------------------------------------------------------

def adaptive_risk_replicates(
    model: TwoGroupModel,
    alpha: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate (loss count, p_hat) of the plug-in pipeline.

    Each replicate draws two-group data, re-estimates p by
    simple_count_estimator, and counts the false positives plus false
    negatives of the plug-in cut.  Thresholds are cached per
    distinct p_hat, which the counting estimator keeps to a handful; the
    lock is held while a threshold is computed, so each distinct p_hat
    costs exactly one threshold whatever the thread count.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    cache: dict[float, float] = {}
    lock = threading.Lock()

    def cut_for(p_hat: float) -> float:
        with lock:
            if p_hat not in cache:
                cache[p_hat] = _plug_in_threshold(model.n, p_hat, alpha)
            return cache[p_hat]

    def one(rng: np.random.Generator) -> tuple[float, float]:
        x, signal_idx = model.sample(rng, model.n)
        p_hat = simple_count_estimator(x).p_hat
        fp, fn = _error_counts(np.abs(x, out=x), signal_idx, cut_for(p_hat))
        return float(fp + fn), p_hat

    def chunk(part: range) -> list[tuple[float, float]]:
        return [one(rng) for rng in substreams(seed, part, STREAM_TWO_GROUP)]

    pairs = np.array(map_replicates(chunk, replicates, threads))
    return pairs[:, 0], pairs[:, 1]


def adaptive_bayes_risk_mc(
    model: TwoGroupModel,
    alpha: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> RiskReport:
    """Additive risk of the plug-in pipeline under two-group draws."""
    losses, _ = adaptive_risk_replicates(model, alpha, replicates, seed, threads)
    return RiskReport(
        bayes_risk=float(losses.mean()),
        mc_standard_errors={"bayes_risk": standard_error(losses)},
        n_replicates=replicates,
    )
