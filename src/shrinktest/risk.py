"""Risk evaluation for threshold tests: closed forms, bounds, Monte Carlo.

Under the two-group reference model every coordinate is tested with the
same two-sided cut, so the additive risk collapses to a closed form in
the per-test error rates; Monte Carlo versions cross-validate the whole
pipeline and estimate the FDR + FNR risk for fixed sparse signals.  The
bound evaluators return the leading terms of the theoretical guarantees
in terms of certified prior constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from scipy.special import ndtr

from .priors import ScaleMixturePrior
from .quadrature import NumericError
from .rng import STREAM_NOISE, STREAM_TWO_GROUP, map_replicates, split_draws, substreams
from .shrinkage import AlwaysReject, NoCrossing, ShrinkageCurve
from .testing import TwoGroupModel

__all__ = [
    "RiskReport",
    "SparseSignal",
    "flat_signal",
    "null_rejection_rate",
    "miss_probability",
    "bayes_risk_analytic",
    "oracle_risk",
    "bayes_risk_bound",
    "minimax_risk_bound",
    "separation_rate",
    "calibrate_signal_offset",
    "separation_magnitude",
    "fdp_fnp_replicates",
    "standard_error",
    "fdr_fnr_mc",
    "two_group_risk_mc",
    "oracle_comparison_mc",
    "TwoGroupComparison",
]

_RATE_SLACK = 1e-12
_CALIBRATION_GRID = 256  # points on [0, search cap] that the calibrated x* is rounded up to
_BATCHES = 64  # two-group draws are split into this many substreams, whatever the thread count


@dataclass(frozen=True)
class RiskReport:
    """Point estimates of the testing risks; None marks fields not computed.

    mc_standard_errors carries one entry per Monte Carlo field; analytic
    reports use zeros.
    """

    type1: float | None = None
    type2: float | None = None
    bayes_risk: float | None = None
    fdr: float | None = None
    fnr: float | None = None
    rsup: float | None = None
    mc_standard_errors: Mapping[str, float] = field(default_factory=dict)
    n_replicates: int = 0

    def __post_init__(self) -> None:
        for name in ("type1", "type2", "fdr", "fnr", "rsup"):
            val = getattr(self, name)
            if val is not None and not -_RATE_SLACK <= val <= (2.0 if name == "rsup" else 1.0) + _RATE_SLACK:
                raise ValueError(f"{name}={val!r} out of range")
        if self.bayes_risk is not None and self.bayes_risk < -_RATE_SLACK:
            raise ValueError("bayes_risk must be nonnegative")
        if self.fdr is not None and self.fnr is not None and self.rsup is not None:
            if not math.isclose(self.rsup, self.fdr + self.fnr, rel_tol=1e-9, abs_tol=1e-12):
                raise ValueError("rsup must equal fdr + fnr")

    def se(self, name: str) -> float:
        return float(self.mc_standard_errors.get(name, 0.0))


@dataclass(frozen=True, eq=False)
class SparseSignal:
    """The at most n finite, nonzero means of a length-n mean vector that is zero elsewhere.
    Under i.i.d. noise the FDR + FNR risk does not depend on where the means sit."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or len(values) > self.n:
            raise ValueError(f"values must be a 1-d array of at most n = {self.n} entries")
        if not np.all(np.isfinite(values)) or np.any(values == 0.0):
            raise ValueError("signal values must be finite and nonzero")
        object.__setattr__(self, "values", values)

    @property
    def p_n(self) -> int:
        return len(self.values)


def flat_signal(n: int, p: int, magnitude: float) -> SparseSignal:
    """p signals of common magnitude."""
    if not 0 < p <= n:
        raise ValueError("need 0 < p <= n")
    return SparseSignal(n, np.full(p, float(magnitude)))


# ---------------------------------------------------------------------------
# Closed forms and bounds
# ---------------------------------------------------------------------------

def null_rejection_rate(x_star: float) -> float:
    """Per-test type-I rate of the cut: 2 Phi(-x*) under N(0, 1)."""
    return 2.0 * float(ndtr(-x_star))


def miss_probability(x_star: float, magnitude: float) -> float:
    """Chance a signal of the given mean stays inside the cut under unit noise."""
    return float(ndtr(x_star - magnitude) - ndtr(-x_star - magnitude))


def bayes_risk_analytic(model: TwoGroupModel, x_star: float) -> RiskReport:
    """Exact per-test error rates and additive risk for a shared cut x*.

    type1 = 2 Phi(-x*) under the null; type2 is the two-sided miss
    probability under the N(0, 1 + psi^2) signal marginal.
    """
    if x_star < 0.0:
        raise ValueError("x_star must be nonnegative")
    type1 = null_rejection_rate(x_star)
    type2 = 1.0 - 2.0 * float(ndtr(-x_star / model.alt_sd))
    risk = (model.n - model.p_n) * type1 + model.p_n * type2
    return RiskReport(
        type1=type1,
        type2=type2,
        bayes_risk=risk,
        mc_standard_errors={"type1": 0.0, "type2": 0.0, "bayes_risk": 0.0},
    )


def oracle_risk(model: TwoGroupModel) -> float:
    """Leading term of the optimal additive risk: p_n (2 Phi(sqrt(c_psi)) - 1)."""
    return model.p_n * (2.0 * float(ndtr(math.sqrt(model.c_psi))) - 1.0)


def _tail_term(prior: ScaleMixturePrior, c_psi: float, zeta: float = 0.0) -> float:
    if prior.lower_exponent is None:
        raise ValueError("prior does not declare the tail exponent K")
    k, u0 = prior.lower_exponent, prior.rv_onset
    arg = math.sqrt(2.0 * k * (u0 + 1.0) * (1.0 + zeta) * c_psi)
    return 2.0 * float(ndtr(arg)) - 1.0


def bayes_risk_bound(
    prior: ScaleMixturePrior,
    model: TwoGroupModel,
    alpha: float,
    cond3_constant: float,
    cond2_constant: float,
    c_u: float = 1.0,
    zeta: float = 0.0,
) -> float:
    """Leading term of the additive-risk guarantee:
    p_n (8 sqrt(pi) C C^u / (c alpha) + 2 Phi(sqrt(2K(u0+1)(1+zeta) c_psi)) - 1).

    The defaults (C^u = 1, zeta = 0) give the guarantee with p known; the
    plug-in guarantee passes the estimator-window constants."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if cond3_constant is None or cond2_constant is None:
        raise ValueError("bound needs the certified constants C and c")
    if not cond2_constant > 0.0 or cond3_constant < 0.0:
        raise ValueError("need c > 0 and C >= 0")
    if not c_u > 0.0 or not zeta >= 0.0:
        raise ValueError(f"need C^u > 0 and zeta >= 0, got C^u = {c_u!r}, zeta = {zeta!r}")
    type1_term = 8.0 * math.sqrt(math.pi) * cond3_constant * c_u / (cond2_constant * alpha)
    return model.p_n * (type1_term + _tail_term(prior, model.c_psi, zeta))


def minimax_risk_bound(
    lam: float,
    alpha: float,
    cond3_constant: float,
    cond2_constant: float,
    v_n: float,
    c_u: float = 1.0,
) -> float:
    """Leading term of the FDR + FNR guarantee at separation v_n:
    1 / (1 + lam alpha c / (8 C^u C sqrt(pi))) + Phi(-v_n).

    lam is a free tuning fraction of guaranteed true discoveries.  With p
    known (c_u = 1) any lam in (0, 1) works; the plug-in guarantee
    (c_u = C^u) is stated for lam < Phi(v_n), a restriction the caller owns.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if not c_u > 0.0:
        raise ValueError("C^u must be positive")
    if not cond2_constant > 0.0 or cond3_constant < 0.0:
        raise ValueError("need c > 0 and C >= 0")
    if not v_n >= 0.0:
        raise ValueError(f"v_n must be nonnegative, got {v_n!r}")
    if cond3_constant == 0.0:
        fdr_term = 0.0
    else:
        ratio = lam * alpha * cond2_constant / (8.0 * c_u * cond3_constant * math.sqrt(math.pi))
        fdr_term = 1.0 / (1.0 + ratio)
    return fdr_term + float(ndtr(-v_n))


def separation_rate(
    prior: ScaleMixturePrior,
    p: float | None = None,
    c1: float = 0.0,
    v_n: float = 0.0,
) -> float:
    """Smallest certified-detectable magnitude: c1 + sqrt(2K(u0+1) log(n/p)) + v_n,
    from the prior's declared tail constants, p the prior's or the plug-in floor."""
    if prior.lower_exponent is None:
        raise ValueError("prior does not declare the tail exponent K")
    if not c1 >= 0.0:
        raise ValueError(f"c1 must be nonnegative, got {c1!r}")
    if not v_n >= 0.0:
        raise ValueError(f"v_n must be nonnegative, got {v_n!r}")
    p = prior.p if p is None else float(p)
    if not 0.0 < p < prior.n:
        raise ValueError(f"p must lie in (0, n); got p={p}, n={prior.n}")
    k, u0 = prior.lower_exponent, prior.rv_onset
    return c1 + math.sqrt(2.0 * k * (1.0 + u0) * math.log(prior.n / p)) + v_n


def calibrate_signal_offset(curve: ShrinkageCurve, alpha: float) -> float:
    """Empirical additive constant for the separation rate.

    Rounds the crossing x*(alpha) up to the 256-point grid on
    [0, curve.search_cap()] and returns its exceedance over the declared
    sqrt(2K(u0+1) log(n/p)) term, floored at zero; 0 when m_0 >= alpha.
    Raises NumericError when m_x is still below alpha at the top of the
    grid.
    """
    cap = curve.search_cap()
    try:
        x_star = curve.decision_threshold(alpha)
    except AlwaysReject:
        return 0.0
    except NoCrossing:
        x_star = math.inf
    grid = np.linspace(0.0, cap, _CALIBRATION_GRID)
    top = int(np.searchsorted(grid, x_star))
    if top == _CALIBRATION_GRID:
        raise NumericError(f"m_x < alpha at the top of the grid (x={cap:g})")
    return max(0.0, float(grid[top]) - separation_rate(curve.prior))


def separation_magnitude(
    curve: ShrinkageCurve, alpha: float, c1: float | str = "auto", v_n: float = 0.0
) -> float:
    """The separation rate at the prior's p; c1 = "auto" is calibrated on the curve."""
    c1 = calibrate_signal_offset(curve, alpha) if c1 == "auto" else float(c1)
    return separation_rate(curve.prior, c1=c1, v_n=v_n)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def standard_error(values: np.ndarray) -> float:
    """Standard error of the mean of per-replicate values (ddof 0 for one value)."""
    return float(values.std(ddof=1 if len(values) > 1 else 0)) / math.sqrt(len(values))


def _error_counts(abs_x: np.ndarray, signal_idx: np.ndarray, cut: float) -> tuple[int, int]:
    """(false positives, false negatives) of the rule |x| > cut.

    Only the signal coordinates are indexed: the false positives are all
    rejections minus the signal hits, so the full-length pass is one count.
    """
    hits = int(np.count_nonzero(abs_x[signal_idx] > cut))
    return int(np.count_nonzero(abs_x > cut)) - hits, len(signal_idx) - hits


def fdp_fnp_replicates(
    signal: SparseSignal,
    x_star: float,
    replicates: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-replicate (FDP, FNP) arrays of the cut x* for a fixed signal.

    Each replicate draws on its own (seed, replicate, STREAM_NOISE)
    stream, so results do not depend on scheduling, and draws only the
    counts FDP and FNP depend on: first p_n unit normals, added to
    signal.values in array order (the signal hits), then one
    binomial(n - p_n, 2 Phi(-x*)) count of the nulls beyond the cut
    (the false positives).  The nulls are i.i.d., so this is exact in
    distribution, and a replicate's cost does not depend on n.  The
    false-discovery proportion uses the max(rejections, 1) convention.
    The replicates run serially on one re-keyed generator: each costs
    microseconds, less than handing it to a thread.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if not x_star >= 0.0:
        raise ValueError(f"x_star must be nonnegative, got {x_star!r}")
    p_n = signal.p_n
    if p_n == 0:
        raise ValueError("signal has no nonzero values: FNR is undefined")
    n_null, q = signal.n - p_n, null_rejection_rate(x_star)

    x = np.empty(p_n)
    hits = np.empty(replicates, dtype=np.int64)
    fp = np.empty(replicates, dtype=np.int64)
    for rep, rng in enumerate(substreams(seed, range(replicates), STREAM_NOISE)):
        rng.standard_normal(out=x)
        x += signal.values
        hits[rep] = np.count_nonzero(np.abs(x, out=x) > x_star)
        fp[rep] = rng.binomial(n_null, q)
    return fp / np.maximum(fp + hits, 1), (p_n - hits) / p_n


def fdr_fnr_mc(
    curve: ShrinkageCurve,
    signal: SparseSignal,
    alpha: float,
    replicates: int,
    seed: int,
) -> RiskReport:
    """FDR, FNR and their sum for a fixed signal under unit Gaussian noise,
    averaged over fdp_fnp_replicates at the curve's cut x*(alpha)."""
    x_star = curve.decision_threshold(alpha)
    fdp, fnp = fdp_fnp_replicates(signal, x_star, replicates, seed)
    ses = {
        "fdr": standard_error(fdp), "fnr": standard_error(fnp), "rsup": standard_error(fdp + fnp),
    }
    fdr, fnr = float(fdp.mean()), float(fnp.mean())
    return RiskReport(
        fdr=fdr, fnr=fnr, rsup=fdr + fnr,
        mc_standard_errors=ses, n_replicates=replicates,
    )


@dataclass(frozen=True)
class TwoGroupComparison:
    """Side-by-side Monte Carlo risks of the threshold rule and the oracle cut."""

    threshold: RiskReport
    oracle: RiskReport
    risk_diff: float       # threshold risk minus oracle risk, in risk units
    risk_diff_se: float


def _two_group_counts(
    model: TwoGroupModel, cuts: tuple[float, ...], draws: int, seed: int, threads: int,
    batches: int = _BATCHES,
) -> np.ndarray:
    """The batch kernel of every two-group Monte Carlo path: one count row per batch.

    Batch b draws its m = split_draws(draws, batches)[b] share on key
    (seed, b, STREAM_TWO_GROUP): first its signal count k ~ binomial(m, p_n/n),
    then m standard normals, of which the first k, scaled by alt_sd, are the
    signals.  This is exact in distribution: the labels are i.i.d. and the
    normals exchangeable, so only the count of signals matters.  Every draw
    is still compared with every cut.  The row holds m, k, then fp and fn
    for each cut.
    """
    sizes = split_draws(draws, batches)

    def row(batch: int, rng: np.random.Generator) -> list[int]:
        m = sizes[batch]
        k = int(rng.binomial(m, model.signal_fraction))
        x = rng.standard_normal(m)
        x[:k] *= model.alt_sd
        np.abs(x, out=x)
        return [m, k, *(c for cut in cuts for c in (
            int(np.count_nonzero(x[k:] > cut)), k - int(np.count_nonzero(x[:k] > cut))))]

    def chunk(part: range) -> list[list[int]]:
        return [row(b, rng) for b, rng in zip(part, substreams(seed, part, STREAM_TWO_GROUP))]

    return np.array(map_replicates(chunk, batches, threads), dtype=np.int64)


def _report_from_counts(
    model: TwoGroupModel, fp: int, fn: int, n_signal: int, n_draws: int
) -> RiskReport:
    n_null = n_draws - n_signal
    type1 = fp / n_null if n_null else 0.0
    type2 = fn / n_signal if n_signal else 0.0
    mean_loss = (fp + fn) / n_draws
    risk = model.n * mean_loss
    se_loss = math.sqrt(max(mean_loss * (1.0 - mean_loss), 0.0) / n_draws)
    ses = {
        "type1": math.sqrt(max(type1 * (1.0 - type1), 0.0) / n_null) if n_null else 0.0,
        "type2": math.sqrt(max(type2 * (1.0 - type2), 0.0) / n_signal) if n_signal else 0.0,
        "bayes_risk": model.n * se_loss,
    }
    return RiskReport(
        type1=type1, type2=type2, bayes_risk=risk,
        mc_standard_errors=ses, n_replicates=n_draws,
    )


def two_group_risk_mc(
    model: TwoGroupModel,
    x_star: float,
    draws: int = 10**6,
    seed: int = 0,
    threads: int = 1,
) -> RiskReport:
    """Monte Carlo additive risk of the cut x* under the two-group marginal."""
    totals = _two_group_counts(model, (float(x_star),), draws, seed, threads).sum(axis=0)
    _, n_signal, fp, fn = totals.tolist()
    return _report_from_counts(model, fp, fn, n_signal, draws)


def oracle_comparison_mc(
    model: TwoGroupModel,
    x_star: float,
    draws: int = 10**6,
    seed: int = 0,
    threads: int = 1,
) -> TwoGroupComparison:
    """Risks of the threshold cut and the oracle cut on common draws.

    The paired difference keeps its own standard error, so the oracle's
    optimality can be checked without between-run noise.  The two
    rejection sets are nested, so a draw's losses differ exactly where
    one cut rejects and the other does not: the summed |loss difference|
    is the difference of the rejection counts, fp - fn + n_signal.
    """
    cuts = (float(x_star), model.oracle_cutoff())
    totals = _two_group_counts(model, cuts, draws, seed, threads).sum(axis=0)
    _, n_signal, fp0, fn0, fp1, fn1 = totals.tolist()
    thresh = _report_from_counts(model, fp0, fn0, n_signal, draws)
    oracle = _report_from_counts(model, fp1, fn1, n_signal, draws)
    mean_d = ((fp0 + fn0) - (fp1 + fn1)) / draws
    var_d = max(abs((fp0 - fn0) - (fp1 - fn1)) / draws - mean_d * mean_d, 0.0)
    return TwoGroupComparison(
        threshold=thresh,
        oracle=oracle,
        risk_diff=model.n * mean_d,
        risk_diff_se=model.n * math.sqrt(var_d / draws),
    )
