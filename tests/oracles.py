"""Independent oracles used to validate the library's fixed-node paths.

Most of these stick to fixed-grid composite rules (trapezoid on
substituted or logarithmic grids), closed forms or extended precision.
The adaptive QUADPACK routes at the end are what the library used
before every integral moved to the panel rule in t = log u:
integrate_finite, integrate_tail, integrate_half_line, integrate_log
and integrate_unit were the certificates' integrators, and
quadpack_weight (on integrate_unit_vec) was the shrinkage kernel's
fallback for m_x.  They stay here as a second, independent route to
the same integrals.  The Monte Carlo kernels in between count errors
with boolean masks; the FDR + FNR and two-group ones give the library's
draw layout and the one it replaced.
"""

import math
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, quad_vec
from scipy.special import expit
from scipy.stats import norm

from shrinktest.quadrature import DEFAULT_REL_TOL, NumericError, QuadratureError
from shrinktest.rng import STREAM_ESTIMATOR, STREAM_NOISE, STREAM_TWO_GROUP, split_draws, substream

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 fallback

_TINY_S = 1e-150  # stand-in for the s = 0 node; keeps endpoint limits finite


def _substituted_grid(nodes: int):
    """s grid plus exact (z, 1-z) pairs for both halves of (0, 1)."""
    half = nodes // 2
    s = np.linspace(0.0, math.sqrt(0.5), half)
    s[0] = _TINY_S
    s_sq = s * s
    return s, (s_sq, 1.0 - s_sq), (1.0 - s_sq, s_sq)


class TrapezoidShrinkageOracle:
    """Fixed 1e6-node trapezoid for m_x on the z = u/(1+u) grid.

    Both halves of (0, 1) carry a square-root endpoint substitution; the
    base weight is evaluated once so a whole x-grid stays cheap.
    """

    def __init__(self, prior, nodes: int = 10**6):
        self.s, (self.z_lo, self.omz_lo), (self.z_hi, self.omz_hi) = _substituted_grid(nodes)
        self.log_lo = prior.log_density_at(self.z_lo / self.omz_lo) - 1.5 * np.log(self.omz_lo)
        self.log_hi = prior.log_density_at(self.z_hi / self.omz_hi) - 1.5 * np.log(self.omz_hi)
        self.jac = 2.0 * self.s

    def weight(self, x: float) -> float:
        half_x_sq = 0.5 * x * x
        lw_lo = self.log_lo - half_x_sq * self.omz_lo
        lw_hi = self.log_hi - half_x_sq * self.omz_hi
        scale = max(lw_lo.max(), lw_hi.max())
        w_lo = np.exp(lw_lo - scale) * self.jac
        w_hi = np.exp(lw_hi - scale) * self.jac
        den = _trapezoid(w_lo, self.s) + _trapezoid(w_hi, self.s)
        num = _trapezoid(w_lo * self.z_lo, self.s) + _trapezoid(w_hi * self.z_hi, self.s)
        return float(num / den)

    def bisect_threshold(self, alpha: float, lo: float = 0.0, hi: float = 50.0) -> float:
        if not self.weight(lo) < alpha <= self.weight(hi):
            raise ValueError("oracle bisection bracket does not straddle alpha")
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.weight(mid) > alpha:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


class ReferenceCurve:
    """m_x by a uniform trapezoid in t = log u over [-140, 60], step 0.01.

    Five times finer than the library's kernel, and with none of its
    checks or fallbacks: with z = u/(1+u) and the factor e^{x^2/2}
    cancelled, m_x = sum(w z) / sum(w) where
    w = pi(u) u (1+u)^{-1/2} exp(-(x^2/2)(1-z)).  Unlike the square-root
    z grid of TrapezoidShrinkageOracle it resolves the horseshoe spike at
    u ~ tau^2 for tau down to 1e-8.
    """

    def __init__(self, prior, step: float = 0.01):
        t = np.arange(-140.0, 60.0 + step / 2, step)
        self.z, self.omz = expit(t), expit(-t)
        self.base = prior.log_density_at(np.exp(t)) + t + 0.5 * np.log(self.omz)

    def weight(self, x: float) -> float:
        lw = self.base - 0.5 * x * x * self.omz
        w = np.exp(lw - lw.max())
        return float((w @ self.z) / w.sum())

    def bisect_threshold(self, alpha: float, lo: float = 0.0, hi: float = 100.0) -> float:
        """x* with m_{x*} = alpha, by 60 plain bisection steps."""
        if not self.weight(lo) < alpha <= self.weight(hi):
            raise ValueError("oracle bisection bracket does not straddle alpha")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if self.weight(mid) > alpha:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


def calibrate_signal_offset_scan(curve, alpha: float, n_grid: int = 256) -> float:
    """The separation rate's offset c1 by the weight scan the library used before it read x*.

    Scans m_x on n_grid points of [0, curve.search_cap()], takes the
    smallest grid value T beyond which m_x >= alpha throughout, and
    returns T minus sqrt(2K(u0+1) log(n/p)), floored at zero.  Raises
    NumericError when m_x is still below alpha at the top of the grid.
    """
    prior, x_max = curve.prior, curve.search_cap()
    grid = np.linspace(0.0, x_max, n_grid)
    below = np.flatnonzero(curve.weights(grid) < alpha)
    if len(below) == 0:
        t_grid = 0.0
    elif below[-1] == n_grid - 1:
        raise NumericError(f"m_x < alpha at the top of the grid (x={x_max:g})")
    else:
        t_grid = float(grid[below[-1] + 1])
    k, u0 = prior.lower_exponent, prior.rv_onset
    return max(0.0, t_grid - math.sqrt(2.0 * k * (1.0 + u0) * math.log(prior.n / prior.p)))

def trapezoid_mass_below(prior, cutoff: float = 1.0, nodes: int = 10**6) -> float:
    """Integral of pi over (0, cutoff) via u = t^2 on a uniform t grid."""
    t = np.linspace(0.0, math.sqrt(cutoff), nodes)
    t[0] = _TINY_S
    vals = np.exp(prior.log_density_at(t * t) + np.log(2.0 * t))
    return float(_trapezoid(vals, t))


def _log_grid_integral(f, a: float, b: float, nodes: int) -> float:
    """Trapezoid of f on a logarithmic grid over [a, b]."""
    t = np.linspace(math.log(a), math.log(b), nodes)
    u = np.exp(t)
    return float(_trapezoid(f(u) * u, t))


def condition3_constant(prior, nodes: int = 10**5, u_max: float = 1e9) -> float:
    """Intermediate-decay constant by composite log-grid trapezoid."""
    n, p = prior.n, prior.p
    nu_sq = math.log(n / p)
    nu = math.sqrt(nu_sq)
    s_n = (p / n) * nu_sq

    def pi(u):
        return np.exp(prior.log_density_at(u))

    i1_inner = _log_grid_integral(lambda u: u * pi(u), s_n, nu_sq, nodes)
    i1_tail = nu**3 * _log_grid_integral(lambda u: pi(u) / np.sqrt(u), nu_sq, u_max, nodes)
    i2 = nu * _log_grid_integral(lambda u: pi(u) / np.sqrt(u), 1.0, nu_sq, nodes)
    return (i1_inner + i1_tail + i2) / s_n


def trapezoid_normalization(prior, nodes: int = 10**6) -> float:
    """Total mass via the same substituted z grid as the shrinkage oracle."""
    s, lo, hi = _substituted_grid(nodes)
    log_jac = np.log(2.0 * s)
    total = 0.0
    for z, omz in (lo, hi):
        log_vals = prior.log_density_at(z / omz) - 2.0 * np.log(omz) + log_jac
        total += float(_trapezoid(np.exp(log_vals), s))
    return total


def _mp_weight(density, x: float, dps: int, spike=None) -> float:
    from mpmath import mp, mpf, quad as mp_quad

    with mp.workdps(dps):
        xv = mpf(repr(x))

        def boost(u):
            return mp.e ** (xv * xv / 2 * u / (1 + u))

        pieces = [0, 1, 100, 10**4, mp.inf]
        if spike is not None and spike < 1:
            pieces.insert(1, spike)
        num = mp_quad(lambda u: u * (1 + u) ** mpf("-1.5") * boost(u) * density(u), pieces)
        den = mp_quad(lambda u: (1 + u) ** mpf("-0.5") * boost(u) * density(u), pieces)
        return float(num / den)


def mp_shrinkage_weight(tau: float, x: float, dps: int = 40) -> float:
    """Extended-precision m_x for the horseshoe prior, raw (uncancelled) form."""
    from mpmath import mp, mpf

    t = mpf(repr(tau))
    # A breakpoint at tau^2, the scale of the spike, unless it is above 1.
    return _mp_weight(lambda u: t / (mp.pi * mp.sqrt(u) * (t * t + u)), x, dps, spike=t * t)


def mp_shrinkage_weight_exponential(rate: float, x: float, dps: int = 40) -> float:
    """Extended-precision m_x for the exponential variance prior."""
    from mpmath import mp, mpf

    r = mpf(repr(rate))
    return _mp_weight(lambda u: r * mp.e ** (-r * u), x, dps)


def laplace_weight(rate: float, x: float, dps: int = 40) -> float:
    """m_x for the exponential variance prior, in closed form at mpmath precision.

    A normal with variance u ~ Exp(rate) is the Laplace law with rate
    lam = sqrt(2 rate) (Andrews and Mallows, JRSS B 36, 1974), and under
    it E[theta | x] = x - lam (A - B) / (A + B), with
    A = e^{-lam x} Phi(x - lam) and B = e^{lam x} Phi(-x - lam).  m_x is
    that mean over x; at x = 0 it is the limit
    1 - lam (phi(lam) - lam Phi(-lam)) / Phi(-lam).
    """
    from mpmath import mp, mpf

    with mp.workdps(dps):
        lam, xv = mp.sqrt(2 * mpf(repr(rate))), mpf(repr(x))
        if xv == 0:
            return float(1 - lam * (mp.npdf(lam) - lam * mp.ncdf(-lam)) / mp.ncdf(-lam))
        a = mp.exp(-lam * xv) * mp.ncdf(xv - lam)
        b = mp.exp(lam * xv) * mp.ncdf(-xv - lam)
        return float(1 - lam * (a - b) / ((a + b) * xv))


def condition1_constant_by_row(prior) -> float:
    """C1-rv's largest two-sided tail ratio, one row of a at a time.

    The grid is check_condition1's: 512 geometric u in [u0, 1e4] and 16
    a in [1, 2].  The row a = 1 is skipped (it is exactly 0); each other
    row evaluates the log-density alone, with the same arithmetic and
    noise floor as check_condition1.
    """
    u = np.geomspace(prior.rv_onset, 1e4, 512)
    b = prior.tail_rate
    log_pi = prior.log_density_at(u)
    log_l = log_pi + b * u
    eps = np.finfo(float).eps
    worst = 0.0
    for ai in np.linspace(1.0, 2.0, 16):
        if ai == 1.0:
            continue
        log_pi_a = prior.log_density_at(ai * u)
        raw = np.abs(log_pi_a + b * ai * u - log_l)
        noise = 64.0 * eps * (2.0 + np.abs(log_pi) + np.abs(log_pi_a) + b * u * (1.0 + ai))
        worst = max(worst, float(np.where(raw <= noise, 0.0, raw).max()))
    return float(np.exp(worst)) if worst < 709.0 else math.inf


def _mp_moment(prior, power: float, a, b):
    """Closed form of the integral of u^power pi(u) over (a, b) at mpmath precision.

    ``power`` is 0, 1 or -1/2, the moments the certificates take; ``a``
    and ``b`` are mpf values, and b may be mp.inf.
    """
    from mpmath import mp, mpf

    params = {k: mpf(repr(v)) for k, v in prior.params}
    if prior.family == "horseshoe":
        # With u = v^2 each moment is elementary in v = sqrt(u).
        tau = params["tau"]
        if power == 0:
            def prim(u):
                return 2 / mp.pi * mp.atan(mp.sqrt(u) / tau)
        elif power == 1:
            def prim(u):
                v = mp.sqrt(u)
                return 2 * tau / mp.pi * (v - tau * mp.atan(v / tau))
        else:
            def prim(u):
                # log(u / (tau^2 + u)) / (pi tau), which tends to 0 as u grows
                return -mp.log1p(tau * tau / u) / (mp.pi * tau)
        if b != mp.inf:
            return prim(b) - prim(a)
        if power == 1:
            raise ValueError("the first moment of the horseshoe is infinite")
        return (1 if power == 0 else 0) - prim(a)
    if prior.family == "exponential":
        # rate e^{-rate u} u^power: an incomplete gamma in rate u.
        rate = params["rate"]
        k = mpf(power) + 1
        return mp.gammainc(k, rate * a, rate * b) / rate ** (k - 1)
    if prior.family == "inverse_gamma":
        # y = scale / u turns u^power pi(u) into an incomplete gamma in y.
        shape, scale = params["shape"], params["scale"]
        s = shape - mpf(power)
        lo_y = scale / b if b != mp.inf else mpf(0)
        hi_y = scale / a if a != 0 else mp.inf
        return scale ** mpf(power) * mp.gammainc(s, lo_y, hi_y) / mp.gamma(shape)
    raise ValueError(f"no closed form for family {prior.family!r}")


def mp_certificate_constants(prior, dps: int = 30) -> tuple[float, float, float]:
    """(C2, C3, total mass) of a built-in prior from closed forms in mpmath.

    C3 is (I1 + I2) / s_n exactly as check_condition3 defines it.
    """
    from mpmath import mp, mpf

    with mp.workdps(dps):
        n, p = mpf(prior.n), mpf(repr(prior.p))
        nu_sq = mp.log(n / p)
        nu = mp.sqrt(nu_sq)
        s_n = p / n * nu_sq
        c2 = _mp_moment(prior, 0, mpf(0), mpf(1))
        c3 = (
            _mp_moment(prior, 1, s_n, nu_sq)
            + nu**3 * _mp_moment(prior, -0.5, nu_sq, mp.inf)
            + nu * _mp_moment(prior, -0.5, mpf(1), nu_sq)
        ) / s_n
        total = _mp_moment(prior, 0, mpf(0), mp.inf)
        return float(c2), float(c3), float(total)


def step_up_reference(pvals, q: float):
    """Exhaustive step-up rule: try every k, keep the largest that passes."""
    pvals = np.asarray(pvals, dtype=float)
    n = len(pvals)
    order = np.argsort(pvals, kind="stable")
    ranked = pvals[order]
    best_k = 0
    for k in range(1, n + 1):
        if ranked[k - 1] <= q * k / n:
            best_k = k
    decisions = np.zeros(n, dtype=bool)
    decisions[order[:best_k]] = True
    return decisions


def posterior_odds_root(n: int, p_n: float, psi_sq: float) -> float:
    """|x| where the two-group posterior odds of a signal hit 1, by bisection."""
    from scipy.optimize import brentq

    prior_odds = p_n / (n - p_n)
    sd = math.sqrt(1.0 + psi_sq)

    def log_odds(x):
        log_lr = -0.5 * math.log1p(psi_sq) + 0.5 * x * x * psi_sq / (1.0 + psi_sq)
        return math.log(prior_odds) + log_lr

    return float(brentq(log_odds, 0.0, 100.0, xtol=1e-14, rtol=8.9e-16))


# ---------------------------------------------------------------------------
# Monte Carlo kernels with plain boolean masks.  The two-group batches have
# two layouts: two_group_sample_counts follows the library's (one binomial
# signal count, then the normals) and must match it exactly, and
# two_group_sample_mask draws a uniform label per coordinate, as the
# library did before, and agrees with it only in distribution.  The
# adaptive one draws on the library's streams in its draw order, so the
# library must reproduce its arrays exactly.  The FDR + FNR replicates
# have two: fdp_fnp_counts follows the library's layout (p_n signal
# normals, then one binomial null count) and must match it exactly, and
# fdp_fnp_full_mask draws all n coordinates, as the library did before.
# A SparseSignal holds only its nonzero values, so the full-mask oracle
# places them itself, on a scattered support unless it is given one.  On
# the support range(p_n) it matches the library's FNP exactly; on any
# support it matches its FDR and FNR in distribution.  window_counts_full_mask
# also draws all n coordinates, as verify_condition4 did before its one
# binomial count per replicate, so the two agree only in distribution.
# ---------------------------------------------------------------------------

def scattered_support(n: int, p_n: int) -> np.ndarray:
    """p_n distinct coordinates of range(n), unsorted and spread out, fixed by (n, p_n)."""
    return np.random.default_rng([n, p_n]).permutation(n)[:p_n]


def signal_vector(signal, support=None) -> np.ndarray:
    """The length-n mean vector of a SparseSignal: its values on the support
    (scattered_support by default), zero elsewhere."""
    theta = np.zeros(signal.n)
    theta[scattered_support(signal.n, signal.p_n) if support is None else support] = signal.values
    return theta


def fdp_fnp_full_mask(signal, x_star: float, replicates: int, seed: int, support=None):
    """Per-replicate (FDP, FNP) from theta + noise and boolean null masks, with
    theta = signal_vector(signal, support)."""
    theta = signal_vector(signal, support)
    null_mask = theta == 0.0
    fdp, fnp = [], []
    for rep in range(replicates):
        data = theta + substream(seed, rep, STREAM_NOISE).standard_normal(signal.n)
        rejected = np.abs(data) > x_star
        total = int(rejected.sum())
        fdp.append(float(rejected[null_mask].sum()) / max(total, 1))
        fnp.append(float(signal.p_n - rejected[~null_mask].sum()) / signal.p_n)
    return np.array(fdp), np.array(fnp)


def fdp_fnp_counts(signal, x_star: float, replicates: int, seed: int):
    """Per-replicate (FDP, FNP) from p_n signal normals and a binomial null count."""
    null_rate = 2.0 * float(norm.sf(x_star))
    fdp, fnp = [], []
    for rep in range(replicates):
        rng = substream(seed, rep, STREAM_NOISE)
        rejected = np.abs(signal.values + rng.standard_normal(signal.p_n)) > x_star
        hits = int(rejected.sum())
        false_positives = int(rng.binomial(signal.n - signal.p_n, null_rate))
        fdp.append(false_positives / max(false_positives + hits, 1))
        fnp.append((signal.p_n - hits) / signal.p_n)
    return np.array(fdp), np.array(fnp)


def two_group_sample_mask(model, rng, size: int):
    """(x, is_signal) from a uniform label per coordinate, in TwoGroupModel.sample's draw order."""
    is_signal = rng.random(size) < model.signal_fraction
    x = rng.standard_normal(size)
    x[is_signal] *= model.alt_sd
    return x, is_signal


def two_group_sample_counts(model, rng, size: int):
    """(x, is_signal) in the library's count layout: a binomial(size, p_n/n)
    signal count k, then size normals, of which the first k are the signals."""
    k = int(rng.binomial(size, model.signal_fraction))
    x = rng.standard_normal(size)
    is_signal = np.arange(size) < k
    x[is_signal] *= model.alt_sd
    return x, is_signal


def two_group_counts_full_mask(model, cuts, draws: int, seed: int, batches: int = 64,
                               sample=two_group_sample_mask):
    """Per-cut (fp, fn) totals, paired loss-difference sums, signal and draw counts.

    Each batch draws from sample on its own substream; each cut builds its
    full-length loss array, and with two cuts the paired difference is
    summed coordinate by coordinate, plain and absolute.  The default
    sample is the uniform-label layout; two_group_sample_counts gives the
    library's count layout.
    """
    fp_fn = np.zeros((len(cuts), 2), dtype=np.int64)
    diff = np.zeros(2, dtype=np.int64)
    n_signal = 0
    for batch, m in enumerate(split_draws(draws, batches)):
        if m == 0:
            continue
        x, is_signal = sample(model, substream(seed, batch, STREAM_TWO_GROUP), m)
        n_signal += int(is_signal.sum())
        losses = []
        for k, cut in enumerate(cuts):
            reject = np.abs(x) > cut
            fp_fn[k] += [int((reject & ~is_signal).sum()), int((~reject & is_signal).sum())]
            losses.append((reject & ~is_signal) | (~reject & is_signal))
        if len(cuts) == 2:
            d = losses[0].astype(np.int64) - losses[1].astype(np.int64)
            diff += [int(d.sum()), int(np.abs(d).sum())]
    return fp_fn, diff, n_signal, draws


def oracle_comparison_full_mask(model, x_star: float, draws: int, seed: int, batches: int = 64,
                                sample=two_group_sample_mask):
    """oracle_comparison_mc from the full-length counts and paired loss sums."""
    from shrinktest.risk import TwoGroupComparison, _report_from_counts

    fp_fn, diff, n_signal, n_draws = two_group_counts_full_mask(
        model, (float(x_star), model.oracle_cutoff()), draws, seed, batches, sample
    )
    reports = [_report_from_counts(model, int(fp), int(fn), n_signal, n_draws) for fp, fn in fp_fn]
    mean_d = diff[0] / n_draws
    var_d = max(diff[1] / n_draws - mean_d * mean_d, 0.0)
    return TwoGroupComparison(
        threshold=reports[0],
        oracle=reports[1],
        risk_diff=model.n * mean_d,
        risk_diff_se=model.n * math.sqrt(var_d / n_draws),
    )


def window_counts_full_mask(model, replicates: int, seed: int) -> np.ndarray:
    """Per-replicate p_hat from all n two-group values, each replicate on its own
    (seed, replicate, STREAM_ESTIMATOR) stream, counted by simple_count_estimator."""
    from shrinktest import simple_count_estimator

    return np.array([
        simple_count_estimator(model.sample(substream(seed, rep, STREAM_ESTIMATOR), model.n)[0]).p_hat
        for rep in range(replicates)
    ])


def adaptive_losses_full_mask(prior_family, model, alpha: float, replicates: int, seed: int):
    """Per-replicate (loss count, p_hat) of the plug-in pipeline with label masks."""
    from shrinktest import ShrinkageCurve, simple_count_estimator

    out = []
    for rep in range(replicates):
        x, is_signal = two_group_sample_mask(model, substream(seed, rep, STREAM_TWO_GROUP), model.n)
        p_hat = simple_count_estimator(x).p_hat
        curve = ShrinkageCurve(prior_family(model.n, min(p_hat, model.n - 1)))
        reject = np.abs(x) > curve.decision_threshold(alpha)
        out.append((float((reject & ~is_signal).sum() + (~reject & is_signal).sum()), p_hat))
    pairs = np.array(out)
    return pairs[:, 0], pairs[:, 1]


# ---------------------------------------------------------------------------
# Adaptive QUADPACK integrators: the certificates' former path
# ---------------------------------------------------------------------------

_TINY = 1e-300
# Absolute floor so purely-relative targets cannot stall on zero integrals.
_ABS_FLOOR = 1e-200
# Achieved-error slack before declaring non-convergence.
_ERROR_SLACK = 100.0
_SQRT_HALF = math.sqrt(0.5)
# integrate_log: breakpoint mesh width and spacing, in units of t = log u.
_LOG_SPAN = 150.0
_LOG_STEP = 5.0


def _check_error(value_scale: float, err: float, rel_tol: float, what: str) -> None:
    budget = max(_ABS_FLOOR, rel_tol * value_scale) * _ERROR_SLACK
    if not math.isfinite(err) or err > budget:
        raise QuadratureError(
            f"{what}: achieved error {err:.3e} exceeds tolerance "
            f"{rel_tol:.1e} (scale {value_scale:.3e})",
            achieved=err,
        )


def _piece_points(points: Sequence[float]) -> tuple[list[float], list[float]]:
    """Map breakpoints in z-coordinates into the s-coordinates of each half."""
    lower, upper = [], []
    for z in points:
        if 0.0 < z < 0.5:
            lower.append(math.sqrt(z))
        elif 0.5 < z < 1.0:
            upper.append(math.sqrt(1.0 - z))
    return sorted(lower), sorted(upper)


def integrate_unit_vec(
    f: Callable[[float, float], np.ndarray],
    rel_tol: float = DEFAULT_REL_TOL,
    points: Sequence[float] = (),
) -> np.ndarray:
    """Integrate a vector-valued f over (0, 1) with endpoint substitutions.

    ``f(z, one_minus_z)`` must return a 1-d array; the complement is passed
    explicitly because near z = 1 it cannot be recovered from z without
    catastrophic rounding.  Each half of (0, 1) is regularized with a
    square-root substitution (z = s^2 near 0, 1 - z = s^2 near 1), which
    flattens integrable endpoint singularities before QUADPACK sees them.
    ``points`` are optional interior breakpoints in z.  All components
    share one adaptive mesh.
    """
    lower_pts, upper_pts = _piece_points(points)

    def lower(s: float) -> np.ndarray:
        z = s * s
        return 2.0 * s * f(z, 1.0 - z)

    def upper(s: float) -> np.ndarray:
        omz = s * s
        return 2.0 * s * f(1.0 - omz, omz)

    total = None
    err_total = 0.0
    for g, pts in ((lower, lower_pts), (upper, upper_pts)):
        val, err = quad_vec(
            g, 0.0, _SQRT_HALF,
            epsabs=_ABS_FLOOR, epsrel=rel_tol,
            points=pts or None, norm="max", limit=400,
        )
        total = val if total is None else total + val
        err_total += err
    _check_error(float(np.max(np.abs(total))), err_total, rel_tol, "unit-interval integral")
    return total


def quadpack_weight(prior, x: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """m_x by QUADPACK over z = u/(1+u), with e^{x^2/2} cancelled.

    The integrands are scaled by their maximum over a 514-point z-scan,
    and for |x| >= 8, where the weight concentrates at z near 1 on a
    scale of about (6/x)^2, a breakpoint is put there.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("observation must be finite")
    s_sq = np.linspace(1e-8, math.sqrt(0.5), 257) ** 2
    scan_omz = np.concatenate([1.0 - s_sq, s_sq])
    scan_u = np.concatenate([s_sq, 1.0 - s_sq]) / scan_omz
    scan_log_base = prior.log_density_at(scan_u) - 1.5 * np.log(scan_omz)
    half_x_sq = 0.5 * x * x
    scale = float(np.max(scan_log_base - half_x_sq * scan_omz))
    log_pi = prior.log_density

    def integrand(z: float, one_minus: float) -> np.ndarray:
        one_minus = max(one_minus, _TINY)
        u = max(z, _TINY) / one_minus
        log_w = float(log_pi(u)) - 1.5 * math.log(one_minus) - half_x_sq * one_minus - scale
        # The cap is reachable only inside an integrable endpoint spike
        # whose contribution the sqrt substitution already tames.
        log_w = min(log_w, 700.0)
        w = math.exp(log_w) if log_w > -745.0 else 0.0
        return np.array([w, z * w])

    points = (1.0 - min(0.25, 36.0 / (x * x)),) if abs(x) >= 8.0 else ()
    den, num = integrate_unit_vec(integrand, rel_tol, points)
    if den <= 0.0:
        raise NumericError("shrinkage weight denominator underflowed")
    return float(min(max(num / den, 0.0), 1.0))


def integrate_unit(
    f: Callable[[float, float], float],
    rel_tol: float = DEFAULT_REL_TOL,
    points: Sequence[float] = (),
) -> float:
    """Integrate a scalar f(z, 1-z) over (0, 1) with endpoint substitutions."""
    val = integrate_unit_vec(lambda z, omz: np.array([f(z, omz)]), rel_tol, points)
    return float(val[0])


def integrate_half_line(
    g: Callable[[float], float],
    rel_tol: float = DEFAULT_REL_TOL,
    points_u: Sequence[float] = (),
) -> float:
    """Integrate g over (0, inf) via the z = u/(1+u) substitution."""

    def f(z: float, omz: float) -> float:
        omz = max(omz, _TINY)
        return g(z / omz) / (omz * omz)

    zpts = [u / (1.0 + u) for u in points_u]
    return integrate_unit(f, rel_tol, zpts)


def integrate_tail(
    g: Callable[[float], float],
    lower: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Integrate g over (lower, inf); the shifted tail reuses the unit map."""
    return integrate_half_line(lambda t: g(lower + t), rel_tol)


def integrate_log(
    f: Callable[[float], float],
    top: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Integrate f(t) over (-inf, top], where t = log u, by QUADPACK.

    Breakpoints every _LOG_STEP over the top _LOG_SPAN; the remainder
    below is an infinite-range piece.
    """
    cut = top - _LOG_SPAN
    points = np.arange(cut + _LOG_STEP, top, _LOG_STEP)
    body, err_body = quad(f, cut, top, epsabs=_ABS_FLOOR, epsrel=rel_tol,
                          points=points, limit=400)
    tail, err_tail = quad(f, -math.inf, cut, epsabs=_ABS_FLOOR, epsrel=rel_tol, limit=200)
    total = body + tail
    _check_error(abs(total), err_body + err_tail, rel_tol, f"log-scale integral up to t={top:g}")
    return total


def integrate_finite(
    g: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Integrate g over a finite interval with an achieved-error check."""
    if not a < b:
        raise ValueError(f"empty integration interval [{a}, {b}]")
    val, err = quad(g, a, b, epsabs=_ABS_FLOOR, epsrel=rel_tol, limit=200)
    _check_error(abs(val), err, rel_tol, f"integral over [{a:g}, {b:g}]")
    return val
