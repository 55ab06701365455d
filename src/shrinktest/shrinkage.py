"""Posterior shrinkage weights and the decision threshold they induce.

For an observation x the posterior mean of the shrinkage factor
kappa = u / (1 + u) under a variance prior pi is

    m_x = int u (1+u)^{-3/2} e^{(x^2/2) u/(1+u)} pi(u) du
          ---------------------------------------------
          int   (1+u)^{-1/2} e^{(x^2/2) u/(1+u)} pi(u) du

which depends on x only through x^2, lies in [0, 1], and is
nondecreasing in |x| (the exponential family in z = u/(1+u) has a
monotone likelihood ratio).  Rewriting e^{(x^2/2) z} as
e^{x^2/2} e^{-(x^2/2)(1-z)} and cancelling the common factor keeps both
integrands bounded, so the ratio stays overflow-free far beyond the
|x| ~ 38 where the raw form leaves double precision.

In t = log u, m_x is the mean of z under the weight
pi(u) u (1+u)^{-1/2} e^{-(x^2/2)(1-z)} dt, which decays at both ends of
the t-line.  The trapezoid rule on a uniform t-grid converges
geometrically for such integrands, so one fixed node set serves every x:
the log of the x-free factor is tabulated once per curve, and a batch
of x costs one log-sum-exp pass over an (x, node) array.  An x whose
nodes fail their error check is recomputed from the same log-integrand
by the package's panel rule in t (quadrature.integrate_log_panels).
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.special import expit

from .priors import ScaleMixturePrior
from .quadrature import DEFAULT_REL_TOL, NumericError, integrate_log_panels

__all__ = [
    "AlwaysReject",
    "NoCrossing",
    "ShrinkageCurve",
    "large_signal_threshold",
]

_STEP_TOL = 1e-12
_MAX_STEPS = 100
_CAP_MARGIN = 20.0  # how far the search range reaches past the universal threshold
_MONOTONE_TOL = 1e-12
_MONOTONE_GRID = 65

# Fixed nodes of the fast kernel: a uniform grid in t = log u.  The
# built-in families are bumps of width O(1) in t at moderate |x| (a peak
# narrower than the step fails the step-2h check and falls back), and
# the horseshoe's mass at u ~ tau^2 sits at t = 2 log tau >= -37 for
# tau >= 1e-8.
_T_LO, _T_HI, _T_STEP = -140.0, 60.0, 0.05
# x values per pass, so the (x, node) arrays stay near 1 MB.
_CHUNK = 32
# Weight at either end node may carry at most this share of the error
# budget: with step 0.05 that bounds the truncated tail for any decay
# faster than e^{-0.02 |t|}.
_END_SHARE = 1e-3


class AlwaysReject(NumericError):
    """m_0 >= alpha: the rule rejects every observation."""


class NoCrossing(NumericError):
    """m_x stays below alpha over the whole search range."""


class ShrinkageCurve:
    """Evaluator for the shrinkage weight m_x and the threshold it induces.

    m_x is a trapezoid sum on fixed nodes in t = log u, evaluated for a
    whole batch of x at once.  Each value checks itself: the sum over
    every other node (step 2h) must agree with the full sum to within
    the relative tolerance 1e-9, and the end nodes must carry negligible
    weight.  An x that fails a check is recomputed on refined panels
    (``adaptive_weight``); the number of such recomputations is
    ``fallbacks``.

    Evaluations are pure and a curve holds no threshold state; a lock
    guards ``fallbacks`` so a curve can be shared across threads.
    """

    def __init__(self, prior: ScaleMixturePrior):
        self.prior = prior
        self._lock = threading.Lock()
        self._fallbacks = 0
        # Fast kernel: the x-free log-integrand, once per curve.  Even
        # nodes come first, so the step-2h sum is a prefix of the same terms.
        t = np.linspace(_T_LO, _T_HI, int(round((_T_HI - _T_LO) / _T_STEP)) + 1)
        t = np.concatenate([t[0::2], t[1::2]])
        self._n_even = (len(t) + 1) // 2
        self._z, self._omz = expit(t), expit(-t)
        with np.errstate(all="ignore"):
            self._log_base = self._log_integrand(t, self._omz)

    def _log_integrand(self, t: np.ndarray, omz: np.ndarray) -> np.ndarray:
        """log of pi(u) u (1+u)^{-1/2} at u = e^t, the x-free weight in t; omz is 1/(1+u)."""
        return self.prior.log_density_at(np.exp(t)) + t + 0.5 * np.log(omz)

    @property
    def fallbacks(self) -> int:
        """How many x values so far were recomputed on refined panels."""
        return self._fallbacks

    def weight(self, x: float) -> float:
        """m_x, the posterior mean of the shrinkage factor at observation x."""
        return float(self._evaluate(np.array([float(x)]))[0])

    def weights(self, xs) -> np.ndarray:
        """m_x for every x in ``xs`` (flattened), each bit-identical to ``weight(x)``."""
        return self._evaluate(np.asarray(xs, dtype=float).ravel())

    def _evaluate(self, xs: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(xs)):
            raise ValueError("observation must be finite")
        out = np.empty(len(xs))
        failed = np.zeros(len(xs), dtype=bool)
        # Two work arrays, reused by every chunk.
        work = np.empty((2, min(len(xs), _CHUNK), len(self._log_base)))
        for i in range(0, len(xs), _CHUNK):
            chunk = xs[i : i + _CHUNK]
            lw, wz = work[0, : len(chunk)], work[1, : len(chunk)]
            out[i : i + _CHUNK], failed[i : i + _CHUNK] = self._fixed_nodes(chunk, lw, wz)
        redo = np.flatnonzero(failed)
        if len(redo):
            with self._lock:
                self._fallbacks += len(redo)
            for j in redo:
                out[j] = self.adaptive_weight(xs[j])
        return out

    def _fixed_nodes(
        self, xs: np.ndarray, lw: np.ndarray, wz: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Trapezoid m_x for a chunk of x, and which of them failed a check.

        ``lw`` and ``wz`` are C-contiguous (len(xs), nodes) scratch arrays.
        """
        ne, z = self._n_even, self._z
        with np.errstate(all="ignore"):
            np.multiply.outer(0.5 * np.square(xs), self._omz, out=lw)
            np.subtract(self._log_base, lw, out=lw)
            lw -= lw.max(axis=1, keepdims=True)
            w = np.exp(lw, out=lw)
            np.multiply(w, z, out=wz)
            # Row sums: each x is reduced alone, in the same order
            # whatever the batch around it.
            den_e, num_e = w[:, :ne].sum(axis=1), wz[:, :ne].sum(axis=1)
            den = den_e + w[:, ne:].sum(axis=1)
            num = num_e + wz[:, ne:].sum(axis=1)
            m = num / den
            # The end nodes t_lo and t_hi are the first and last even nodes.
            end_den = w[:, 0] + w[:, ne - 1]
            end_num = wz[:, 0] + wz[:, ne - 1]
            tol = DEFAULT_REL_TOL
            ok = (
                np.isfinite(m)
                & (np.abs(den - 2.0 * den_e) <= tol * den)
                & (np.abs(num - 2.0 * num_e) <= tol * num)
                & (end_den <= _END_SHARE * tol * den)
                & (end_num <= _END_SHARE * tol * num)
            )
        return np.clip(m, 0.0, 1.0), ~ok

    def adaptive_weight(self, x: float) -> float:
        """m_x by the panel rule in t = log u: the kernel's fallback.

        The denominator and the numerator (the same log-integrand plus
        log z) are two integrals over the whole t-line, each shifted by
        the largest node log-weight at x so it stays O(1).  The panels
        are halved where they fail their check, so a peak narrower than
        the node step, or a jump in the prior, is resolved.
        """
        x = float(x)
        if not math.isfinite(x):
            raise ValueError("observation must be finite")
        half_x_sq = 0.5 * x * x
        shift = float(np.max(self._log_base - half_x_sq * self._omz))

        def log_den(t: np.ndarray) -> np.ndarray:
            omz = expit(-t)
            return self._log_integrand(t, omz) - half_x_sq * omz - shift

        den = integrate_log_panels(log_den, -math.inf, math.inf)[0]
        num = integrate_log_panels(lambda t: log_den(t) + np.log(expit(t)), -math.inf, math.inf)[0]
        if den <= 0.0:
            raise NumericError("shrinkage weight denominator underflowed")
        return float(min(max(num / den, 0.0), 1.0))

    def posterior_mean(self, x: float) -> float:
        """Posterior mean of the signal: m_x * x (odd, contracts toward 0)."""
        return self.weight(x) * float(x)

    def search_cap(self) -> float:
        """Search cap: the universal threshold sqrt(2 log(1/tau)) plus 20."""
        return math.sqrt(2.0 * math.log(1.0 / self.prior.tau)) + _CAP_MARGIN

    def decision_threshold(self, alpha: float) -> float:
        """The crossing x* >= 0 with m_{x*} = alpha, found by safeguarded Newton.

        The bracket is [0, cap], or [cap, 2 cap] when m_cap < alpha.
        Newton's method on logit(m_x) = logit(alpha) starts at the
        universal threshold (mid-bracket in the second case), with the
        slope from the same nodes as m_x, which is bit-identical to
        ``weight(x)``.  A step that leaves the bracket, or does not halve
        the step before it, is replaced by bisection; where x fell back,
        the secant through the last two points gives the slope.  The
        search stops when a Newton step moves x by at most 1e-12, or when
        the bracket is that narrow.

        The fixed-node m is a finite exponential family in s = x^2/2, so
        dm/ds is the node variance of z and m is monotone by construction.
        Adaptive values carry no such proof: if any x fell back during
        the search, a batch of weights on [0, cap] must be monotone
        before x* is returned.  Raises AlwaysReject when m_0 >= alpha and
        NoCrossing when m stays below alpha up to twice the search cap.
        """
        alpha = float(alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        fallbacks = self.fallbacks
        cap = self.search_cap()
        m0, m_cap = self.weights([0.0, cap]).tolist()
        if m0 >= alpha:
            raise AlwaysReject(f"m_0 = {m0:.6g} >= alpha = {alpha:.6g}")
        lo, hi = 0.0, cap
        if m_cap < alpha:
            lo, hi = hi, 2.0 * cap
            if self.weight(hi) < alpha:
                raise NoCrossing(
                    f"m_x < alpha = {alpha:.6g} for all x up to {hi:.6g}"
                )
        x = cap - _CAP_MARGIN if lo == 0.0 else 0.5 * (lo + hi)
        target, last_step, prev = _logit(alpha), hi - lo, None
        for _ in range(_MAX_STEPS):
            xs, (lw, wz) = np.array([x]), np.empty((2, 1, len(self._log_base)))
            m, failed = self._fixed_nodes(xs, lw, wz)
            if failed[0]:
                m, slope = float(self._evaluate(xs)[0]), math.nan
            else:  # dm/dx = x Var(z) under the node weights left in lw, in two passes
                m, dev = float(m[0]), self._z - m[0]
                slope = x * float(lw[0] @ (dev * dev)) / float(lw[0].sum())
            if m == alpha:
                break
            lo, hi = (x, hi) if m < alpha else (lo, x)
            g = _logit(m) - target
            if not slope > 0.0 and prev is not None and x != prev[0]:
                slope = (g - prev[1]) / (x - prev[0]) * m * (1.0 - m)  # the secant
            prev = (x, g)
            step = g * m * (1.0 - m) / slope if slope > 0.0 else math.nan
            x_new = x - step
            newton = lo <= x_new <= hi and abs(step) <= 0.5 * last_step
            if not newton:
                x_new = 0.5 * (lo + hi)
            x, last_step = x_new, abs(x_new - x)
            if (newton and abs(step) <= _STEP_TOL) or hi - lo <= _STEP_TOL:
                break
        else:
            raise NumericError(f"threshold search for alpha = {alpha:.6g} did not converge")
        if self.fallbacks != fallbacks:
            grid = np.linspace(0.0, cap, _MONOTONE_GRID)
            drops = np.diff(self.weights(grid))
            worst = float(drops.min())
            if worst < -_MONOTONE_TOL:
                at = float(grid[int(np.argmin(drops)) + 1])
                raise NumericError(
                    f"shrinkage weight is not monotone on [0, {cap:.3g}]: "
                    f"drop of {-worst:.3e} at x={at:.6g}; x* refused"
                )
        return x


def _logit(m: float) -> float:
    """log(m / (1 - m)), infinite at 0 and 1."""
    return math.log(m / (1.0 - m)) if 0.0 < m < 1.0 else math.copysign(math.inf, m - 0.5)


def large_signal_threshold(
    prior: ScaleMixturePrior, p: float | None = None, c1: float = 0.0
) -> float:
    """Magnitude beyond which the shrinkage weight is guaranteed large.

    Returns c1 + sqrt(2 K (1 + u0) log(n/p)) from the prior's declared
    tail constants; pure arithmetic consumed by the risk bounds.
    """
    if prior.lower_exponent is None:
        raise ValueError("prior does not declare the tail exponent K")
    if c1 < 0.0:
        raise ValueError("c1 must be nonnegative")
    p = prior.p if p is None else float(p)
    if not 0.0 < p < prior.n:
        raise ValueError(f"p must lie in (0, n); got p={p}, n={prior.n}")
    k, u0 = prior.lower_exponent, prior.rv_onset
    return c1 + math.sqrt(2.0 * k * (1.0 + u0) * math.log(prior.n / p))
