"""Quadrature for densities on the positive half-line.

The certificates integrate in t = log u with a fixed-node rule
(integrate_log_panels): 16-point Gauss-Legendre panels, each checked
against the same rule on its two halves.  In t, a density's mass at any
scale u0 -- the horseshoe's spike at u ~ tau^2 included -- is a bump of
width O(1) at t = log u0, and rules on such bumps converge
geometrically.

The shrinkage kernel's fallback integrates over the unit interval
instead (integrate_unit_vec).  There (0, inf) is mapped through
z = u / (1 + u), and each half of (0, 1) is regularized with a
square-root substitution (z = s^2 near 0, 1 - z = s^2 near 1), so that
integrable endpoint singularities -- u^{-1/2} spikes at the origin,
heavy polynomial tails at infinity -- are flattened before the adaptive
rule sees them.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad_vec

DEFAULT_REL_TOL = 1e-9

# Absolute floor so purely-relative targets cannot stall on zero integrals.
_ABS_FLOOR = 1e-200
# Achieved-error slack before declaring non-convergence.
_ERROR_SLACK = 100.0

_SQRT_HALF = math.sqrt(0.5)

# Panel rule in t = log u: the nodes and weights of 16-point
# Gauss-Legendre on [-1, 1], the starting panel width, and the cap on
# the panel count that refinement may reach.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANEL_WIDTH = 1.0
_MAX_PANELS = 2048
# Panels of width 1 cover t in [-140, 60] (u from 1.6e-61 to 1.1e26, the
# shrinkage kernel's node range).  Past that, toward an infinite end,
# they double in width up to the cut at |t| = 700, where u is still a
# normal float, so a tail as slow as u^{-0.1} costs 9 more panels.  The
# integrand at the cut may carry at most _END_SHARE of the error budget
# per unit of t, which bounds the cut-off tail for any decay faster than
# e^{-0.001 |t|}.
_T_LO, _T_HI, _T_CUT = -140.0, 60.0, 700.0
_END_SHARE = 1e-3
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class NumericError(RuntimeError):
    """A numeric breakdown: the inputs were valid but no trustworthy answer exists.

    Program bugs (RecursionError, NotImplementedError, ...) are other
    RuntimeErrors and must never be reported as one of these.
    """


class QuadratureError(NumericError):
    """Adaptive integration failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


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
    catastrophic rounding.  ``points`` are optional interior breakpoints
    in z.  All components share one adaptive mesh.
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


def _gauss_terms(log_f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray) -> np.ndarray:
    """The 16 weighted Gauss-Legendre node terms of each panel between edges, one row each."""
    half = 0.5 * np.diff(edges)
    t = (edges[:-1] + half)[:, None] + half[:, None] * _GL_X
    log_vals = log_f(t)
    bad = ~(log_vals < _LOG_FLOAT_MAX)  # also catches nan
    if bad.any():
        raise QuadratureError(f"non-finite integrand at u={math.exp(t[bad][0]):g}")
    return np.exp(log_vals) * (half[:, None] * _GL_W)


def integrate_log_panels(
    log_f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> tuple[float, float]:
    """Integrate exp(log_f(t)) over [lo, hi] in t = log u; return (value, error).

    ``log_f`` maps an array of t to the log of the integrand, elementwise.
    The range starts as panels of width 1 on [-140, 60], doubling in
    width beyond that toward an infinite end.  Each panel's rule
    value is compared with the sum of the rule on its two halves, and
    the error estimate is the total of those differences.  While it
    exceeds ``rel_tol`` times the value, every panel whose difference is
    at or above the mean share of the budget is halved.  The value
    returned is the rule on the halves, its node terms summed in extended
    precision (where numpy has it).

    An infinite end is cut at |t| = 700, where the integrand must be
    negligible (see _END_SHARE).  Raises QuadratureError when that fails,
    when the integrand is not finite, or when the estimate is still over
    the tolerance at _MAX_PANELS panels.
    """
    body_lo = _T_LO if lo == -math.inf else lo
    body_hi = _T_HI if hi == math.inf else hi
    if not body_lo < body_hi:
        raise ValueError(f"empty integration interval [{lo}, {hi}]")
    edges = np.linspace(body_lo, body_hi, math.ceil((body_hi - body_lo) / _PANEL_WIDTH) + 1)
    doubling = np.append(2.0 ** np.arange(1, 10) - 1.0, math.inf)  # 1, 3, 7, ..., 511
    if lo == -math.inf:
        edges = np.concatenate([np.maximum(body_lo - doubling[::-1], -_T_CUT), edges])
    if hi == math.inf:
        edges = np.concatenate([edges, np.minimum(body_hi + doubling, _T_CUT)])
    while True:
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = _gauss_terms(log_f, np.sort(np.concatenate([edges, mids])))
        fine = halves.sum(axis=1)
        diff = np.abs(fine[0::2] + fine[1::2] - _gauss_terms(log_f, edges).sum(axis=1))
        value, error = float(halves.sum(dtype=np.longdouble)), float(diff.sum())
        budget = rel_tol * abs(value)
        if error <= budget:
            break
        split = diff >= min(budget / len(diff), diff.max())
        if len(edges) + np.count_nonzero(split) > _MAX_PANELS:
            raise QuadratureError(f"log-scale integral over [{lo:g}, {hi:g}]: error {error:.3e} "
                                  f"over {rel_tol:.1e} of {abs(value):.3e} at {len(mids)} panels",
                                  achieved=error)
        edges = np.sort(np.concatenate([edges, mids[split]]))
    for end, cut in ((lo, edges[0]), (hi, edges[-1])):
        if math.isinf(end):
            log_at_cut = float(log_f(np.array([cut]))[0])
            if not (log_at_cut < _LOG_FLOAT_MAX and math.exp(log_at_cut) <= _END_SHARE * budget):
                raise QuadratureError(f"log-scale integral: the integrand at the cut t={cut:g} "
                                      f"(log {log_at_cut:.4g}) is not negligible")
    return value, error
