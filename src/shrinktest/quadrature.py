"""Quadrature for densities on the positive half-line.

One fixed-node rule serves every integral of the package
(integrate_log_panels): the integral is taken in t = log u, on 16-point
Gauss-Legendre panels, each checked against the same rule on its two
halves.  In t, a density's mass at any scale u0 -- the horseshoe's spike
at u ~ tau^2 included -- is a bump of width O(1) at t = log u0, and rules
on such bumps converge geometrically; a bump narrower than a panel, or a
jump in the density, is met by halving the panels that fail the check.
The certificates' moments and the shrinkage kernel's fallback for m_x
both run on it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

DEFAULT_REL_TOL = 1e-9

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
    """Integration failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


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
