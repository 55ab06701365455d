"""Adaptive quadrature for densities on the positive half-line.

Every integral over (0, inf) is mapped to the unit interval through
z = u / (1 + u).  Each half of (0, 1) is then regularized with a
square-root substitution (z = s^2 near 0, 1 - z = s^2 near 1) so that
integrable endpoint singularities -- u^{-1/2} spikes at the origin,
heavy polynomial tails at infinity -- are flattened before the adaptive
rule sees them.  The same machinery serves tail integrals with a finite
lower endpoint.  Masses below a cutoff are integrated on a log scale
instead (integrate_log), where a spike at any scale near the origin is
a bump of width O(1).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, quad_vec

DEFAULT_REL_TOL = 1e-9

# Absolute floor so purely-relative targets cannot stall on zero integrals.
_ABS_FLOOR = 1e-200
# Achieved-error slack before declaring non-convergence.
_ERROR_SLACK = 100.0

_SQRT_HALF = math.sqrt(0.5)
# Log-scale integrals: breakpoint mesh width and spacing, in units of
# t = log u.  A 21-point rule on a 5-wide piece samples bumps as narrow
# as the inverse-gamma one at shape 10 (width ~ shape^{-1/2} ~ 0.3).
_LOG_SPAN = 150.0
_LOG_STEP = 5.0
_TINY = 1e-300


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
    """Integrate f(t) over (-inf, top], where t = log u is a log scale.

    A feature of a density at any scale u0 -- the horseshoe's spike at
    u ~ tau^2 included -- is a bump of width O(1) at t = log u0.  Fixed
    breakpoints every _LOG_STEP over the top _LOG_SPAN make the first
    rule on each piece sample such a bump wherever it sits; the
    remainder below is an infinite-range QUADPACK piece.
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
