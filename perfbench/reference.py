"""Independent references that the benchmark checks the library against.

Nothing here imports shrinktest.  The shrinkage weight is a fixed-grid
trapezoid in t = log u, the idiom of the test oracles moved to a
logarithmic grid: every integrand decays exponentially in t at both
ends, so a uniform t-grid resolves the horseshoe spike at u ~ tau^2 for
tau down to 1e-8, where the square-root z-grid of the tests does not.
The sparsity-count pipeline and its random streams are re-derived from
their documented definitions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import expit, gammaincc, gammaln
from scipy.stats import binom, norm

_T_LO, _T_HI, _T_STEP = -140.0, 60.0, 0.01
_MASK64 = (1 << 64) - 1
_CHUNK = 8  # x values per pass: keeps the check's arrays small next to the library's


def log_density(family: str, params: dict, u: np.ndarray) -> np.ndarray:
    """log pi(u) of the three built-in variance priors, written out afresh."""
    if family == "horseshoe":
        tau = params["tau"]
        return math.log(tau / math.pi) - 0.5 * np.log(u) - np.log(tau * tau + u)
    if family == "exponential":
        rate = params["rate"]
        return math.log(rate) - rate * u
    if family == "inverse_gamma":
        a, b = params["shape"], params["scale"]
        return a * math.log(b) - gammaln(a) - (a + 1.0) * np.log(u) - b / u
    raise ValueError(f"no reference density for family {family!r}")


class ReferenceCurve:
    """m_x by a uniform-step trapezoid in t = log u over [-140, 60].

    With z = u/(1+u) and the common factor e^{x^2/2} cancelled,
    m_x = sum(w z) / sum(w) where
    w = pi(u) u (1+u)^{-1/2} exp(-(x^2/2)(1-z)); the step cancels.
    """

    def __init__(self, family: str, params: dict):
        t = np.arange(_T_LO, _T_HI + _T_STEP / 2, _T_STEP)
        self._z = expit(t)
        self._omz = expit(-t)
        self._base = log_density(family, params, np.exp(t)) + t - 0.5 * np.logaddexp(0.0, t)
        self._roots: dict[float, float] = {}

    def weights(self, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.empty(len(xs))
        for i in range(0, len(xs), _CHUNK):
            half_sq = 0.5 * xs[i : i + _CHUNK, None] ** 2
            lw = self._base[None, :] - half_sq * self._omz[None, :]
            w = np.exp(lw - lw.max(axis=1, keepdims=True))
            out[i : i + _CHUNK] = (w @ self._z) / w.sum(axis=1)
        return out

    def weight(self, x: float) -> float:
        return float(self.weights([x])[0])

    def root(self, alpha: float) -> float:
        """x* with m_{x*} = alpha, by Brent's method on [0, 100]."""
        if alpha not in self._roots:
            self._roots[alpha] = float(
                brentq(lambda x: self.weight(x) - alpha, 0.0, 100.0, xtol=1e-13, rtol=8.9e-16)
            )
        return self._roots[alpha]


def mass_below_one(family: str, params: dict) -> float:
    """Closed-form prior mass of (0, 1): the condition-2 constant."""
    if family == "horseshoe":
        return 2.0 / math.pi * math.atan(1.0 / params["tau"])
    if family == "exponential":
        return -math.expm1(-params["rate"])
    if family == "inverse_gamma":
        return float(gammaincc(params["shape"], params["scale"]))
    raise ValueError(f"no reference mass for family {family!r}")


def _log_trapezoid(f, a: float, b: float, nodes: int = 200_001) -> float:
    t = np.linspace(math.log(a), math.log(b), nodes)
    u = np.exp(t)
    vals = f(u) * u
    return float((vals.sum() - 0.5 * (vals[0] + vals[-1])) * (t[1] - t[0]))


def condition3_constant(family: str, params: dict, n: int, p: float) -> float:
    """(I1 + I2) / s_n by log-grid trapezoid, as the condition-3 docstring defines it."""
    nu_sq = math.log(n / p)
    nu = math.sqrt(nu_sq)
    s_n = (p / n) * nu_sq

    def pi(u):
        return np.exp(log_density(family, params, u))

    i1_inner = _log_trapezoid(lambda u: u * pi(u), s_n, nu_sq)
    i1_tail = nu**3 * _log_trapezoid(lambda u: pi(u) / np.sqrt(u), nu_sq, 1e14)
    i2 = nu * _log_trapezoid(lambda u: pi(u) / np.sqrt(u), 1.0, nu_sq)
    return (i1_inner + i1_tail + i2) / s_n


def philox_stream(seed: int, replicate: int, stream: int) -> np.random.Generator:
    """The documented (seed, replicate, stream) key of the library's substreams."""
    key = np.array(
        [seed & _MASK64, ((stream & 0xFFFF) << 48) | (replicate & ((1 << 48) - 1))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def two_group_draw(seed: int, replicate: int, stream: int, n: int, p: float, c_psi: float):
    """Two-group data as the library draws it: signal flags, then scaled normals."""
    rng = philox_stream(seed, replicate, stream)
    is_signal = rng.random(n) < p / n
    x = rng.standard_normal(n)
    x[is_signal] *= math.sqrt(1.0 + math.log(n / p) / c_psi)
    return x, is_signal


def count_estimate(x: np.ndarray) -> float:
    """#{|x_i| >= sqrt(2 log n)}, floored at one."""
    return float(max(int((np.abs(x) >= math.sqrt(2.0 * math.log(len(x)))).sum()), 1))


def count_window_probabilities(
    n: int, p: float, c_psi: float, upper_cut: float, lower_cut: float
) -> tuple[float, float]:
    """P(p_hat <= upper_cut) and P(p_hat >= lower_cut) for the exceedance count.

    Coordinates are i.i.d., so the count is Binomial(n, q); p_hat = max(count, 1).
    """
    alt_sd = math.sqrt(1.0 + math.log(n / p) / c_psi)
    c = math.sqrt(2.0 * math.log(n))
    frac = p / n
    q = (1.0 - frac) * 2.0 * float(norm.sf(c)) + frac * 2.0 * float(norm.sf(c / alt_sd))
    upper = float(binom.cdf(math.floor(upper_cut), n, q)) if upper_cut >= 1.0 else 0.0
    lower = 1.0 if lower_cut <= 1.0 else float(binom.sf(math.ceil(lower_cut) - 1, n, q))
    return upper, lower
