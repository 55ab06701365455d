"""Scale-mixture priors on the local variance and their certificates.

A prior here is a density pi on (0, inf) for the variance of a
zero-mean Gaussian signal, together with the declared constants that
the risk bounds consume: an exponential tail rate b (pi = L(u) e^{-bu}
with L slowly varying in a uniform sense), a polynomial-in-sparsity
lower bound on the tail (C' pi(u) >= (p/n)^K e^{-b'u} for u >= u_*),
and a (n, p) sparsity pair defining tau = p/n and nu = sqrt(log(n/p)).

The check_condition* operations certify, on explicit grids or by
quadrature, the three properties the bounds need: a uniformly bounded
tail ratio, mass near the origin, and controlled intermediate decay
relative to s_n = tau * nu^2.  Grid verification is evidence, not
proof; every certificate records the grid it used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np
from scipy.special import gammaln

from .quadrature import DEFAULT_REL_TOL, QuadratureError, integrate_log_panels

__all__ = [
    "ScaleMixturePrior",
    "ConditionCertificate",
    "ConditionGrid",
    "DegenerateSparsityError",
    "horseshoe_prior",
    "exponential_prior",
    "inverse_gamma_prior",
    "check_condition1",
    "check_condition1_lower",
    "check_condition2",
    "check_condition3",
    "certified_constants",
    "certify_prior",
    "normalization",
    "mass_below",
    "prior_to_config",
    "prior_from_config",
    "parse_prior_spec",
]


class DegenerateSparsityError(ValueError):
    """Raised when log(n/p) <= 1 puts the sparsity pair outside the sparse regime."""


@dataclass(frozen=True)
class ScaleMixturePrior:
    """A variance density plus declared condition constants.

    ``log_density`` maps u > 0 to log pi(u); it must accept numpy arrays
    and scalars (write it with numpy ufuncs).  Constants that are not
    derivable for a family are left as None and estimated by the checkers.
    """

    log_density: Callable[[np.ndarray], np.ndarray]
    n: int
    p: float
    tail_rate: float = 0.0            # b
    lower_rate: float | None = None   # b'
    lower_scale: float | None = None  # C'
    lower_exponent: float | None = None  # K
    lower_onset: float = 1.0          # u_*
    rv_onset: float = 1.0             # u_0
    rv_ratio: float | None = None     # R
    family: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 0.0 < self.p < self.n:
            raise ValueError(f"p must lie in (0, n); got p={self.p}, n={self.n}")
        if self.tail_rate < 0.0:
            raise ValueError("tail rate b must be nonnegative")
        if self.rv_onset <= 0.0:
            raise ValueError("rv onset u0 must be positive")
        if self.rv_ratio is not None and self.rv_ratio <= 1.0:
            raise ValueError("rv ratio R must exceed 1")
        if self.lower_rate is not None and self.lower_rate <= 0.0:
            raise ValueError("lower rate b' must be positive")
        if self.lower_scale is not None and self.lower_scale <= 0.0:
            raise ValueError("lower scale C' must be positive")
        if self.lower_exponent is not None and self.lower_exponent < 0.0:
            raise ValueError("lower exponent K must be nonnegative")
        if self.lower_onset < 1.0:
            raise ValueError("lower onset u_* must be >= 1")

    @property
    def tau(self) -> float:
        """Sparsity fraction p/n."""
        return self.p / self.n

    @property
    def nu(self) -> float:
        """sqrt(log(n/p)), the scale of detectable signals."""
        return math.sqrt(math.log(self.n / self.p))

    @property
    def s_n(self) -> float:
        """tau * nu^2, the small-signal mass scale."""
        return self.tau * math.log(self.n / self.p)

    def log_density_at(self, u) -> np.ndarray:
        return np.asarray(self.log_density(np.asarray(u, dtype=float)), dtype=float)

    def density(self, u) -> np.ndarray:
        """pi(u), evaluated through the log-density."""
        return np.exp(self.log_density_at(u))


@dataclass(frozen=True)
class ConditionCertificate:
    """Outcome of checking one prior condition on an explicit grid."""

    condition_id: str  # one of C1-rv, C1-lower, C2, C3
    satisfied: bool
    estimated_constant: float
    witness: str | None = None
    grid: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.satisfied and not self.estimated_constant > 0.0:
            raise ValueError("a satisfied certificate needs a positive constant")

    def to_record(self) -> dict:
        return {
            "condition": self.condition_id,
            "satisfied": self.satisfied,
            "constant": self.estimated_constant,
            "witness": self.witness,
            "grid": dict(self.grid) if self.grid else None,
        }


@dataclass(frozen=True)
class ConditionGrid:
    """Grid used for the tail-ratio and lower-bound checks."""

    u_max: float = 1e4
    n_u: int = 512
    n_a: int = 16

    def __post_init__(self) -> None:
        if self.u_max < 1e3:
            raise ValueError("u_max must be >= 1e3")
        if self.n_u < 256:
            raise ValueError("need at least 256 geometric u points")
        if self.n_a < 16:
            raise ValueError("need at least 16 points covering a in [1, 2]")

    def u_points(self, u_min: float) -> np.ndarray:
        return np.geomspace(u_min, self.u_max, self.n_u)

    def a_points(self) -> np.ndarray:
        return np.linspace(1.0, 2.0, self.n_a)

    def describe(self, u_min: float) -> dict:
        return {"u_min": u_min, "u_max": self.u_max, "n_u": self.n_u, "n_a": self.n_a}


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

def horseshoe_prior(tau: float, n: int, p: float) -> ScaleMixturePrior:
    """Half-Cauchy-scale prior on the variance: pi(u) = tau / (pi sqrt(u) (tau^2 + u)).

    The tail is polynomial, so the exponential rate is b = 0 and the tail
    ratio is bounded by 2^{3/2} for u >= 1.  When tau equals p/n the tail
    lower bound holds with K = 1, b' = 1, u_* = 1; for other tau the
    exponent is adjusted so that tau_n^K still undershoots the tail mass.
    """
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if not 0.0 < p < n:
        raise ValueError(f"p must lie in (0, n); got p={p}, n={n}")
    log_tau = math.log(tau)
    tau_sq = tau * tau

    def log_density(u: np.ndarray) -> np.ndarray:
        return log_tau - math.log(math.pi) - 0.5 * np.log(u) - np.log(tau_sq + u)

    tau_n = p / n
    if math.isclose(tau, tau_n, rel_tol=1e-12):
        k = 1.0
    elif tau >= tau_n or tau >= 1.0:
        k = 1.0
    else:
        # tau < tau_n < 1: tau_n^K <= tau needs K >= log tau / log tau_n.
        k = math.log(tau) / math.log(tau_n)
    return ScaleMixturePrior(
        log_density=log_density,
        n=n,
        p=p,
        tail_rate=0.0,
        lower_rate=1.0,
        lower_scale=None,
        lower_exponent=k,
        lower_onset=1.0,
        rv_onset=1.0,
        rv_ratio=2.0 ** 1.5,
        family="horseshoe",
        params=(("tau", tau),),
    )


def exponential_prior(rate: float, n: int, p: float) -> ScaleMixturePrior:
    """Exponential variance prior pi(u) = rate * e^{-rate u}.

    The boundary case of admissible tail decay: b = rate with a constant
    slowly-varying factor, so the tail-ratio certificate returns exactly 1
    and the lower bound holds with equality (K = 0, b' = rate, C' = 1/rate).
    """
    if not rate > 0.0:
        raise ValueError("rate must be positive")
    log_rate = math.log(rate)

    def log_density(u: np.ndarray) -> np.ndarray:
        return log_rate - rate * u

    return ScaleMixturePrior(
        log_density=log_density,
        n=n,
        p=p,
        tail_rate=rate,
        lower_rate=rate,
        lower_scale=1.0 / rate,
        lower_exponent=0.0,
        lower_onset=1.0,
        rv_onset=1.0,
        rv_ratio=None,  # constant L has R = 1, below the field's open bound
        family="exponential",
        params=(("rate", rate),),
    )


def inverse_gamma_prior(shape: float, scale: float, n: int, p: float) -> ScaleMixturePrior:
    """Inverse-gamma variance prior, a polynomial-tail contrast case (b = 0)."""
    if not shape > 0.0:
        raise ValueError("shape must be positive")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    log_norm = shape * math.log(scale) - float(gammaln(shape))

    def log_density(u: np.ndarray) -> np.ndarray:
        return log_norm - (shape + 1.0) * np.log(u) - scale / u

    return ScaleMixturePrior(
        log_density=log_density,
        n=n,
        p=p,
        tail_rate=0.0,
        lower_rate=1.0,
        lower_scale=None,
        lower_exponent=0.0,
        lower_onset=1.0,
        rv_ratio=None,
        family="inverse_gamma",
        params=(("shape", shape), ("scale", scale)),
    )


# ---------------------------------------------------------------------------
# Condition checkers
# ---------------------------------------------------------------------------

def _checked_log_density(prior: ScaleMixturePrior, u: np.ndarray) -> np.ndarray:
    vals = prior.log_density_at(u)
    if not np.all(np.isfinite(vals)):
        bad = float(u[~np.isfinite(vals)][0])
        raise QuadratureError(f"non-finite log-density at u={bad:g}")
    return vals


def check_condition1(
    prior: ScaleMixturePrior, grid: ConditionGrid | None = None
) -> ConditionCertificate:
    """Certify that L(u) = pi(u) e^{bu} has a bounded tail ratio on the grid.

    The estimated constant is the largest two-sided ratio
    max(L(au)/L(u), L(u)/L(au)) over a in [1, 2] and u in [u0, u_max].
    Against a declared ratio bound the check is direct; without one, the
    grid only refutes boundedness when the ratio keeps growing with u,
    so the top decade of the grid is compared against the rest.
    """
    grid = grid or ConditionGrid()
    u = grid.u_points(prior.rv_onset)
    a = grid.a_points()
    b = prior.tail_rate
    log_pi = _checked_log_density(prior, u)
    col = a[:, None]  # one row per a; the row a = 1 cancels to 0 below
    log_pi_a = _checked_log_density(prior, col * u)
    raw = np.abs(log_pi_a + b * col * u - (log_pi + b * u))
    # Cancellation noise from pi = L e^{-bu}: differences below rounding
    # scale are genuinely zero (constant L must certify R = 1 exactly).
    eps = np.finfo(float).eps
    noise = 64.0 * eps * (2.0 + np.abs(log_pi) + np.abs(log_pi_a) + b * u * (1.0 + col))
    abs_log_ratio = np.where(raw <= noise, 0.0, raw)
    per_u = abs_log_ratio.max(axis=0)
    ia, iu = np.unravel_index(int(np.argmax(abs_log_ratio)), abs_log_ratio.shape)
    log_r = float(per_u.max())
    estimated = float(np.exp(log_r)) if log_r < 709.0 else math.inf

    witness = None
    if prior.rv_ratio is not None:
        satisfied = estimated <= prior.rv_ratio * (1.0 + 1e-9)
        if not satisfied:
            witness = (
                f"ratio {estimated:.4g} exceeds declared R={prior.rv_ratio:.4g} "
                f"at a={a[ia]:.4g}, u={u[iu]:.4g}"
            )
    else:
        # Divergence test: a bounded ratio cannot keep growing in the tail.
        top = u >= grid.u_max / 10.0
        diverging = per_u[top].max() > per_u[~top].max() + math.log(2.0)
        satisfied = math.isfinite(estimated) and not diverging
        if not satisfied:
            witness = (
                f"tail ratio still growing: {per_u[top].max():.4g} (log) in the "
                f"top decade vs {per_u[~top].max():.4g} below; worst at "
                f"a={a[ia]:.4g}, u={u[iu]:.4g}"
            )
    return ConditionCertificate(
        condition_id="C1-rv",
        satisfied=satisfied,
        estimated_constant=estimated,
        witness=witness,
        grid=grid.describe(prior.rv_onset),
    )


def check_condition1_lower(
    prior: ScaleMixturePrior, grid: ConditionGrid | None = None
) -> ConditionCertificate:
    """Certify the tail lower bound C' pi(u) >= tau^K e^{-b'u} on [u_*, u_max].

    The estimated constant is the smallest workable C'; with a declared
    C' the inequality is checked pointwise on that grid.
    """
    if prior.lower_rate is None or prior.lower_exponent is None:
        raise ValueError("prior does not declare lower-bound constants b' and K")
    grid = grid or ConditionGrid()
    u = grid.u_points(prior.lower_onset)
    log_pi = _checked_log_density(prior, u)
    log_rhs = prior.lower_exponent * math.log(prior.tau) - prior.lower_rate * u
    # Smallest C' making C' pi(u) >= rhs everywhere on the grid.
    log_c_needed = float(np.max(log_rhs - log_pi))
    c_min = float(np.exp(min(log_c_needed, 709.0))) if log_c_needed < 709.0 else math.inf
    witness = None
    if prior.lower_scale is not None:
        gap = math.log(prior.lower_scale) + log_pi - log_rhs
        satisfied = bool(np.all(gap >= -1e-9))
        if not satisfied:
            bad = float(u[int(np.argmin(gap))])
            witness = f"declared C'={prior.lower_scale:.4g} fails at u={bad:.6g}"
    else:
        satisfied = math.isfinite(c_min)
        if not satisfied:
            bad = float(u[int(np.argmax(log_rhs - log_pi))])
            witness = f"no finite C' works on the grid; worst at u={bad:.6g}"
    return ConditionCertificate(
        condition_id="C1-lower",
        satisfied=satisfied,
        estimated_constant=prior.lower_scale if prior.lower_scale is not None else c_min,
        witness=witness,
        grid=grid.describe(prior.lower_onset),
    )


def _moment(prior: ScaleMixturePrior, power: float, lo: float, hi: float) -> tuple[float, float]:
    """Integral of u^power pi(u) over (e^lo, e^hi), and its error estimate.

    The integral is taken in t = log u, where the integrand is
    pi(e^t) e^{(power + 1) t}: a bump of width O(1) around every scale
    where pi has mass, so the fixed panels resolve mass at any u (the
    horseshoe puts most of it near tau^2) where a grid in u may step
    over it.
    """

    def log_integrand(t: np.ndarray) -> np.ndarray:
        return prior.log_density_at(np.exp(t)) + (power + 1.0) * t

    return integrate_log_panels(log_integrand, lo, hi)


def mass_below(prior: ScaleMixturePrior, cutoff: float = 1.0) -> float:
    """Prior mass of (0, cutoff), integrated in t = log u."""
    return _moment(prior, 0.0, -math.inf, math.log(cutoff))[0]


def check_condition2(prior: ScaleMixturePrior) -> ConditionCertificate:
    """Certify the near-zero mass constant c = integral of pi over (0, 1).

    The grid records the tolerance and the panel rule's relative error estimate.
    """
    c, error = _moment(prior, 0.0, -math.inf, 0.0)
    rel_error = error / c if c > 0.0 else 0.0
    return ConditionCertificate(
        condition_id="C2",
        satisfied=c > 0.0,
        estimated_constant=c,
        witness=None if c > 0.0 else "no prior mass below 1",
        grid={"cutoff": 1.0, "rel_tol": DEFAULT_REL_TOL, "rel_error": rel_error},
    )


def check_condition3(prior: ScaleMixturePrior) -> ConditionCertificate:
    """Report the implied intermediate-decay constant relative to s_n.

    Evaluates (I1 + I2) / s_n where I1 integrates min(u, nu^3/sqrt(u))
    above s_n and I2 weights the window [1, nu^2] by nu/sqrt(u).  The
    certificate always reports; downstream bounds consume the constant.
    The grid records the tolerance and the panel rule's relative error
    estimate, summed over the three integrals.
    """
    n, p = prior.n, prior.p
    nu_sq = math.log(n / p)
    if not nu_sq > 1.0:
        raise DegenerateSparsityError(
            f"p={p!r} gives log(n/p) = {nu_sq!r} <= 1 with n={n} "
            f"(p must stay below n/e = {n / math.e!r}): no detection window"
        )
    nu = math.sqrt(nu_sq)
    s_n = (p / n) * nu_sq  # below 1/e, the top of tau log(1/tau)
    log_nu_sq = math.log(nu_sq)
    i1_inner, e1_inner = _moment(prior, 1.0, math.log(s_n), log_nu_sq)
    i1_tail, e1_tail = _moment(prior, -0.5, log_nu_sq, math.inf)
    i2, e2 = _moment(prior, -0.5, 0.0, log_nu_sq)
    constant = (i1_inner + nu ** 3 * i1_tail + nu * i2) / s_n
    error = (e1_inner + nu ** 3 * e1_tail + nu * e2) / s_n
    rel_error = error / constant if constant > 0.0 else 0.0
    return ConditionCertificate(
        condition_id="C3",
        satisfied=True,
        estimated_constant=constant,
        witness=None,
        grid={"s_n": s_n, "nu_sq": nu_sq, "rel_tol": DEFAULT_REL_TOL, "rel_error": rel_error},
    )


def certified_constants(prior: ScaleMixturePrior) -> tuple[float, float]:
    """The pair (c, C) the risk bounds consume: C2's mass and C3's decay constant."""
    return check_condition2(prior).estimated_constant, check_condition3(prior).estimated_constant


def certify_prior(
    prior: ScaleMixturePrior, grid: ConditionGrid | None = None
) -> list[ConditionCertificate]:
    """Run all condition checks and return their certificates."""
    return [
        check_condition1(prior, grid),
        check_condition1_lower(prior, grid),
        check_condition2(prior),
        check_condition3(prior),
    ]


def normalization(prior: ScaleMixturePrior) -> float:
    """Total prior mass on (0, inf); should be 1 for a proper density."""
    return _moment(prior, 0.0, -math.inf, math.inf)[0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_FAMILIES = {
    "horseshoe": (horseshoe_prior, ("tau",)),
    "exponential": (exponential_prior, ("rate",)),
    "inverse_gamma": (inverse_gamma_prior, ("shape", "scale")),
}

_OPTIONAL_CONSTANTS = {
    "b": "tail_rate",
    "b_prime": "lower_rate",
    "c_prime": "lower_scale",
    "k": "lower_exponent",
    "u_star": "lower_onset",
    "u0": "rv_onset",
    "r": "rv_ratio",
}


def prior_to_config(prior: ScaleMixturePrior) -> dict[str, float | str | int]:
    """Flatten a built-in prior to a key-value block."""
    if prior.family not in _FAMILIES:
        raise ValueError(f"prior family {prior.family!r} is not serializable")
    out: dict[str, float | str | int] = {"family": prior.family, "n": prior.n, "p": prior.p}
    out.update(dict(prior.params))
    for key, attr in _OPTIONAL_CONSTANTS.items():
        val = getattr(prior, attr)
        if val is not None:
            out[key] = val
    return out


def prior_from_config(config: Mapping[str, object]) -> ScaleMixturePrior:
    """Build a prior from a key-value block produced by prior_to_config."""
    items = {str(k).lower(): v for k, v in config.items()}
    family = str(items.pop("family", "")).lower()
    if family not in _FAMILIES:
        raise ValueError(f"unknown prior family {family!r}")
    builder, param_names = _FAMILIES[family]
    try:
        n = int(items.pop("n"))
        p = float(items.pop("p"))
        params = [float(items.pop(name)) for name in param_names]
    except KeyError as exc:
        raise ValueError(f"prior config missing field {exc.args[0]!r}") from None
    prior = builder(*params, n, p)
    overrides = {}
    for key, attr in _OPTIONAL_CONSTANTS.items():
        if key in items:
            overrides[attr] = float(items.pop(key))
    if items:
        raise ValueError(f"unknown prior config fields: {sorted(items)}")
    return replace(prior, **overrides) if overrides else prior


def parse_prior_spec(text: str) -> ScaleMixturePrior:
    """Parse the compact CLI form ``family:key=value,key=value``."""
    head, _, rest = text.partition(":")
    config: dict[str, object] = {"family": head.strip()}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"malformed prior spec item {item!r}")
            config[key.strip()] = value.strip()
    return prior_from_config(config)
