"""Experiment orchestration: configs, deterministic runs, CSV, plot scripts.

Configs are flat key-value files with sections (INI style).  Every run
is keyed by an explicit seed -- never the clock -- and replicates draw
from counter-based substreams, so rerunning a config reproduces the
output byte for byte, with any thread count.  The emitted CSV echoes
the full config in comment lines to stay self-describing.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .adaptive import (
    adaptive_bayes_risk_bound,
    adaptive_risk_replicates,
    horseshoe_family,
)
from .priors import (
    ScaleMixturePrior,
    check_condition2,
    check_condition3,
    prior_from_config,
    prior_to_config,
)
from .risk import (
    bayes_risk_analytic,
    bayes_risk_bound,
    calibrate_signal_offset,
    flat_signal,
    minimax_risk_bound,
    miss_probability,
    null_rejection_rate,
    oracle_risk,
    separation_rate,
)
from .rng import STREAM_NOISE, STREAM_TWO_GROUP, map_replicates, substream
from .shrinkage import ShrinkageCurve
from .testing import TwoGroupModel

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultTable",
    "load_config",
    "run_experiment",
    "emit_plot_script",
    "RISK_COLUMNS",
]

_KINDS = ("mx_curve", "risk_bayes", "risk_minimax", "adaptive")

RISK_COLUMNS = [
    "n", "p", "alpha", "x_star", "type1", "type2", "bayes_risk", "oracle_risk",
    "bound", "fdr", "fnr", "rsup", "se_type1", "se_type2", "se_bayes_risk",
    "se_fdr", "se_fnr", "se_rsup", "seed",
]


class ConfigError(ValueError):
    """A config field failed validation; carries the offending field name."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    kind: str
    prior: ScaleMixturePrior | None
    model: TwoGroupModel | None
    alpha: float
    replicates: int
    seed: int
    threads: int = 1
    out: str | None = None
    slack: float = 1.05
    draws: int = 10000
    lam: float = 0.5
    signal_rule: str = "rho_n"
    signal_magnitude: float | None = None
    v_n: float = 3.0
    c1: float | str = "auto"
    x_grid: tuple[float, ...] = ()
    sweep_magnitudes: tuple[float, ...] = ()
    c_u: float = 2.0
    zeta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError("experiment.kind", f"unknown kind {self.kind!r}; expected one of {_KINDS}")
        if self.replicates < 1:
            raise ConfigError("experiment.replicates", "must be >= 1")
        if self.threads < 1:
            raise ConfigError("experiment.threads", "must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("test.alpha", "must lie in (0, 1)")
        if self.kind != "mx_curve" and self.prior is None:
            raise ConfigError("prior", "section is required for this kind")
        if self.kind in ("risk_bayes", "adaptive") and self.model is None:
            raise ConfigError("model", "section is required for this kind")
        if self.kind == "risk_minimax" and self.signal_rule not in ("rho_n", "fixed"):
            raise ConfigError("signal.rule", f"unknown rule {self.signal_rule!r}")
        if self.kind == "risk_minimax" and self.signal_rule == "fixed" and self.signal_magnitude is None:
            raise ConfigError("signal.magnitude", "required when signal.rule = fixed")
        if self.kind == "mx_curve" and (self.prior is None or not self.x_grid):
            raise ConfigError("mx.x", "mx_curve needs a prior and an x grid")
        if self.kind == "adaptive" and self.prior is not None and self.prior.family != "horseshoe":
            raise ConfigError("prior.family", "the adaptive pipeline plugs p_hat into the horseshoe family")

    def meta(self) -> dict[str, str]:
        out: dict[str, str] = {
            "id": self.experiment_id,
            "kind": self.kind,
            "alpha": repr(self.alpha),
            "replicates": str(self.replicates),
            "seed": str(self.seed),
            "threads": str(self.threads),
            "slack": repr(self.slack),
        }
        if self.prior is not None:
            for key, val in sorted(prior_to_config(self.prior).items()):
                out[f"prior.{key}"] = repr(val) if isinstance(val, float) else str(val)
        if self.model is not None:
            out["model.n"] = str(self.model.n)
            out["model.p_n"] = repr(self.model.p_n)
            out["model.c_psi"] = repr(self.model.c_psi)
        if self.kind == "risk_bayes":
            out["draws"] = str(self.draws)
        if self.kind == "risk_minimax":
            out["signal.rule"] = self.signal_rule
            out["signal.v_n"] = repr(self.v_n)
            out["signal.c1"] = str(self.c1)
            out["lambda"] = repr(self.lam)
            if self.signal_magnitude is not None:
                out["signal.magnitude"] = repr(self.signal_magnitude)
            if self.sweep_magnitudes:
                out["sweep.magnitudes"] = ",".join(repr(v) for v in self.sweep_magnitudes)
        if self.kind == "adaptive":
            out["adaptive.c_u"] = repr(self.c_u)
            out["adaptive.zeta"] = repr(self.zeta)
        return out


def _parse_float(section: Mapping[str, str], section_name: str, key: str, default=None) -> float:
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{section_name}.{key}", "missing required field")
    try:
        return float(section[key])
    except ValueError:
        raise ConfigError(f"{section_name}.{key}", f"not a number: {section[key]!r}") from None


def _parse_int(section: Mapping[str, str], section_name: str, key: str, default=None) -> int:
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{section_name}.{key}", "missing required field")
    try:
        return int(section[key])
    except ValueError:
        raise ConfigError(f"{section_name}.{key}", f"not an integer: {section[key]!r}") from None


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate an experiment config file."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError("config", f"cannot read {path!r}")
    if "experiment" not in parser:
        raise ConfigError("experiment", "missing [experiment] section")
    exp = parser["experiment"]
    if "seed" not in exp:
        raise ConfigError("experiment.seed", "missing required field (no clock seeding)")

    prior = None
    if "prior" in parser:
        try:
            prior = prior_from_config(dict(parser["prior"]))
        except ValueError as exc:
            raise ConfigError("prior", str(exc)) from None

    model = None
    if "model" in parser:
        sec = parser["model"]
        model = TwoGroupModel.from_c_psi(
            _parse_int(sec, "model", "n"),
            _parse_float(sec, "model", "p_n"),
            _parse_float(sec, "model", "c_psi"),
        )

    test = parser["test"] if "test" in parser else {}
    signal = parser["signal"] if "signal" in parser else {}
    sweep = parser["sweep"] if "sweep" in parser else {}
    mx = parser["mx"] if "mx" in parser else {}

    x_grid: tuple[float, ...] = ()
    if "x" in mx:
        try:
            x_grid = tuple(float(v) for v in str(mx["x"]).split(",") if v.strip())
        except ValueError:
            raise ConfigError("mx.x", f"not a number list: {mx['x']!r}") from None

    magnitudes: tuple[float, ...] = ()
    if "magnitudes" in sweep:
        try:
            magnitudes = tuple(float(v) for v in str(sweep["magnitudes"]).split(",") if v.strip())
        except ValueError:
            raise ConfigError("sweep.magnitudes", "not a number list") from None

    c1: float | str = str(signal.get("c1", "auto")).strip()
    if c1 != "auto":
        try:
            c1 = float(c1)
        except ValueError:
            raise ConfigError("signal.c1", f"expected 'auto' or a number, got {c1!r}") from None

    magnitude = None
    if "magnitude" in signal:
        magnitude = _parse_float(signal, "signal", "magnitude")

    return ExperimentConfig(
        experiment_id=exp.get("id", "experiment"),
        kind=exp.get("kind", ""),
        prior=prior,
        model=model,
        alpha=_parse_float(test, "test", "alpha", 0.5),
        replicates=_parse_int(exp, "experiment", "replicates", 1),
        seed=_parse_int(exp, "experiment", "seed"),
        threads=_parse_int(exp, "experiment", "threads", 1),
        out=exp.get("out") or None,
        slack=_parse_float(exp, "experiment", "slack", 1.05),
        draws=_parse_int(exp, "experiment", "draws", 10000),
        lam=_parse_float(test, "test", "lambda", 0.5),
        signal_rule=str(signal.get("rule", "rho_n")).strip(),
        signal_magnitude=magnitude,
        v_n=_parse_float(signal, "signal", "v_n", 3.0),
        c1=c1,
        x_grid=x_grid,
        sweep_magnitudes=magnitudes,
        c_u=_parse_float(exp, "experiment", "c_u", 2.0),
        zeta=_parse_float(exp, "experiment", "zeta", 0.0),
    )


@dataclass
class ResultTable:
    """Column-ordered rows plus the config echo written as CSV comments."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)

    def append(self, **values) -> None:
        unknown = set(values) - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        self.rows.append(tuple(values.get(c, "") for c in self.columns))

    @staticmethod
    def _format(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(float(value))  # shortest round-trip, no numpy wrapper
        return str(value)

    def csv_text(self) -> str:
        buf = io.StringIO()
        for key in sorted(self.meta):
            buf.write(f"# {key} = {self.meta[key]}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(self._format(v) for v in row) + "\n")
        return buf.getvalue()

    def csv_bytes(self) -> bytes:
        return self.csv_text().encode("utf-8")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())

    def column(self, name: str, row_type: str | None = None) -> list:
        idx = self.columns.index(name)
        if row_type is not None and "row_type" in self.columns:
            tidx = self.columns.index("row_type")
            return [r[idx] for r in self.rows if r[tidx] == row_type]
        return [r[idx] for r in self.rows]


def _certified_constants(prior: ScaleMixturePrior) -> tuple[float, float]:
    c = check_condition2(prior).estimated_constant
    big_c = check_condition3(prior).estimated_constant
    return c, big_c


def _run_mx_curve(config: ExperimentConfig) -> ResultTable:
    table = ResultTable(["x", "m_x", "posterior_mean"], meta=config.meta())
    xs = [float(x) for x in config.x_grid]
    for x, m in zip(xs, ShrinkageCurve(config.prior).weights(xs)):
        table.append(x=x, m_x=float(m), posterior_mean=float(m) * x)
    return table


def _run_risk_bayes(config: ExperimentConfig) -> ResultTable:
    columns = ["row_type", "replicate"] + RISK_COLUMNS
    table = ResultTable(columns, meta=config.meta())
    prior, model = config.prior, config.model
    curve = ShrinkageCurve(prior)
    x_star = curve.decision_threshold(config.alpha)
    analytic = bayes_risk_analytic(model, x_star)
    c, big_c = _certified_constants(prior)
    bound = bayes_risk_bound(prior, model, config.alpha, big_c, c)

    def one(rep: int) -> float:
        rng = substream(config.seed, rep, STREAM_TWO_GROUP)
        is_signal = rng.random(config.draws) < model.signal_fraction
        x = rng.standard_normal(config.draws)
        x[is_signal] *= model.alt_sd
        reject = np.abs(x) > x_star
        losses = (reject & ~is_signal) | (~reject & is_signal)
        return model.n * float(losses.mean())

    risks = np.array(map_replicates(one, config.replicates, config.threads))
    base = dict(n=model.n, p=model.p_n, alpha=config.alpha, x_star=x_star, seed=config.seed)
    for rep, value in enumerate(risks):
        table.append(row_type="replicate", replicate=rep, bayes_risk=float(value), **base)
    ddof = 1 if config.replicates > 1 else 0
    se = float(risks.std(ddof=ddof)) / math.sqrt(config.replicates)
    table.append(
        row_type="aggregate",
        replicate=config.replicates,
        type1=analytic.type1,
        type2=analytic.type2,
        bayes_risk=float(risks.mean()),
        oracle_risk=oracle_risk(model),
        bound=bound,
        se_type1=0.0,
        se_type2=0.0,
        se_bayes_risk=se,
        **base,
    )
    return table


def _run_risk_minimax(config: ExperimentConfig) -> ResultTable:
    columns = ["row_type", "replicate", "magnitude"] + RISK_COLUMNS
    table = ResultTable(columns, meta=config.meta())
    prior = config.prior
    curve = ShrinkageCurve(prior)
    x_star = curve.decision_threshold(config.alpha)
    c, big_c = _certified_constants(prior)
    bound = minimax_risk_bound(config.lam, config.alpha, big_c, c, config.v_n)
    n, p = prior.n, int(round(prior.p))

    if config.signal_rule == "fixed":
        rho = float(config.signal_magnitude)
    else:
        c1 = config.c1
        if c1 == "auto":
            c1 = calibrate_signal_offset(curve, config.alpha)
        rho = separation_rate(prior, c1=float(c1), v_n=config.v_n)
    magnitudes = config.sweep_magnitudes or (rho,)

    for magnitude in magnitudes:
        signal = flat_signal(n, p, magnitude)
        theta = signal.to_vector()
        null_mask = np.ones(n, dtype=bool)
        null_mask[signal.support] = False

        def one(rep: int) -> tuple[float, float]:
            rng = substream(config.seed, rep, STREAM_NOISE)
            data = theta + rng.standard_normal(n)
            reject = np.abs(data) > x_star
            total = int(reject.sum())
            fdp = float(reject[null_mask].sum()) / max(total, 1)
            fnp = float(p - reject[~null_mask].sum()) / p
            return fdp, fnp

        pairs = np.array(map_replicates(one, config.replicates, config.threads))
        base = dict(
            n=n, p=float(p), alpha=config.alpha, x_star=x_star,
            magnitude=float(magnitude), seed=config.seed,
        )
        for rep, (fdp, fnp) in enumerate(pairs):
            table.append(
                row_type="replicate", replicate=rep,
                fdr=float(fdp), fnr=float(fnp), rsup=float(fdp + fnp), **base,
            )
        ddof = 1 if config.replicates > 1 else 0
        root = math.sqrt(config.replicates)
        table.append(
            row_type="aggregate",
            replicate=config.replicates,
            type1=null_rejection_rate(x_star),
            type2=miss_probability(x_star, magnitude),
            fdr=float(pairs[:, 0].mean()),
            fnr=float(pairs[:, 1].mean()),
            rsup=float(pairs.sum(axis=1).mean()),
            bound=bound,
            se_fdr=float(pairs[:, 0].std(ddof=ddof)) / root,
            se_fnr=float(pairs[:, 1].std(ddof=ddof)) / root,
            se_rsup=float(pairs.sum(axis=1).std(ddof=ddof)) / root,
            **base,
        )
    return table


def _run_adaptive(config: ExperimentConfig) -> ResultTable:
    columns = ["row_type", "replicate", "p_hat"] + RISK_COLUMNS
    table = ResultTable(columns, meta=config.meta())
    model = config.model
    prior = config.prior
    c, big_c = _certified_constants(prior)
    bound = adaptive_bayes_risk_bound(
        prior, model, config.alpha, big_c, c, config.c_u, config.zeta
    )
    losses, p_hats = adaptive_risk_replicates(
        horseshoe_family, model, config.alpha,
        replicates=config.replicates, seed=config.seed, threads=config.threads,
    )
    base = dict(n=model.n, p=model.p_n, alpha=config.alpha, seed=config.seed)
    for rep, (loss, p_hat) in enumerate(zip(losses, p_hats)):
        table.append(
            row_type="replicate", replicate=rep, p_hat=float(p_hat),
            bayes_risk=float(loss), **base,
        )
    ddof = 1 if config.replicates > 1 else 0
    table.append(
        row_type="aggregate",
        replicate=config.replicates,
        p_hat=float(p_hats.mean()),
        bayes_risk=float(losses.mean()),
        oracle_risk=oracle_risk(model),
        bound=bound,
        se_bayes_risk=float(losses.std(ddof=ddof)) / math.sqrt(config.replicates),
        **base,
    )
    return table


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run a config and return its table; writes CSV when an out path is set.

    On an error mid-run, whatever rows exist are flushed with a trailing
    failure marker row before the exception propagates.
    """
    runner = {
        "mx_curve": _run_mx_curve,
        "risk_bayes": _run_risk_bayes,
        "risk_minimax": _run_risk_minimax,
        "adaptive": _run_adaptive,
    }[config.kind]
    table = ResultTable(["row_type"], meta=config.meta())
    try:
        table = runner(config)
    except Exception as exc:
        if config.out:
            if "row_type" in table.columns:
                table.rows.append(tuple(
                    f"failure: {exc}" if c == "row_type" else "" for c in table.columns
                ))
            table.write(config.out)
        raise
    if config.out:
        table.write(config.out)
    return table


_PLOT_REQUIRED = {
    "mx_curve": ("x", "m_x"),
    "risk_vs_signal": ("magnitude", "rsup"),
    "risk_vs_n": ("n", "bayes_risk"),
}


def emit_plot_script(table: ResultTable, kind: str, csv_path: str = "results.csv") -> str:
    """Generate a self-contained matplotlib script for one plot kind.

    The script reads the CSV by (relative) path, keeps aggregate rows when
    the table distinguishes row types, and overlays the bound column when
    present.
    """
    if kind not in _PLOT_REQUIRED:
        raise ValueError(f"unknown plot kind {kind!r}; expected one of {sorted(_PLOT_REQUIRED)}")
    required = _PLOT_REQUIRED[kind]
    missing = [c for c in required if c not in table.columns]
    if missing:
        raise ValueError(f"missing columns for {kind}: {missing}")
    x_col, y_col = required
    has_bound = "bound" in table.columns
    y_label = {"mx_curve": "shrinkage weight", "risk_vs_signal": "FDR + FNR",
               "risk_vs_n": "additive risk"}[kind]
    lines = [
        "#!/usr/bin/env python3",
        f'"""Plot {kind} from {csv_path}."""',
        "import csv",
        "",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "",
        f"CSV_PATH = {csv_path!r}",
        "",
        'with open(CSV_PATH, newline="") as fh:',
        '    reader = csv.DictReader(line for line in fh if not line.startswith("#"))',
        "    rows = list(reader)",
        'if rows and "row_type" in rows[0]:',
        '    rows = [r for r in rows if r["row_type"] == "aggregate"]',
        f'xs = [float(r[{x_col!r}]) for r in rows]',
        f'ys = [float(r[{y_col!r}]) for r in rows]',
        "",
        "fig, ax = plt.subplots(figsize=(6, 4))",
        'ax.plot(xs, ys, "o-", label=' + repr(y_label) + ")",
    ]
    if has_bound and kind != "mx_curve":
        lines += [
            'if all(r.get("bound") for r in rows):',
            '    ax.plot(xs, [float(r["bound"]) for r in rows], "--", label="bound")',
        ]
    lines += [
        f"ax.set_xlabel({x_col!r})",
        f"ax.set_ylabel({y_label!r})",
        "ax.legend()",
        "fig.tight_layout()",
        f'fig.savefig("{kind}.png", dpi=150)',
        f'print("wrote {kind}.png")',
        "",
    ]
    return "\n".join(lines)
