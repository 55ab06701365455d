"""Experiment orchestration: configs, deterministic runs, CSV, plot scripts.

Configs are flat key-value files with sections (INI style).  Every run
is keyed by an explicit seed -- never the clock -- and replicates draw
from counter-based substreams, so rerunning a config reproduces the
output byte for byte, with any thread count.  The emitted CSV echoes
the full config in comment lines to stay self-describing.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .adaptive import adaptive_risk_replicates, horseshoe_family
from .priors import ScaleMixturePrior, certified_constants, prior_from_config, prior_to_config
from .risk import (
    bayes_risk_analytic,
    bayes_risk_bound,
    fdp_fnp_replicates,
    flat_signal,
    minimax_risk_bound,
    miss_probability,
    null_rejection_rate,
    oracle_risk,
    separation_magnitude,
    standard_error,
)
from .rng import STREAM_TWO_GROUP, map_replicates, substream
from .shrinkage import ShrinkageCurve
from .testing import TwoGroupModel

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ResultTable",
    "load_config",
    "run_experiment",
    "emit_plot_script",
    "append_mx_rows",
    "MX_COLUMNS",
    "RISK_COLUMNS",
]

MX_COLUMNS = ["x", "m_x", "posterior_mean"]

RISK_COLUMNS = [
    "n", "p", "alpha", "x_star", "type1", "type2", "bayes_risk", "oracle_risk",
    "bound", "fdr", "fnr", "rsup", "se_type1", "se_type2", "se_bayes_risk",
    "se_fdr", "se_fnr", "se_rsup", "seed",
]

_COLUMNS = {
    "mx_curve": MX_COLUMNS,
    "risk_bayes": ["row_type", "replicate"] + RISK_COLUMNS,
    "risk_minimax": ["row_type", "replicate", "magnitude"] + RISK_COLUMNS,
    "adaptive": ["row_type", "replicate", "p_hat"] + RISK_COLUMNS,
}
_KINDS = tuple(_COLUMNS)


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
        if self.c1 != "auto":
            try:
                object.__setattr__(self, "c1", float(self.c1))
            except ValueError:
                raise ConfigError("signal.c1", f"expected 'auto' or a number, got {self.c1!r}") from None
        for name, ok, rule in (  # written so that nan fails too
            ("sweep.magnitudes", all(map(math.isfinite, self.sweep_magnitudes))
             and 0.0 not in self.sweep_magnitudes, "must be finite and nonzero"),
            ("signal.magnitude", self.signal_magnitude is None
             or (math.isfinite(self.signal_magnitude) and self.signal_magnitude != 0.0),
             "must be finite and nonzero"),
            ("signal.c1", self.c1 == "auto" or (math.isfinite(self.c1) and self.c1 >= 0.0),
             "must be 'auto' or a finite number >= 0"),
            ("experiment.draws", self.draws >= 1, "must be >= 1"),
            ("experiment.slack", self.slack >= 1.0, "must be >= 1"),
            ("test.lambda", 0.0 < self.lam < 1.0, "must lie in (0, 1)"),
            ("signal.v_n", self.v_n >= 0.0, "must be >= 0"),
            ("experiment.c_u", self.c_u > 0.0, "must be > 0"),
            ("experiment.zeta", self.zeta >= 0.0, "must be >= 0"),
        ):
            if not ok:
                raise ConfigError(name, rule)

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
        if self.kind == "mx_curve":
            out["mx.x"] = ",".join(repr(float(v)) for v in self.x_grid)
        if self.kind == "adaptive":
            out["c_u"] = repr(self.c_u)
            out["zeta"] = repr(self.zeta)
        return out


def _parse(section: Mapping[str, str], section_name: str, key: str, default=None, cast=float):
    """section[key] as a float (or int); a missing key takes the default if one is given."""
    if key not in section:
        if default is not None:
            return default
        raise ConfigError(f"{section_name}.{key}", "missing required field")
    try:
        return cast(section[key])
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ConfigError(f"{section_name}.{key}", f"not {kind}: {section[key]!r}") from None


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
            _parse(sec, "model", "n", cast=int),
            _parse(sec, "model", "p_n"),
            _parse(sec, "model", "c_psi"),
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

    magnitude = None
    if "magnitude" in signal:
        magnitude = _parse(signal, "signal", "magnitude")

    return ExperimentConfig(
        experiment_id=exp.get("id", "experiment"),
        kind=exp.get("kind", ""),
        prior=prior,
        model=model,
        alpha=_parse(test, "test", "alpha", 0.5),
        replicates=_parse(exp, "experiment", "replicates", 1, cast=int),
        seed=_parse(exp, "experiment", "seed", cast=int),
        threads=_parse(exp, "experiment", "threads", 1, cast=int),
        out=exp.get("out") or None,
        slack=_parse(exp, "experiment", "slack", 1.05),
        draws=_parse(exp, "experiment", "draws", 10000, cast=int),
        lam=_parse(test, "test", "lambda", 0.5),
        signal_rule=str(signal.get("rule", "rho_n")).strip(),
        signal_magnitude=magnitude,
        v_n=_parse(signal, "signal", "v_n", 3.0),
        c1=str(signal.get("c1", "auto")).strip(),
        x_grid=x_grid,
        sweep_magnitudes=magnitudes,
        c_u=_parse(exp, "experiment", "c_u", 2.0),
        zeta=_parse(exp, "experiment", "zeta", 0.0),
    )


@dataclass
class ResultTable:
    """Column-ordered rows plus the config echo written as CSV comments."""

    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    meta: dict[str, str] = field(default_factory=dict)
    # Writers for a column whose cells all have one of these exact types, keyed by
    # the column's set of types; they give _format's text without its checks.
    _PLAIN = {(float,): float.__repr__, (int,): int.__repr__, (str,): str}

    def extend(self, **columns) -> None:
        """Append one row per position of equal-length columns; absent columns are blank."""
        unknown = columns.keys() - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        blank = ("",) * (lengths.pop() if lengths else 0)
        self.rows.extend(zip(*(columns.get(c, blank) for c in self.columns)))

    def append(self, **values) -> None:
        self.extend(**{key: (value,) for key, value in values.items()})

    @staticmethod
    def _format(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(float(value))  # shortest round-trip, no numpy wrapper
        return str(value)

    def csv_text(self) -> str:
        lines = [f"# {key} = {self.meta[key]}" for key in sorted(self.meta)]
        lines.append(",".join(self.columns))
        columns = zip(*self.rows)
        cells = [map(self._PLAIN.get(tuple({*map(type, c)}), self._format), c) for c in columns]
        lines.extend(map(",".join, zip(*cells)))
        return "\n".join(lines) + "\n"

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


def append_mx_rows(table: ResultTable, prior: ScaleMixturePrior, xs) -> None:
    """Append one (x, m_x, posterior_mean) row per x to an MX_COLUMNS table."""
    xs = [float(x) for x in xs]
    ms = ShrinkageCurve(prior).weights(xs).tolist()
    table.extend(x=xs, m_x=ms, posterior_mean=[m * x for m, x in zip(ms, xs)])


def _repeat(count: int, **values) -> dict[str, list]:
    """Columns holding one value in each of count rows, for ResultTable.extend."""
    return {key: [value] * count for key, value in values.items()}


def _run_risk_bayes(config: ExperimentConfig, table: ResultTable) -> None:
    prior, model = config.prior, config.model
    curve = ShrinkageCurve(prior)
    x_star = curve.decision_threshold(config.alpha)
    analytic = bayes_risk_analytic(model, x_star)
    c, big_c = certified_constants(prior)
    bound = bayes_risk_bound(prior, model, config.alpha, big_c, c)

    def one(rep: int) -> float:
        x, is_signal = model.sample(substream(config.seed, rep, STREAM_TWO_GROUP), config.draws)
        reject = np.abs(x) > x_star
        losses = (reject & ~is_signal) | (~reject & is_signal)
        return model.n * float(losses.mean())

    risks = np.array(map_replicates(one, config.replicates, config.threads))
    base = dict(n=model.n, p=model.p_n, alpha=config.alpha, x_star=x_star, seed=config.seed)
    table.extend(
        replicate=range(len(risks)), bayes_risk=risks.tolist(),
        **_repeat(len(risks), row_type="replicate", **base),
    )
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
        se_bayes_risk=standard_error(risks),
        **base,
    )


def _run_risk_minimax(config: ExperimentConfig, table: ResultTable) -> None:
    prior = config.prior
    curve = ShrinkageCurve(prior)
    x_star = curve.decision_threshold(config.alpha)
    c, big_c = certified_constants(prior)
    bound = minimax_risk_bound(config.lam, config.alpha, big_c, c, config.v_n)
    n, p = prior.n, int(round(prior.p))

    if config.signal_rule == "fixed":
        rho = float(config.signal_magnitude)
    else:
        rho = separation_magnitude(curve, config.alpha, config.c1, config.v_n)
    magnitudes = config.sweep_magnitudes or (rho,)

    for magnitude in magnitudes:
        fdp, fnp = fdp_fnp_replicates(
            flat_signal(n, p, magnitude), x_star, config.replicates, config.seed, config.threads
        )
        rsup = fdp + fnp
        base = dict(
            n=n, p=float(p), alpha=config.alpha, x_star=x_star,
            magnitude=float(magnitude), seed=config.seed,
        )
        table.extend(
            replicate=range(len(fdp)), fdr=fdp.tolist(), fnr=fnp.tolist(), rsup=rsup.tolist(),
            **_repeat(len(fdp), row_type="replicate", **base),
        )
        table.append(
            row_type="aggregate",
            replicate=config.replicates,
            type1=null_rejection_rate(x_star),
            type2=miss_probability(x_star, magnitude),
            fdr=float(fdp.mean()),
            fnr=float(fnp.mean()),
            rsup=float(rsup.mean()),
            bound=bound,
            se_fdr=standard_error(fdp),
            se_fnr=standard_error(fnp),
            se_rsup=standard_error(rsup),
            **base,
        )


def _run_adaptive(config: ExperimentConfig, table: ResultTable) -> None:
    model = config.model
    prior = config.prior
    c, big_c = certified_constants(prior)
    bound = bayes_risk_bound(
        prior, model, config.alpha, big_c, c, c_u=config.c_u, zeta=config.zeta
    )
    losses, p_hats = adaptive_risk_replicates(
        horseshoe_family, model, config.alpha,
        replicates=config.replicates, seed=config.seed, threads=config.threads,
    )
    base = dict(n=model.n, p=model.p_n, alpha=config.alpha, seed=config.seed)
    table.extend(
        replicate=range(len(losses)), p_hat=p_hats.tolist(), bayes_risk=losses.tolist(),
        **_repeat(len(losses), row_type="replicate", **base),
    )
    table.append(
        row_type="aggregate",
        replicate=config.replicates,
        p_hat=float(p_hats.mean()),
        bayes_risk=float(losses.mean()),
        oracle_risk=oracle_risk(model),
        bound=bound,
        se_bayes_risk=standard_error(losses),
        **base,
    )


_RUNNERS = {
    "mx_curve": lambda config, table: append_mx_rows(table, config.prior, config.x_grid),
    "risk_bayes": _run_risk_bayes,
    "risk_minimax": _run_risk_minimax,
    "adaptive": _run_adaptive,
}


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run a config and return its table; writes CSV when an out path is set.

    The runner appends its rows to a table built here, so on an error
    mid-run the rows it finished are flushed, followed by a failure
    marker row (the message in the first column), before the exception
    propagates.
    """
    table = ResultTable(list(_COLUMNS[config.kind]), meta=config.meta())
    try:
        _RUNNERS[config.kind](config, table)
    except Exception as exc:
        if config.out:
            table.append(**{table.columns[0]: f"failure: {exc}"})
            table.write(config.out)
        raise
    if config.out:
        table.write(config.out)
    return table


_PLOT_REQUIRED = {
    "mx_curve": ("x", "m_x"),
    "risk_vs_signal": ("magnitude", "rsup"),
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
    y_label = {"mx_curve": "shrinkage weight", "risk_vs_signal": "FDR + FNR"}[kind]
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
