"""Experiment orchestration: configs, deterministic runs, CSV, plot scripts.

Configs are flat key-value files with sections (INI style).  Every run
is keyed by an explicit seed -- never the clock -- and replicates draw
from counter-based substreams, so rerunning a config reproduces the
output byte for byte, with any thread count.  A config holds only the
fields it reads, and the emitted CSV echoes them in comment lines,
under the keys they are read from, so the echo loads back as the same config.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Mapping

import numpy as np

from .adaptive import adaptive_risk_replicates, horseshoe_family
from .priors import ScaleMixturePrior, certified_constants, prior_from_config, prior_to_config
from .risk import (
    RiskReport,
    _report_from_counts,
    _two_group_counts,
    bayes_risk_analytic,
    bayes_risk_bound,
    calibrate_signal_offset,
    fdp_fnp_replicates,
    flat_signal,
    minimax_risk_bound,
    miss_probability,
    null_rejection_rate,
    oracle_risk,
    separation_rate,
    standard_error,
)
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
    "MAX_ABS_X",
    "MAX_BATCH_DRAWS",
    "MAX_REPLICATES",
    "RISK_COLUMNS",
]

MX_COLUMNS = ["x", "m_x", "posterior_mean"]

# The largest |x| at which every built-in family gives m_x; an m_x grid past it is rejected.
MAX_ABS_X = 1e5
# The most replicates a config may ask for: each keeps a table row of about 0.5 kB, so a
# risk_minimax run of 1e5 replicates at p = 100 peaks near 105 MB and takes about 1 s, and
# one of 1e6 near 540 MB and 10 s (2-core x86-64 host).
MAX_REPLICATES = 10**5
# The most float64 values a run holds in one array: the draws of one risk_bayes batch, the p
# signal values of risk_minimax and the n draws of one adaptive risk replicate.  1e7 values take
# 80 MB; a risk_bayes batch of 1e7 draws takes about 0.28 s (same host).
MAX_BATCH_DRAWS = 10**7

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


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _c1(text: str) -> float | str:
    return text if text == "auto" else float(text)


_MODEL_KEYS = {"n": int, "p_n": float, "c_psi": float}


def _model(section: Mapping) -> TwoGroupModel:
    """The two-group model of a [model] section (or of the --n, --p and --c-psi flags), which
    holds exactly n, p_n and c_psi; a bad value is named by its key."""
    for keys, problem in ((section.keys() - _MODEL_KEYS.keys(), "unknown field"),
                          (_MODEL_KEYS.keys() - section.keys(), "missing required field")):
        if keys:
            raise ConfigError(f"model.{min(keys)}", problem)
    values = {key: _parse(f"model.{key}", cast, section[key]) for key, cast in _MODEL_KEYS.items()}
    invalid = TwoGroupModel.invalid_field(**values)
    if invalid:
        raise ConfigError(f"model.{invalid[0]}", invalid[1])
    return TwoGroupModel.from_c_psi(**values)


# What each scalar parser reads, for the message when a text is not one.
_READS = {int: "an integer", float: "a number", _floats: "a number list", _c1: "'auto' or a number"}


def _parse(name: str, parse: Callable, text):
    """A field's text (a whole section for prior and model) read by its parser."""
    try:
        return parse(text)
    except ConfigError:
        raise
    except ValueError as exc:
        reads = _READS.get(parse)
        raise ConfigError(name, f"not {reads}: {text!r}" if reads else str(exc)) from None


def _text(value) -> str:
    """A value written so that its parser reads it back exactly."""
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return repr(float(value)) if isinstance(value, float) else str(value)


def _field(key: str, parse: Callable = str, reads=_KINDS, rule=None, dump=None, required=False,
           echo=True, unless=None, **default):
    """One config table row: key, parser, the kinds that read it, when they do not, rule, flags."""
    name = key if "." in key or dump else f"experiment.{key}"
    return field(metadata=dict(key=key, name=name, parse=parse, reads=reads, unless=unless,
                               rule=rule, dump=dump, required=required, echo=echo), **default)


def _unread(row, config) -> str | None:
    """Why a config leaves a table row's field unread, or None when it reads it."""
    unless = row.metadata["unless"]
    if config.kind not in row.metadata["reads"]:
        return f"is not read by kind {config.kind}"
    return f"is not read when {unless[1]}" if unless and unless[0](config) else None


# Single-field rules: a test of the value and what it must be, written so that nan fails.
_AT_LEAST_1 = (lambda v: v >= 1, "must be >= 1")
_IN_UNIT = (lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0.0, "must be finite and >= 0")
_FINITE_NONZERO = (lambda v: math.isfinite(v) and v != 0.0, "must be finite and nonzero")
_MINIMAX = ("risk_minimax",)
_DRAWN = ("risk_bayes", "risk_minimax", "adaptive")  # the kinds that draw random numbers
_TWO_GROUP = ("risk_bayes", "adaptive")  # the kinds that draw from the two-group model


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One experiment, declared as a table with one row per field.

    A row gives the key the field is read from and echoed under (bare in
    [experiment], section.key elsewhere; prior and model are whole sections),
    the parser of its text, the kinds that read it and the (test of the config,
    condition) under which they do not, the rule its value must meet alone, and
    whether those kinds require it.  A field given as text is read by its parser.
    A config refuses a field it does not read unless it holds its default, and
    its echo writes every field it reads but out.
    """

    # kind comes first, as every later row's check depends on it, and the sweep before c1.
    kind: str = _field("kind", rule=(lambda v: v in _KINDS, f"must be one of {', '.join(_KINDS)}"))
    experiment_id: str = _field("id", default="experiment")
    prior: ScaleMixturePrior | None = _field("prior", prior_from_config, dump=prior_to_config,
                                             required=True, default=None)
    model: TwoGroupModel | None = _field("model", _model, _TWO_GROUP, required=True, default=None,
                                         dump=lambda m: {k: getattr(m, k) for k in _MODEL_KEYS})
    alpha: float = _field("test.alpha", float, _DRAWN, _IN_UNIT, default=0.5)
    replicates: int = _field("replicates", int, _DRAWN, (
        lambda v: 1 <= v <= MAX_REPLICATES, f"must lie in [1, {MAX_REPLICATES:g}]"), default=1)
    seed: int | None = _field("seed", int, _DRAWN, (lambda v: 0 <= v < 1 << 64, "must lie in [0, 2^64)"),
                              required=True, default=None)
    threads: int = _field("threads", int, _TWO_GROUP, _AT_LEAST_1, default=1)
    out: str | None = _field("out", echo=False, default=None)
    draws: int = _field("draws", int, ("risk_bayes",), _AT_LEAST_1, default=10000)
    lam: float = _field("test.lambda", float, _MINIMAX, _IN_UNIT, default=0.5)
    sweep_magnitudes: tuple[float, ...] = _field("sweep.magnitudes", _floats, _MINIMAX, (
        lambda v: all(map(_FINITE_NONZERO[0], v)), _FINITE_NONZERO[1]), default=())
    v_n: float = _field("signal.v_n", float, _MINIMAX, _NONNEGATIVE, default=3.0)
    c1: float | str = _field("signal.c1", _c1, _MINIMAX, (
        lambda v: v == "auto" or (math.isfinite(v) and v >= 0.0),
        "must be 'auto' or a finite number >= 0"), default="auto",
        unless=(lambda config: config.sweep_magnitudes, "sweep.magnitudes is set"))
    x_grid: tuple[float, ...] = _field("mx.x", _floats, ("mx_curve",), (
        lambda v: all(abs(x) <= MAX_ABS_X for x in v), f"must hold only |x| <= {MAX_ABS_X:g}"),
        required=True, default=())
    c_u: float = _field("c_u", float, ("adaptive",), (
        lambda v: math.isfinite(v) and v > 0.0, "must be finite and > 0"), default=2.0)
    zeta: float = _field("zeta", float, ("adaptive",), _NONNEGATIVE, default=0.0)

    def __post_init__(self) -> None:
        for row in fields(self):
            name, parse, rule = row.metadata["name"], row.metadata["parse"], row.metadata["rule"]
            value = getattr(self, row.name)
            if isinstance(value, (str, dict)) and parse is not str:
                value = _parse(name, parse, value)
                object.__setattr__(self, row.name, value)
            if rule and value is not None and not rule[0](value):
                raise ConfigError(name, f"{rule[1]}, got {value!r}")
            unread = _unread(row, self)
            if unread and value != row.default:
                raise ConfigError(name, unread)
            if not unread and row.metadata["required"] and _absent(value):
                raise ConfigError(name, f"required for kind {self.kind}")
        most = self.replicates * MAX_BATCH_DRAWS
        if self.kind == "risk_bayes" and not self.replicates <= self.draws <= most:
            raise ConfigError("experiment.draws", f"must lie in [{self.replicates}, {most}] (one batch "
                              f"of 1 to {MAX_BATCH_DRAWS:g} draws per replicate), got {self.draws!r}")
        if self.kind == "risk_minimax" and not float(self.prior.p).is_integer():
            raise ConfigError("prior.p", "must be a whole number for risk_minimax (the signal has "
                              f"p coordinates), got {self.prior.p!r}")
        if self.kind == "risk_minimax" and not self.prior.p <= MAX_BATCH_DRAWS:
            raise ConfigError("prior.p", f"must be at most {MAX_BATCH_DRAWS:g} for risk_minimax (one "
                              f"array of the p signal values), got {self.prior.p!r}")
        if self.kind == "adaptive" and not self.model.n <= MAX_BATCH_DRAWS:
            raise ConfigError("model.n", f"must be at most {MAX_BATCH_DRAWS:g} for adaptive (one array "
                              f"of the n draws of a risk replicate), got {self.model.n!r}")
        if self.kind == "adaptive":  # the bound is certified on the prior the pipeline plugs into
            want = prior_to_config(horseshoe_family(self.model.n, self.model.p_n))
            got = prior_to_config(self.prior)
            key = next((k for k in {**want, **got} if want.get(k) != got.get(k)), None)
            if key is not None:
                must, given = (repr(d[key]) if key in d else "unset" for d in (want, got))
                raise ConfigError(f"prior.{key}", f"must be {must} for adaptive, as in the plug-in "
                                  f"prior horseshoe_family(model.n, model.p_n), got {given}")

    def meta(self) -> dict[str, str]:
        """The config echo: every field this kind reads, under the key it is read from."""
        out: dict[str, str] = {}
        for row in fields(self):
            key, dump, value = row.metadata["key"], row.metadata["dump"], getattr(self, row.name)
            if not _unread(row, self) and row.metadata["echo"] and not _absent(value):
                items = {f"{key}.{k}": v for k, v in dump(value).items()} if dump else {key: value}
                out.update((k, _text(v)) for k, v in items.items())
        return out


def _absent(value) -> bool:
    return value is None or isinstance(value, tuple) and not value


def load_config(path: str) -> ExperimentConfig:
    """Read an experiment config file; every key in it must be a key the config reads."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        if not parser.read(path):
            raise ConfigError("config", f"cannot read {path!r}")
    except configparser.Error as exc:
        raise ConfigError("config", str(exc)) from None
    rows = fields(ExperimentConfig)
    whole = {row.metadata["name"] for row in rows if row.metadata["dump"]}
    texts: dict[str, object] = {}
    for section in parser.sections():
        if section in whole:
            texts[section] = dict(parser[section])
        else:
            texts.update((f"{section}.{key}", text) for key, text in parser[section].items())
    values = {}
    for row in rows:
        name = row.metadata["name"]
        if name in texts:
            values[row.name] = texts.pop(name)
        elif row.default is MISSING:
            raise ConfigError(name, "missing required field")
    if texts:
        raise ConfigError(next(iter(texts)), "unknown field")
    config = ExperimentConfig(**values)
    for row in rows:  # a key the config does not read is refused even at its default value
        if row.name in values and _unread(row, config):
            raise ConfigError(row.metadata["name"], _unread(row, config))
    return config


@dataclass
class ResultTable:
    """Named columns of cells plus the config echo written as CSV comments."""

    columns: list[str]
    meta: dict[str, str] = field(default_factory=dict)
    # One list of cells per column, in the order of `columns`.
    _cells: list[list] = field(init=False, repr=False)
    # Writers for a column whose cells all have one of these exact types, keyed by
    # the column's set of types; they give _format's text without its checks.
    _PLAIN = {(float,): float.__repr__, (int,): int.__repr__, (str,): str}

    def __post_init__(self) -> None:
        self._cells = [[] for _ in self.columns]

    @property
    def rows(self) -> list[tuple]:
        """The cells row by row (a copy; extend the table through `extend`)."""
        return list(zip(*self._cells))

    def extend(self, **columns) -> None:
        """Append one row per position of equal-length columns; absent columns are blank."""
        unknown = columns.keys() - set(self.columns)
        if unknown:
            raise ValueError(f"unknown columns: {sorted(unknown)}")
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        blank = [""] * (lengths.pop() if lengths else 0)
        for name, cells in zip(self.columns, self._cells):
            cells.extend(columns.get(name, blank))

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
        texts = [map(self._PLAIN.get(tuple({*map(type, c)}), self._format), c) for c in self._cells]
        lines.extend(map(",".join, zip(*texts)))
        return "\n".join(lines) + "\n"

    def csv_bytes(self) -> bytes:
        return self.csv_text().encode("utf-8")

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())

    def column(self, name: str, row_type: str | None = None) -> list:
        cells = self._cells[self.columns.index(name)]
        if row_type is not None and "row_type" in self.columns:
            types = self._cells[self.columns.index("row_type")]
            return [cell for cell, t in zip(cells, types) if t == row_type]
        return list(cells)


def append_mx_rows(table: ResultTable, prior: ScaleMixturePrior, xs) -> None:
    """Append one (x, m_x, posterior_mean) row per x to an MX_COLUMNS table."""
    xs = [float(x) for x in xs]
    ms = ShrinkageCurve(prior).weights(xs).tolist()
    table.extend(x=xs, m_x=ms, posterior_mean=[m * x for m, x in zip(ms, xs)])


def _write_replicates(table: ResultTable, base: dict, aggregate: dict, **per_replicate) -> None:
    """One row per replicate, then the aggregate row.

    Every row holds the base values.  The aggregate row holds each
    per-replicate column's mean, its standard error under the table's
    matching se_ column where there is one, and the aggregate values,
    which take the place of a mean or a standard error of the same column.
    """
    count = len(next(iter(per_replicate.values())))
    table.extend(
        row_type=["replicate"] * count, replicate=range(count),
        **{key: [value] * count for key, value in base.items()},
        **{key: values.tolist() for key, values in per_replicate.items()},
    )
    summary = {key: float(values.mean()) for key, values in per_replicate.items()}
    summary.update((f"se_{key}", standard_error(values)) for key, values in per_replicate.items()
                   if f"se_{key}" in table.columns)
    table.append(row_type="aggregate", replicate=count, **base, **{**summary, **aggregate})


def _risk_cells(report: RiskReport) -> dict:
    """The two-group rates, the additive risk and their standard errors of a report."""
    names = ("type1", "type2", "bayes_risk")
    return {**{name: getattr(report, name) for name in names},
            **{f"se_{name}": report.se(name) for name in names}}


def _run_risk_bayes(config: ExperimentConfig, table: ResultTable) -> None:
    """The analytic row, then one row per batch of the two-group kernel (replicate b is
    batch b of the config's draws), then the aggregate of the pooled counts, whose
    standard errors are binomial."""
    prior, model = config.prior, config.model
    x_star = ShrinkageCurve(prior).decision_threshold(config.alpha)
    c, big_c = certified_constants(prior)
    base = dict(n=model.n, p=model.p_n, alpha=config.alpha, x_star=x_star, seed=config.seed)
    bounds = dict(oracle_risk=oracle_risk(model),
                  bound=bayes_risk_bound(prior, model, config.alpha, big_c, c))
    table.append(row_type="analytic", **base, **bounds,
                 **_risk_cells(bayes_risk_analytic(model, x_star)))
    counts = _two_group_counts(model, (x_star,), config.draws, config.seed, config.threads,
                               config.replicates)
    draws, n_signal, fp, fn = counts.sum(axis=0).tolist()
    pooled = _report_from_counts(model, fp, fn, n_signal, draws)
    _write_replicates(table, base, {**bounds, **_risk_cells(pooled)}, bayes_risk=np.array(
        [model.n * (fp + fn) / m for m, _, fp, fn in counts.tolist()]))


def _run_risk_minimax(config: ExperimentConfig, table: ResultTable) -> None:
    prior = config.prior
    curve = ShrinkageCurve(prior)
    x_star = curve.decision_threshold(config.alpha)
    c, big_c = certified_constants(prior)
    bound = minimax_risk_bound(config.lam, config.alpha, big_c, c, config.v_n)
    n, p = prior.n, int(prior.p)
    magnitudes = config.sweep_magnitudes
    if not magnitudes:  # the one separation-rate magnitude, at the run's own x*
        c1 = calibrate_signal_offset(curve, x_star) if config.c1 == "auto" else config.c1
        magnitudes = (separation_rate(prior, c1=c1, v_n=config.v_n),)
    for magnitude in magnitudes:
        fdp, fnp = fdp_fnp_replicates(flat_signal(n, p, magnitude), x_star, config.replicates,
                                      config.seed)
        _write_replicates(
            table,
            dict(n=n, p=float(p), alpha=config.alpha, x_star=x_star,
                 magnitude=float(magnitude), seed=config.seed),
            dict(type1=null_rejection_rate(x_star), type2=miss_probability(x_star, magnitude),
                 bound=bound),
            fdr=fdp, fnr=fnp, rsup=fdp + fnp,
        )


def _run_adaptive(config: ExperimentConfig, table: ResultTable) -> None:
    model = config.model
    prior = config.prior
    c, big_c = certified_constants(prior)
    bound = bayes_risk_bound(
        prior, model, config.alpha, big_c, c, c_u=config.c_u, zeta=config.zeta
    )
    losses, p_hats = adaptive_risk_replicates(
        model, config.alpha, replicates=config.replicates, seed=config.seed,
        threads=config.threads,
    )
    _write_replicates(
        table,
        dict(n=model.n, p=model.p_n, alpha=config.alpha, seed=config.seed),
        dict(oracle_risk=oracle_risk(model), bound=bound),
        p_hat=p_hats, bayes_risk=losses,
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
