import gc
import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from shrinktest import (
    ConfigError,
    ExperimentConfig,
    TwoGroupModel,
    emit_plot_script,
    exponential_prior,
    horseshoe_prior,
    load_config,
    run_experiment,
)
from shrinktest.cli import EXIT_OK, main
from shrinktest.harness import MAX_ABS_X, MAX_BATCH_DRAWS, MAX_REPLICATES, ResultTable, _text
from shrinktest.priors import parse_prior_spec
from shrinktest import rng
from shrinktest.risk import _report_from_counts, two_group_risk_mc
from shrinktest.rng import STREAM_TWO_GROUP, map_replicates, split_draws, substream, substreams
from shrinktest.shrinkage import ShrinkageCurve
import oracles
from test_golden import echo_ini


# A recording stand-in for matplotlib, written into a temporary directory and
# put first on the PYTHONPATH of a plot-script subprocess. It implements only
# the calls that emit_plot_script's scripts make (any other attribute raises
# AttributeError), logs each call to calls.json next to the package, and draws
# nothing.
_MATPLOTLIB_DOUBLE = """\
import json
import pathlib

_CALLS = []
_LOG = pathlib.Path(__file__).resolve().parent.parent / "calls.json"


def _record(name, *args, **kwargs):
    _CALLS.append({"call": name, "args": list(args), "kwargs": kwargs})
    _LOG.write_text(json.dumps(_CALLS))


def use(backend):
    _record("use", backend)
"""

_PYPLOT_DOUBLE = """\
from matplotlib import _record


class _Axes:
    def plot(self, *args, **kwargs):
        _record("ax.plot", *args, **kwargs)

    def set_xlabel(self, label):
        _record("ax.set_xlabel", label)

    def set_ylabel(self, label):
        _record("ax.set_ylabel", label)

    def legend(self):
        _record("ax.legend")


class _Figure:
    def tight_layout(self):
        _record("fig.tight_layout")

    def savefig(self, fname, **kwargs):
        _record("fig.savefig", fname, **kwargs)


def subplots(**kwargs):
    _record("subplots", **kwargs)
    return _Figure(), _Axes()
"""

BASE_CONFIG = """\
[experiment]
id = demo
kind = risk_bayes
replicates = 3
seed = 11
threads = 1
draws = 500

[prior]
family = horseshoe
tau = 0.02
n = 2000
p = 40

[model]
n = 2000
p_n = 40
c_psi = 1.0

[test]
alpha = 0.5
"""


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def _unit():
    return hst.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def _finite(min_value=-1e12, **kwargs):
    return hst.floats(min_value, 1e12, **kwargs)


# The fields each kind reads besides experiment_id, kind, prior and out, which every kind reads.
_READ_BY = {
    "mx_curve": {"x_grid"},
    "risk_bayes": {"model", "alpha", "replicates", "seed", "threads", "draws"},
    "risk_minimax": {"alpha", "replicates", "seed", "lam", "v_n", "c1", "sweep_magnitudes"},
    "adaptive": {"model", "alpha", "replicates", "seed", "threads", "c_u", "zeta"},
}
_ROWS = {row.name: row for row in fields(ExperimentConfig)}


def _field_values(n, p, replicates, number):
    """A strategy of valid values for each field of _READ_BY; numbers may be numpy floats."""
    nonzero = _finite().filter(bool)
    return dict(
        model=_finite(1e-6).map(lambda c_psi: TwoGroupModel.from_c_psi(n, p, c_psi)),
        alpha=_unit().map(number), lam=_unit().map(number),
        replicates=hst.just(replicates), seed=hst.integers(0, 2**64 - 1),
        threads=hst.integers(1, 64), draws=hst.integers(replicates, replicates * MAX_BATCH_DRAWS),
        v_n=_finite(0.0).map(number), c1=hst.just("auto") | _finite(0.0).map(number),
        x_grid=hst.lists(hst.floats(-MAX_ABS_X, MAX_ABS_X), min_size=1, max_size=5).map(
            lambda xs: tuple(map(number, xs))),
        sweep_magnitudes=hst.lists(nonzero, max_size=5).map(lambda xs: tuple(map(number, xs))),
        c_u=_finite(0.0, exclude_min=True).map(number), zeta=_finite(0.0).map(number),
    )


@hst.composite
def _configs(draw):
    """A valid config of any kind, with every field its kind reads drawn."""
    kind = draw(hst.sampled_from(sorted(_READ_BY)))
    n = draw(hst.integers(2, 10**7))
    p = draw(hst.floats(0.0, n, exclude_min=True, exclude_max=True))
    if kind == "risk_minimax":  # its signal has p coordinates
        p = float(draw(hst.integers(1, n - 1)))
    prior = horseshoe_prior(draw(_unit()), n, p)
    if kind != "adaptive" and draw(hst.booleans()):
        prior = exponential_prior(draw(_finite(1e-3)), n, p)
    values = _field_values(n, p, draw(hst.integers(1, MAX_REPLICATES)),
                           draw(hst.sampled_from([float, np.float64])))
    read = {name: draw(values[name]) for name in sorted(_READ_BY[kind])}
    if read.get("sweep_magnitudes"):
        del read["c1"]  # only the separation rate, which a sweep replaces, reads c1
    return ExperimentConfig(experiment_id=draw(hst.text("abc-_%;#=:.()[]019", min_size=1)),
                            kind=kind, prior=prior, **read)


class TestLoadConfig:
    def test_parses_base(self, tmp_path):
        config = load_config(write_config(tmp_path, BASE_CONFIG))
        assert config.kind == "risk_bayes"
        assert config.replicates == 3
        assert config.prior.family == "horseshoe"
        assert config.model.p_n == 40.0

    def test_missing_seed_is_field_error(self, tmp_path):
        text = BASE_CONFIG.replace("seed = 11\n", "")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field_name == "experiment.seed"

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_outside_64_bits_is_field_error(self, tmp_path, seed):
        # Was accepted: -1 drew the streams of 2^64 - 1, and 2^64 those of 0.
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, BASE_CONFIG.replace("seed = 11", f"seed = {seed}")))
        assert err.value.field_name == "experiment.seed"
        top = BASE_CONFIG.replace("seed = 11", "seed = 18446744073709551615")
        assert load_config(write_config(tmp_path, top)).seed == 2**64 - 1

    def test_unknown_kind(self, tmp_path):
        text = BASE_CONFIG.replace("kind = risk_bayes", "kind = banana")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field_name == "experiment.kind"

    def test_bad_number_names_field(self, tmp_path):
        text = BASE_CONFIG.replace("replicates = 3", "replicates = three")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field_name == "experiment.replicates"

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.ini")

    def test_experiment_keys_echoed_as_read(self, tmp_path):
        # c_u and zeta are read from [experiment], like draws.
        text = BASE_CONFIG.replace("kind = risk_bayes", "kind = adaptive")
        text = text.replace("draws = 500\n", "c_u = 3.5\nzeta = 0.25\n")
        config = load_config(write_config(tmp_path, text))
        echo = [l for l in run_experiment(config).csv_text().splitlines() if l.startswith("#")]
        assert "# c_u = 3.5" in echo
        assert "# zeta = 0.25" in echo
        assert not [l for l in echo if l.startswith("# adaptive.")]
        # The mx_curve grid is echoed as mx.x, by repr, and reads back exactly,
        # also when it holds numpy floats.
        text = ("[experiment]\nkind = mx_curve\n\n[prior]\nfamily = horseshoe\n"
                "tau = 0.05\nn = 1000\np = 50\n\n[mx]\nx = 0,0.1,1e-3,25\n")
        config = load_config(write_config(tmp_path, text))
        numpy_grid = replace(config, x_grid=tuple(map(np.float64, config.x_grid)))
        for run in (config, numpy_grid):
            echo = [l for l in run_experiment(run).csv_text().splitlines() if l.startswith("#")]
            (grid,) = [l.split(" = ", 1)[1] for l in echo if l.startswith("# mx.x = ")]
            assert tuple(float(v) for v in grid.split(",")) == config.x_grid

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_configs())
    def test_echo_loads_back(self, tmp_path_factory, config):
        # config -> CSV echo -> INI -> load_config -> echo is the identity.
        table = ResultTable(["x"], meta=config.meta())
        path = tmp_path_factory.mktemp("echo") / "exp.ini"
        path.write_text(echo_ini(table.csv_text()), encoding="utf-8")
        assert load_config(str(path)).meta() == config.meta()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_configs(), hst.data())
    def test_field_the_kind_does_not_read_is_refused(self, tmp_path_factory, config, data):
        # Was accepted and ignored, and echoed when every kind echoed it.
        name = data.draw(hst.sampled_from(sorted(_ROWS.keys() - _READ_BY[config.kind]
                                                 - {"experiment_id", "kind", "prior", "out"})))
        row = _ROWS[name]
        value = data.draw(_field_values(config.prior.n, config.prior.p, 1, float)[name]
                          .filter(lambda v: v != row.default))
        # In code, at any value but the default ...
        with pytest.raises(ConfigError, match="not read by kind") as err:
            replace(config, **{name: value})
        assert err.value.field_name == row.metadata["name"]
        # ... and in a file, at any value, the default included.
        if row.default is not None:
            value = data.draw(hst.sampled_from([row.default, value]))
        extra = ({f"model.{k}": repr(getattr(value, k)) for k in ("n", "p_n", "c_psi")}
                 if name == "model" else {row.metadata["key"]: _text(value)})
        table = ResultTable(["x"], meta={**config.meta(), **extra})
        path = tmp_path_factory.mktemp("unread") / "exp.ini"
        path.write_text(echo_ini(table.csv_text()), encoding="utf-8")
        with pytest.raises(ConfigError, match="not read by kind") as err:
            load_config(str(path))
        assert err.value.field_name == row.metadata["name"]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_configs().filter(lambda config: config.kind == "risk_minimax"), hst.data())
    def test_c1_beside_a_sweep_is_refused(self, tmp_path_factory, config, data):
        # Was accepted and echoed, though a sweep leaves the separation rate uncalibrated.
        values = _field_values(config.prior.n, config.prior.p, 1, float)
        sweep = config.sweep_magnitudes or data.draw(values["sweep_magnitudes"].filter(bool))
        c1 = data.draw(values["c1"].filter(lambda v: v != "auto"))
        # In code, at any value but the default ...
        with pytest.raises(ConfigError, match="is not read when sweep.magnitudes is set") as err:
            replace(config, sweep_magnitudes=sweep, c1=c1)
        assert err.value.field_name == "signal.c1"
        # ... and in a file, at any value, the default included.
        c1 = data.draw(hst.sampled_from(["auto", c1]))
        meta = {**replace(config, sweep_magnitudes=sweep, c1="auto").meta(), "signal.c1": _text(c1)}
        path = tmp_path_factory.mktemp("c1") / "exp.ini"
        path.write_text(echo_ini(ResultTable(["x"], meta=meta).csv_text()), encoding="utf-8")
        with pytest.raises(ConfigError, match="is not read when sweep.magnitudes is set") as err:
            load_config(str(path))
        assert err.value.field_name == "signal.c1"

    def test_mx_grid_past_float_range_is_field_error(self, tmp_path):
        text = ("[experiment]\nkind = mx_curve\n\n[prior]\nfamily = horseshoe\n"
                "tau = 0.05\nn = 1000\np = 50\n\n[mx]\nx = 0,1e20\n")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field_name == "mx.x"
        accepted = text.replace("1e20", f"{-MAX_ABS_X!r},{MAX_ABS_X!r}")
        assert load_config(write_config(tmp_path, accepted)).x_grid == (0.0, -MAX_ABS_X, MAX_ABS_X)

    def test_risk_bayes_draws_below_replicates_is_field_error(self, tmp_path):
        # Each replicate is one batch of the draws, so no batch may be empty.
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, BASE_CONFIG.replace("draws = 500", "draws = 2")))
        assert err.value.field_name == "experiment.draws"
        load_config(write_config(tmp_path, BASE_CONFIG.replace("draws = 500", "draws = 3")))

    def test_bad_prior_section(self, tmp_path):
        text = BASE_CONFIG.replace("family = horseshoe", "family = unknown")
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field_name == "prior"

    @pytest.mark.parametrize("key, value", [
        ("n", "1"), ("p_n", "0"), ("p_n", "2000"), ("p_n", "nan"),
        ("c_psi", "-1"), ("c_psi", "nan"), ("c_psi", "inf"),
    ])
    def test_bad_model_value_names_its_key(self, tmp_path, key, value):
        # Was named only by its section, "model".
        model = {"n": "2000", "p_n": "40", "c_psi": "1.0", key: value}
        text = BASE_CONFIG.replace("[model]\nn = 2000\np_n = 40\nc_psi = 1.0\n", "[model]\n" + "".join(
            f"{k} = {v}\n" for k, v in model.items()))
        assert f"\n{key} = {value}\n" in text
        with pytest.raises(ConfigError) as err:
            load_config(write_config(tmp_path, text))
        assert err.value.field_name == f"model.{key}"

    def test_count_past_its_bound_is_field_error(self, tmp_path):
        # Were accepted, then ended in a MemoryError traceback once the arrays were sized.
        top = f"replicates = {MAX_REPLICATES}\n"
        load_config(write_config(tmp_path, BASE_CONFIG.replace("replicates = 3\n", top)
                                 .replace("draws = 500", f"draws = {MAX_REPLICATES}")))
        for old, new, name in [
            ("replicates = 3\n", f"replicates = {MAX_REPLICATES + 1}\n", "experiment.replicates"),
            ("draws = 500", f"draws = {3 * MAX_BATCH_DRAWS + 1}", "experiment.draws"),
        ]:
            with pytest.raises(ConfigError) as err:
                load_config(write_config(tmp_path, BASE_CONFIG.replace(old, new)))
            assert err.value.field_name == name
        config = load_config(write_config(
            tmp_path, BASE_CONFIG.replace("draws = 500", f"draws = {3 * MAX_BATCH_DRAWS}")))
        assert config.draws == 3 * MAX_BATCH_DRAWS


    @pytest.mark.parametrize("kind, name, config", [
        ("risk_minimax", "prior.p", lambda size: dict(prior=horseshoe_prior(0.01, 10 * size, size))),
        ("adaptive", "model.n", lambda size: dict(prior=horseshoe_prior(0.01, size, 100),
                                                   model=TwoGroupModel.from_c_psi(size, 100, 1.0))),
    ], ids=["risk_minimax", "adaptive"])
    def test_array_size_past_its_bound_is_field_error(self, kind, name, config):
        # Were accepted, then ended in a MemoryError traceback once the one array was sized.
        ExperimentConfig(kind=kind, seed=1, **config(MAX_BATCH_DRAWS))
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, seed=1, **config(MAX_BATCH_DRAWS + 1))
        assert err.value.field_name == name


class TestRunExperiment:
    def test_rows_and_aggregate(self, tmp_path):
        config = load_config(write_config(tmp_path, BASE_CONFIG))
        table = run_experiment(config)
        assert table.column("row_type") == ["analytic"] + ["replicate"] * 3 + ["aggregate"]
        agg_risk = table.column("bayes_risk", row_type="aggregate")[0]
        reps = table.column("bayes_risk", row_type="replicate")
        # The aggregate pools the batches' counts: the mean of the replicate
        # risks weighted by their shares of the draws.
        sizes = split_draws(config.draws, config.replicates)
        assert agg_risk == pytest.approx(sum(r * m for r, m in zip(reps, sizes)) / config.draws)

    @pytest.mark.parametrize("threads", [1, 4])
    def test_risk_bayes_rows_match_full_mask_counts(self, tmp_path, threads):
        # Replicate b is batch b of the two-group kernel; the aggregate pools them.
        text = BASE_CONFIG.replace("replicates = 3", "replicates = 5").replace(
            "draws = 500", "draws = 4001").replace("threads = 1", f"threads = {threads}")
        config = load_config(write_config(tmp_path, text))
        table = run_experiment(config)
        model, seed = config.model, config.seed
        x_star = table.column("x_star")[0]
        want_reps = []
        for batch, m in enumerate(split_draws(config.draws, config.replicates)):
            x, is_signal = oracles.two_group_sample_counts(
                model, substream(seed, batch, STREAM_TWO_GROUP), m)
            want_reps.append(model.n * int(((np.abs(x) > x_star) != is_signal).sum()) / m)
        assert table.column("bayes_risk", row_type="replicate") == want_reps
        fp_fn, _, n_signal, draws = oracles.two_group_counts_full_mask(
            model, (x_star,), config.draws, seed, batches=config.replicates,
            sample=oracles.two_group_sample_counts)
        want = _report_from_counts(model, *fp_fn[0].tolist(), n_signal, draws)
        for name in ("type1", "type2", "bayes_risk"):
            assert table.column(name, row_type="aggregate") == [getattr(want, name)]
            assert table.column(f"se_{name}", row_type="aggregate") == [want.se(name)]

    def test_risk_bayes_at_64_replicates_is_two_group_risk_mc(self, tmp_path):
        text = BASE_CONFIG.replace("replicates = 3", "replicates = 64").replace(
            "draws = 500", "draws = 20000")
        config = load_config(write_config(tmp_path, text))
        table = run_experiment(config)
        x_star = table.column("x_star")[0]
        want = two_group_risk_mc(config.model, x_star, draws=20000, seed=config.seed)
        for name in ("type1", "type2", "bayes_risk"):
            assert table.column(name, row_type="aggregate") == [getattr(want, name)]
            assert table.column(f"se_{name}", row_type="aggregate") == [want.se(name)]

    def test_byte_identical_reruns(self, tmp_path):
        config = load_config(write_config(tmp_path, BASE_CONFIG))
        assert run_experiment(config).csv_bytes() == run_experiment(config).csv_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        serial = load_config(write_config(tmp_path, BASE_CONFIG))
        parallel = load_config(
            write_config(tmp_path, BASE_CONFIG.replace("threads = 1", "threads = 8"))
        )
        a = run_experiment(serial).csv_text()
        b = run_experiment(parallel).csv_text()
        # The config echo differs only in the thread count line.
        strip = lambda text: [l for l in text.splitlines() if not l.startswith("# threads")]
        assert strip(a) == strip(b)

    def test_single_replicate(self, tmp_path):
        text = BASE_CONFIG.replace("replicates = 3", "replicates = 1")
        table = run_experiment(load_config(write_config(tmp_path, text)))
        assert table.column("row_type").count("replicate") == 1

    def test_failure_marker_flushed(self, tmp_path):
        # p_n >= n/e breaks the condition checker mid-run.
        text = BASE_CONFIG.replace("tau = 0.02", "tau = 0.4")
        text = text.replace("p = 40", "p = 800").replace("p_n = 40", "p_n = 800")
        out = tmp_path / "partial.csv"
        config = load_config(write_config(tmp_path, text))
        from dataclasses import replace

        config = replace(config, out=str(out))
        with pytest.raises(Exception):
            run_experiment(config)
        content = out.read_text()
        assert "failure:" in content

    def test_failure_keeps_finished_rows(self, tmp_path, monkeypatch):
        # The second magnitude of the sweep fails; the first one's rows stay.
        from shrinktest import harness

        text = BASE_CONFIG.replace("kind = risk_bayes", "kind = risk_minimax")
        text = text.replace("threads = 1\n", "").replace("draws = 500\n", "")
        text = text.replace("[model]\nn = 2000\np_n = 40\nc_psi = 1.0\n\n", "")
        text += "\n[sweep]\nmagnitudes = 5.0,6.0\n"
        out = tmp_path / "partial.csv"
        config = load_config(write_config(tmp_path, text))
        from dataclasses import replace

        config = replace(config, out=str(out))
        original, calls = harness.flat_signal, []

        def failing_second(n, p, magnitude):
            calls.append(magnitude)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return original(n, p, magnitude)

        monkeypatch.setattr(harness, "flat_signal", failing_second)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(config)
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[:3] == ["row_type", "replicate", "magnitude"]
        rows = [dict(zip(header, l.split(","))) for l in lines[1:-1]]
        assert [r["row_type"] for r in rows] == ["replicate"] * 3 + ["aggregate"]
        assert {r["magnitude"] for r in rows} == {"5.0"}
        assert lines[-1].startswith("failure: injected failure")

    def test_sweep_leaves_the_separation_rate_uncalibrated(self, monkeypatch):
        # Was calibrated on a 256-point weight grid, then replaced by the sweep.
        from shrinktest import harness

        def calibrated(*args):
            raise AssertionError("separation rate calibrated under a sweep")

        monkeypatch.setattr(harness, "separation_magnitude", calibrated)
        config = ExperimentConfig(kind="risk_minimax", prior=horseshoe_prior(0.02, 2000, 40),
                                  replicates=4, seed=3, sweep_magnitudes=(2.0, 6.0))
        assert run_experiment(config).column("magnitude", row_type="aggregate") == [2.0, 6.0]

    def test_mx_curve_kind(self, tmp_path):
        text = """\
[experiment]
id = curve
kind = mx_curve

[prior]
family = horseshoe
tau = 0.05
n = 1000
p = 50

[mx]
x = 0,1,2
"""
        table = run_experiment(load_config(write_config(tmp_path, text)))
        assert table.columns == ["x", "m_x", "posterior_mean"]
        assert len(table.rows) == 3

    def test_risk_bayes_reproduces_bound_check(self, tmp_path):
        # End-to-end bound experiment: the aggregate row carries the
        # analytic rates, the MC risk, and the certified-constant bound.
        text = BASE_CONFIG.replace("draws = 500", "draws = 4000")
        table = run_experiment(load_config(write_config(tmp_path, text)))
        idx = {c: i for i, c in enumerate(table.columns)}
        agg = next(r for r in table.rows if r[idx["row_type"]] == "aggregate")
        # At x* = 3.80 only about 0.57 false positives are expected in the
        # 3,920 null draws, so fp = 0 is likely: type1 is checked against its
        # binomial law, within 4 SE of the analytic rate.
        rate = table.column("type1", row_type="analytic")[0]
        n_null = 4000 * (1.0 - 40 / 2000)
        assert 0.0 <= agg[idx["type1"]] <= 1.0
        assert abs(agg[idx["type1"]] - rate) <= 4.0 * np.sqrt(rate * (1.0 - rate) / n_null)
        assert 0.0 < agg[idx["type2"]] < 1.0
        assert agg[idx["bayes_risk"]] <= agg[idx["bound"]] * 1.05
        assert agg[idx["oracle_risk"]] <= agg[idx["bound"]]

    def test_adaptive_kind_rows(self, tmp_path):
        text = BASE_CONFIG.replace("kind = risk_bayes", "kind = adaptive")
        text = text.replace("draws = 500\n", "")
        table = run_experiment(load_config(write_config(tmp_path, text)))
        kinds = table.column("row_type")
        assert kinds.count("replicate") == 3
        assert kinds.count("aggregate") == 1
        p_hats = table.column("p_hat", row_type="replicate")
        assert all(p >= 1.0 for p in p_hats)
        agg = table.column("bayes_risk", row_type="aggregate")[0]
        reps = table.column("bayes_risk", row_type="replicate")
        assert agg == pytest.approx(sum(reps) / len(reps))

    def test_minimax_kind_with_sweep(self, tmp_path):
        text = """\
[experiment]
id = sweep
kind = risk_minimax
replicates = 4
seed = 3

[prior]
family = horseshoe
tau = 0.02
n = 2000
p = 40

[test]
alpha = 0.5
lambda = 0.5

[signal]
v_n = 3.0

[sweep]
magnitudes = 2.0,6.0
"""
        table = run_experiment(load_config(write_config(tmp_path, text)))
        aggregates = table.column("rsup", row_type="aggregate")
        assert len(aggregates) == 2
        # Detection degrades at the smaller magnitude.
        assert aggregates[0] > aggregates[1]


def _row_format(value) -> str:
    """The cell writer of the row-by-row CSV writer, kept here as the oracle."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _row_csv_text(table: ResultTable, rows: list[tuple]) -> str:
    """The row-by-row CSV writer: one _row_format call per cell of `rows`,
    under the header and config echo of `table`."""
    lines = [f"# {key} = {table.meta[key]}" for key in sorted(table.meta)]
    lines.append(",".join(table.columns))
    lines += [",".join(_row_format(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines)


_SPECIAL_FLOATS = hst.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0])
_CELLS = {
    "float": hst.floats() | _SPECIAL_FLOATS,
    "int": hst.integers(),
    "bool": hst.booleans(),
    "str": hst.text(),
    "none": hst.none(),
    "blank": hst.just(""),
    "np.float64": (hst.floats() | _SPECIAL_FLOATS).map(np.float64),
    "np.int64": hst.integers(-(2**63), 2**63 - 1).map(np.int64),
}


@hst.composite
def _tables(draw):
    """A ResultTable whose columns each hold one cell type, or a mix of all of them."""
    n_rows = draw(hst.integers(0, 6))
    kinds = draw(hst.lists(hst.sampled_from([*_CELLS, "mixed"]), min_size=1, max_size=5))
    columns = {}
    for i, kind in enumerate(kinds):
        cell = hst.one_of(*_CELLS.values()) if kind == "mixed" else _CELLS[kind]
        columns[f"c{i}"] = draw(hst.lists(cell, min_size=n_rows, max_size=n_rows))
    meta = draw(hst.dictionaries(hst.text(min_size=1), hst.text(), max_size=3))
    table = ResultTable(list(columns), meta=meta)
    # Fill a random subset of columns through extend; the rest are blank.
    given_columns = {k: v for k, v in columns.items() if draw(hst.booleans())}
    table.extend(**given_columns)
    return table, given_columns, n_rows


class TestResultTable:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tables())
    def test_csv_matches_row_writer(self, drawn):
        table, given_columns, n_rows = drawn
        assert len(table.rows) == (n_rows if given_columns else 0)
        for name, cells in given_columns.items():
            assert table.column(name) == cells
        assert table.csv_text() == _row_csv_text(table, table.rows)

    def test_append_is_one_row_of_extend(self):
        appended, extended = ResultTable(["a", "b", "c"]), ResultTable(["a", "b", "c"])
        appended.append(a=1, c=2.5)
        appended.append(b="x")
        extended.extend(a=[1, ""], b=["", "x"], c=[2.5, ""])
        assert appended.rows == extended.rows == [(1, "", 2.5), ("", "x", "")]

    def test_extend_rejects_unknown_columns(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValueError, match=r"unknown columns: \['z'\]"):
            table.extend(a=[1], z=[2])
        assert table.rows == []

    def test_extend_rejects_unequal_lengths(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValueError, match="differ in length"):
            table.extend(a=[1, 2], b=[3])
        assert table.rows == []

    def test_extend_with_zero_rows_writes_header(self):
        table = ResultTable(["a", "b"], meta={"k": "v"})
        table.extend(a=[], b=())
        assert table.rows == []
        assert table.csv_text() == "# k = v\na,b\n"

    @staticmethod
    def _check_test_command(tmp_path, text: str, data) -> list[tuple]:
        """Run `test` on a file holding `text`; its CSV must be the row writer's
        CSV of `data`. Returns the oracle rows."""
        source = tmp_path / "data.txt"
        source.write_bytes(text.encode("utf-8"))
        out = tmp_path / "test.csv"
        prior = "horseshoe:tau=0.1,n=10000,p=1000"
        code = main(["test", "--prior", prior, "--alpha", "0.5",
                     "--input", str(source), "--out", str(out)])
        assert code == EXIT_OK
        x_star = ShrinkageCurve(parse_prior_spec(prior)).decision_threshold(0.5)
        rows = [(i, float(x), int(abs(x) > x_star)) for i, x in enumerate(data)]
        oracle = _row_csv_text(ResultTable(["index", "x", "decision"]), rows)
        assert out.read_bytes() == oracle.encode("utf-8")
        return rows

    def test_large_test_command_matches_row_writer(self, tmp_path):
        # The golden test.csv has 500 lines; this run has 1e4, with values
        # whose repr takes every form (exponents, -0.0, integers as floats).
        data = substream(23).standard_normal(10_000) * 3.0
        data[:4] = [-0.0, 1e-300, 123456789.0, -7.0]
        data[4:200] *= 1e6
        rows = self._check_test_command(tmp_path, "".join(f"{float(v)!r}\n" for v in data), data)
        assert 0 < sum(r[2] for r in rows) < len(data)

    @pytest.mark.parametrize("blank_lines", [False, True], ids=["one-pass", "line-by-line"])
    def test_test_command_reads_padded_lines_as_floats(self, tmp_path, blank_lines):
        # Without blank lines the reader parses the file in one pass; a blank
        # line sends it line by line. Both must read the same numbers.
        lines = ["0.5", "\t-3.25", "  1e-3  ", "7\t ", "-0.0", " 12.0"]
        if blank_lines:
            lines[2:2] = ["", "   ", "\t"]
        data = [float(line) for line in lines if line.strip()]
        rows = self._check_test_command(tmp_path, "".join(line + "\r\n" for line in lines), data)
        assert rows[2][1:] == (0.001, 0) and rows[-1][1:] == (12.0, 1)

    def test_extend_and_csv_make_no_objects_per_row(self):
        # Cells are stored by column, so 1e4 rows add no GC-tracked tuples.
        n = 10_000
        columns = dict(index=list(range(n)), x=[0.5 * i for i in range(n)],
                       decision=[i % 2 for i in range(n)])
        table = ResultTable(list(columns))
        enabled = gc.isenabled()
        gc.disable()
        try:
            before = len(gc.get_objects())
            table.extend(**columns)
            text = table.csv_text()
            grown = len(gc.get_objects()) - before
        finally:
            if enabled:
                gc.enable()
        assert text.count("\n") == n + 1
        assert grown < 100


class TestEmitPlotScript:
    def test_missing_columns(self):
        table = ResultTable(["a", "b"])
        with pytest.raises(ValueError, match="missing columns"):
            emit_plot_script(table, "mx_curve")

    def test_unknown_kind(self):
        for kind in ("pie_chart", "risk_vs_n"):
            with pytest.raises(ValueError, match="unknown plot kind"):
                emit_plot_script(ResultTable(["x"]), kind)

    @staticmethod
    def _mx_curve_script(tmp_path):
        config = ExperimentConfig(
            experiment_id="curve", kind="mx_curve",
            prior=horseshoe_prior(0.05, 1000, 50), x_grid=(0.0, 1.0, 2.0, 4.0),
        )
        table = run_experiment(config)
        table.write(str(tmp_path / "curve.csv"))
        script = emit_plot_script(table, "mx_curve", "curve.csv")
        script_path = tmp_path / "plot.py"
        script_path.write_text(script)
        return config, table, script_path

    def test_mx_curve_script_runs(self, tmp_path):
        config, table, script_path = self._mx_curve_script(tmp_path)
        stub = tmp_path / "stub"
        (stub / "matplotlib").mkdir(parents=True)
        (stub / "matplotlib" / "__init__.py").write_text(_MATPLOTLIB_DOUBLE)
        (stub / "matplotlib" / "pyplot.py").write_text(_PYPLOT_DOUBLE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(stub), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(script_path)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote mx_curve.png" in proc.stdout.splitlines()
        calls = json.loads((stub / "calls.json").read_text())
        assert [c["call"] for c in calls] == [
            "use", "subplots", "ax.plot", "ax.set_xlabel", "ax.set_ylabel",
            "ax.legend", "fig.tight_layout", "fig.savefig",
        ]
        by_name = {c["call"]: c for c in calls}
        xs, ys = by_name["ax.plot"]["args"][:2]
        # The CSV writes floats by repr, so they come back bit for bit.
        assert xs == list(config.x_grid)
        assert ys == [float(m) for m in table.column("m_x")]
        assert by_name["ax.set_xlabel"]["args"] == ["x"]
        assert by_name["ax.set_ylabel"]["args"] == ["shrinkage weight"]
        assert by_name["fig.savefig"]["args"] == ["mx_curve.png"]

    def test_mx_curve_script_renders_png(self, tmp_path):
        pytest.importorskip("matplotlib")
        _, _, script_path = self._mx_curve_script(tmp_path)
        proc = subprocess.run(
            [sys.executable, str(script_path)], cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "mx_curve.png").read_bytes().startswith(b"\x89PNG")

    def test_bound_overlay_in_signal_plot(self):
        table = ResultTable(["magnitude", "rsup", "bound"])
        script = emit_plot_script(table, "risk_vs_signal")
        assert "bound" in script
        assert "results.csv" in script


class TestRngHelpers:
    def test_substream_reproducible(self):
        a = substream(1, 2, 3).standard_normal(5)
        b = substream(1, 2, 3).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_substreams_distinct(self):
        base = substream(1, 0, 0).standard_normal(4)
        other_rep = substream(1, 1, 0).standard_normal(4)
        other_stream = substream(1, 0, 1).standard_normal(4)
        assert not np.allclose(base, other_rep)
        assert not np.allclose(base, other_stream)

    def test_map_replicates_order(self):
        # fn gets contiguous chunks and returns one result per replicate in each.
        def squares(part):
            return [i * i for i in part]

        serial = map_replicates(squares, 9, threads=1)
        parallel = map_replicates(squares, 9, threads=4)
        assert serial == parallel == [i * i for i in range(9)]

    def test_pool_capped_at_usable_cpus(self, monkeypatch):
        # The stand-in pool records its size and its chunks and maps in this
        # thread, so no worker thread starts whatever size is asked for.
        sizes, chunks = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                chunks.append(list(items))
                return map(fn, chunks[-1])

        def squares(part):
            return [i * i for i in part]

        monkeypatch.setattr(rng, "ThreadPoolExecutor", RecordingPool)
        want = [i * i for i in range(9)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert map_replicates(squares, 9, threads=64) == want
        assert map_replicates(squares, 9, threads=2) == want
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert map_replicates(squares, 9, threads=64) == want
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU, no pool
        assert map_replicates(squares, 9, threads=64) == want
        assert sizes == [3, 2, 5]
        # One contiguous chunk per worker, sized as split_draws sizes batches.
        assert chunks == [
            [range(0, 3), range(3, 6), range(6, 9)],
            [range(0, 5), range(5, 9)],
            [range(0, 2), range(2, 4), range(4, 6), range(6, 8), range(8, 9)],
        ]

    @pytest.mark.parametrize("stream", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
    def test_rekeyed_generator_draws_as_fresh_philox(self, seed, stream):
        # substreams re-keys one generator through numpy's Philox state dict;
        # it must draw what a fresh Philox on the documented key draws, also
        # after the previous replicate left it mid-buffer with a spare uint32.
        def draws(gen):
            return [gen.standard_normal(5), gen.random(4), gen.binomial(10**8, 0.01, size=3),
                    gen.binomial(40, 0.3, size=3), gen.integers(0, 1000, size=5, dtype=np.uint32)]

        replicates = [0, 1, 2**48 - 1]
        built = 0
        for replicate, gen in zip(replicates, substreams(seed, replicates, stream)):
            key = np.array([seed, stream << 48 | replicate], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key))
            for got, want in zip(draws(gen), draws(fresh)):
                np.testing.assert_array_equal(got, want)
            state = gen.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
            built += 1
        assert built == len(replicates)

    @pytest.mark.parametrize("seed, replicate, stream", [
        (-1, 0, 0), (2**64, 0, 0), (0, -1, 0), (0, 2**48, 0), (0, 0, -1), (0, 0, 2**16),
    ])
    def test_key_fields_outside_their_bits_raise(self, seed, replicate, stream):
        # Each would alias another key, as seed & (2^64 - 1) and the 48/16-bit masks did.
        with pytest.raises(ValueError):
            substream(seed, replicate, stream)
        with pytest.raises(ValueError):
            next(substreams(seed, [replicate], stream))

    def test_split_draws(self):
        parts = split_draws(103, 10)
        assert sum(parts) == 103
        assert max(parts) - min(parts) <= 1
