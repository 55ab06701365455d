import json
import os
import subprocess
import sys

import pytest

from shrinktest import ExperimentConfig, TwoGroupModel, cli, parse_prior_spec, run_experiment
from shrinktest.adaptive import MAX_WINDOW_REPLICATES
from shrinktest.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from shrinktest.harness import MAX_BATCH_DRAWS
from shrinktest.shrinkage import ShrinkageCurve
from test_golden import reading_kinds

PRIOR = "horseshoe:tau=0.05,n=1000,p=50"


def _csv_rows(text):
    """The header and cells of a CSV text, comment lines dropped."""
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def compute_calls(monkeypatch):
    """Names of the threshold searches and condition-4 studies a command runs, in order."""
    calls = []

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(ShrinkageCurve, "decision_threshold")
    count(cli, "verify_condition4")
    return calls


def test_import_leaves_scipy_stats_out():
    # The library needs only scipy.special; scipy.stats would double a cold start.
    import shrinktest

    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.abspath(shrinktest.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import shrinktest, sys; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestParserReuse:
    def test_main_calls_share_no_state(self, capsys, monkeypatch, tmp_path):
        argvs = [
            ["threshold", "--prior", PRIOR, "--alpha", "0.3", "--out", str(tmp_path / "t.txt")],
            ["risk-minimax", "--prior", PRIOR, "--seed", "5"],
            ["mx", "--prior", PRIOR, "--x", "0,1"],
            ["threshold", "--prior", PRIOR],
            ["risk-minimax", "--prior", PRIOR],
        ]
        seen = []
        for name in ("threshold", "mx", "risk-minimax"):
            monkeypatch.setitem(cli._COMMANDS, name, lambda args: seen.append(vars(args)))
        for argv in argvs:
            main(argv)
        fresh = cli._build_parser.__wrapped__()
        assert seen == [vars(fresh.parse_args(argv)) for argv in argvs]
        assert (seen[3]["alpha"], seen[3]["out"], seen[4]["seed"]) == (0.5, None, 0)
        assert cli._build_parser() is cli._build_parser()

    def test_outputs_after_another_command(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        assert main(["threshold", "--prior", PRIOR, "--alpha", "0.3", "--out", str(out)]) == EXIT_OK
        code, text, _ = run_cli(capsys, "mx", "--prior", PRIOR, "--x", "0,1")
        assert code == EXIT_OK and text.startswith("x,m_x,posterior_mean\n")
        code, text, _ = run_cli(capsys, "threshold", "--prior", PRIOR)
        assert float(text) == pytest.approx(3.520563, abs=1e-4)
        assert float(out.read_text()) < float(text)


class TestMx:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "mx", "--prior", PRIOR, "--x", "0,1,2")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "x,m_x,posterior_mean"
        assert len(lines) == 4
        x, m, pm = (float(v) for v in lines[2].split(","))
        assert x == 1.0 and 0.0 <= m <= 1.0 and pm == pytest.approx(m * x)

    def test_range_form(self, capsys):
        code, out, _ = run_cli(capsys, "mx", "--prior", PRIOR, "--x", "0:2:0.5")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 6

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "mx", "--prior", PRIOR, "--x", "0:4:1")
        _, second, _ = run_cli(capsys, "mx", "--prior", PRIOR, "--x", "0:4:1")
        assert first == second

    @pytest.mark.parametrize("prior, x", [
        (PRIOR, "1e20"),  # was exit 3: non-finite integrand
        ("exponential:rate=1,n=10000,p=100", "1e8"),  # was exit 3
        (PRIOR, "0:2e5:1e5"),
        (PRIOR, "nan"),
    ])
    def test_x_past_float_range_exits_2_naming_x(self, capsys, prior, x):
        code, out, err = run_cli(capsys, "mx", "--prior", prior, "--x", x)
        assert code == EXIT_VALIDATION
        assert "validation error: --x must hold only |x| <= 100000" in err
        assert out == ""

    def test_largest_accepted_x(self, capsys):
        code, out, _ = run_cli(capsys, "mx", "--prior", "exponential:rate=1,n=10000,p=100",
                               "--x=-1e5,1e5")
        assert code == EXIT_OK
        assert [0.0 < float(row[1]) < 1.0 for row in _csv_rows(out)[1:]] == [True, True]

    @pytest.mark.parametrize("x", ["0:inf:1", "0:nan:1", "5:0:1", "0:1:0"])
    def test_bad_range_exits_before_any_output(self, capsys, x):
        code, out, err = run_cli(capsys, "mx", "--prior", PRIOR, "--x", x)
        assert code == EXIT_VALIDATION
        assert "range needs" in err
        assert out == ""

    @pytest.mark.parametrize("x, message", [
        ("0:1e308:1e-308", "--x must hold only |x| <= 100000"),  # was an OverflowError, exit 1
        ("0:1e5:1e-308", "--x range must have at most 1e+06 points"),  # was an OverflowError
        ("0:1e5:1e-9", "--x range must have at most 1e+06 points"),  # built 1e14 points first
    ], ids=["stop-1e308", "step-1e-308", "step-1e-9"])
    def test_range_checked_before_its_points_are_built(self, capsys, monkeypatch, x, message):
        def no_build(*args):
            raise AssertionError("built the points of a rejected range")

        monkeypatch.setattr(cli, "range", no_build, raising=False)
        code, out, err = run_cli(capsys, "mx", "--prior", PRIOR, "--x", x)
        assert code == EXIT_VALIDATION
        assert f"validation error: {message}" in err
        assert out == ""

    def test_point_cap_is_inclusive(self):
        # Exact in binary: 62499.9375 / 0.0625 = 999999, so the range has 1e6 points.
        assert len(cli._parse_x_values("0:62499.9375:0.0625")) == cli.MAX_X_POINTS
        with pytest.raises(ValueError, match="at most 1e\\+06 points"):
            cli._parse_x_values("0:62500:0.0625")


class TestThreshold:
    def test_prints_crossing(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--prior", PRIOR, "--alpha", "0.5")
        assert code == EXIT_OK
        assert float(out.strip()) == pytest.approx(3.520563, abs=1e-4)

    def test_numeric_failure_exit(self, capsys):
        code, _, err = run_cli(
            capsys, "threshold", "--prior", "horseshoe:tau=10,n=100,p=10", "--alpha", "0.5"
        )
        assert code == EXIT_NUMERIC
        assert "numeric failure" in err

    def test_validation_exit(self, capsys):
        code, _, err = run_cli(capsys, "threshold", "--prior", "bogus:a=1")
        assert code == EXIT_VALIDATION
        assert "validation error" in err

    @pytest.mark.parametrize("bug", [NotImplementedError, KeyError])
    def test_program_bug_is_not_a_numeric_failure(self, capsys, monkeypatch, bug):
        def broken(args):
            raise bug("unfinished command")

        monkeypatch.setitem(cli._COMMANDS, "threshold", broken)
        with pytest.raises(bug):
            main(["threshold", "--prior", PRIOR])


class TestTestCommand:
    def test_decisions_from_file(self, capsys, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.0\n10.0\n-0.5\n")
        code, out, _ = run_cli(
            capsys, "test", "--prior", PRIOR, "--alpha", "0.5", "--input", str(data)
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "index,x,decision"
        decisions = [line.split(",")[2] for line in lines[1:]]
        assert decisions == ["0", "1", "0"]

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "test", "--prior", PRIOR, "--input", "/no/such/file.csv"
        )
        assert code == EXIT_VALIDATION

    def test_bad_line_named_by_file_and_number(self, capsys, compute_calls, tmp_path):
        # The blank line counts toward the 1-based line number.
        data = tmp_path / "data.csv"
        data.write_text("0.0\n\n1.5\nabc\n2.0\n")
        code, out, err = run_cli(capsys, "test", "--prior", PRIOR, "--input", str(data))
        assert code == EXIT_VALIDATION
        assert f"{data}, line 4: not a number: 'abc'" in err
        assert out == ""
        assert compute_calls == []


class TestCheckPrior:
    def test_json_records(self, capsys):
        code, out, _ = run_cli(capsys, "check-prior", "--prior", "exponential:rate=1,n=1000,p=50")
        assert code == EXIT_OK
        records = json.loads(out)
        assert [r["condition"] for r in records] == ["C1-rv", "C1-lower", "C2", "C3"]
        assert all(r["satisfied"] for r in records)
        assert records[2]["constant"] == pytest.approx(0.6321205588, abs=1e-9)
        assert all("grid" in r for r in records)

    def test_p_at_n_over_e_is_a_validation_error(self, capsys):
        # p = nextafter(n/e, 0): p < n/e, yet log(n/p) rounds to exactly 1.
        code, out, err = run_cli(
            capsys, "check-prior", "--prior", "horseshoe:tau=0.1,n=10000,p=3678.794411714423"
        )
        assert code == EXIT_VALIDATION
        assert out == ""
        assert "p=3678.794411714423" in err


class TestRiskBayes:
    def test_analytic_and_mc_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-bayes", "--prior", "horseshoe:tau=0.01,n=10000,p=100",
            "--n", "10000", "--p", "100", "--alpha", "0.5", "--draws", "20000",
            "--seed", "3",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "row_type"
        for column in ("n", "p", "alpha", "x_star", "type1", "type2", "bayes_risk",
                       "oracle_risk", "bound", "fdr", "fnr", "rsup", "se_type1",
                       "se_bayes_risk", "seed"):
            assert column in header
        rows = {line.split(",")[0]: line for line in lines[1:]}
        assert set(rows) == {"analytic", "mc"}

    @pytest.mark.parametrize("threads", [1, 4])
    def test_prints_the_analytic_and_aggregate_rows_of_the_kind(self, capsys, threads):
        code, out, _ = run_cli(capsys, *RISK_BAYES, "--c-psi", "2", "--draws", "3000",
                               "--seed", "9", "--threads", str(threads))
        assert code == EXIT_OK
        config = ExperimentConfig(
            experiment_id="x", kind="risk_bayes", prior=parse_prior_spec(PRIOR),
            model=TwoGroupModel.from_c_psi(1000, 50.0, 2.0), replicates=64, seed=9, draws=3000,
        )
        header, *rows = _csv_rows(run_experiment(config).csv_text())
        picked = [dict(zip(header, row)) for row in rows if row[0] in ("analytic", "aggregate")]
        picked[1]["row_type"] = "mc"
        cli_header, *cli_rows = _csv_rows(out)
        assert [row[0] for row in rows] == ["analytic"] + ["replicate"] * 64 + ["aggregate"]
        assert cli_rows == [[row[column] for column in cli_header] for row in picked]

    @pytest.mark.parametrize("command", ["check-prior", "risk-bayes"])
    @pytest.mark.parametrize("spec, key", [
        (f"{PRIOR},k=nan", "k"), (f"{PRIOR},u0=nan", "u0"), (f"{PRIOR},r=nan", "r"),
        ("horseshoe:tau=inf,n=1000,p=50", "tau"),
    ])
    def test_non_finite_prior_field_exits_2_naming_its_key(self, capsys, command, spec, key):
        sizes = ["--n", "1000", "--p", "50"] if command == "risk-bayes" else []
        code, out, err = run_cli(capsys, command, "--prior", spec, *sizes)
        assert code == EXIT_VALIDATION
        assert f"validation error: {key} must be finite" in err
        assert out == ""


class TestRiskMinimax:
    def test_aggregate_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "risk-minimax", "--prior", "horseshoe:tau=0.02,n=2000,p=40",
            "--alpha", "0.5", "--v-n", "3", "--c1", "0", "--replicates", "10",
            "--seed", "2",
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[1].startswith("aggregate")
        header = lines[0].split(",")
        row = lines[1].split(",")
        rsup = float(row[header.index("rsup")])
        assert 0.0 <= rsup <= 2.0

    def test_one_threshold_search(self, capsys, compute_calls):
        code, _, _ = run_cli(
            capsys, "risk-minimax", "--prior", "horseshoe:tau=0.02,n=2000,p=40",
            "--c1", "0", "--replicates", "2",
        )
        assert code == EXIT_OK
        assert compute_calls == ["decision_threshold"]

    def test_non_integer_p_exits_2_naming_p(self, capsys, compute_calls):
        # Was exit 0: x* at p = 100.5 but a signal of round(p) = 100 coordinates.
        code, out, err = run_cli(capsys, "risk-minimax", "--prior",
                                 "horseshoe:tau=0.01005,n=10000,p=100.5", "--replicates", "10")
        assert code == EXIT_VALIDATION
        assert "validation error: prior.p: must be a whole number" in err
        assert out == ""
        assert compute_calls == []

    def test_c1_beside_a_magnitude_exits_2_naming_c1(self, capsys, compute_calls):
        # Was exit 0: --magnitude replaced the separation rate, so --c1 changed nothing.
        code, out, err = run_cli(capsys, "risk-minimax", "--prior", PRIOR, "--magnitude", "9",
                                 "--c1", "0.5")
        assert code == EXIT_VALIDATION
        assert "validation error: signal.c1: is not read when sweep.magnitudes is set" in err
        assert out == ""
        assert compute_calls == []

    def test_calibration_failure_exit(self, capsys):
        # The weight crosses 1/2 near x = 30, past the calibration grid's
        # top at the search cap (about 21.6 for n/p = 10/3).
        code, _, err = run_cli(
            capsys, "risk-minimax", "--prior", "exponential:rate=100,n=100,p=30",
            "--alpha", "0.5", "--replicates", "1",
        )
        assert code == EXIT_NUMERIC
        assert "top of the grid" in err


class TestAdaptive:
    def test_json_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "adaptive", "--n", "2000", "--p", "40", "--alpha", "0.5",
            "--replicates", "100", "--risk-replicates", "5", "--seed", "1",
        )
        assert code == EXIT_OK
        record = json.loads(out)
        assert "condition4" in record and "risk" in record
        assert record["condition4"]["replicates"] == 100
        assert record["risk"]["bound"] > 0


RISK_BAYES = ["risk-bayes", "--prior", PRIOR, "--n", "1000", "--p", "50"]


class TestRiskFlagsCheckedAsConfig:
    @pytest.mark.parametrize("argv, field", [
        (["risk-minimax", "--prior", PRIOR, "--lambda", "1.5"], "test.lambda"),
        (["risk-minimax", "--prior", PRIOR, "--magnitude", "nan"], "sweep.magnitudes"),
        (["adaptive", "--n", "1000", "--p", "50", "--zeta", "-1"], "experiment.zeta"),
        (RISK_BAYES + ["--draws", "-5"], "experiment.draws"),
        (RISK_BAYES + ["--draws", "63"], "experiment.draws"),  # fewer than the 64 batches
        (RISK_BAYES + ["--threads", "0"], "experiment.threads"),
        (RISK_BAYES + ["--alpha", "1.0"], "test.alpha"),
        # Were exit 0, writing Infinity into the JSON record.
        (["adaptive", "--n", "1000", "--p", "50", "--c-u", "inf"], "experiment.c_u"),
        (["adaptive", "--n", "1000", "--p", "50", "--zeta", "inf"], "experiment.zeta"),
        # Was exit 2, naming no field.
        (["risk-minimax", "--prior", PRIOR, "--v-n", "inf"], "signal.v_n"),
        # Were exit 2 naming no field, or the section alone.
        (RISK_BAYES + ["--c-psi", "nan"], "model.c_psi"),
        (RISK_BAYES + ["--c-psi", "inf"], "model.c_psi"),
        (RISK_BAYES + ["--p", "0"], "model.p_n"),
        (["adaptive", "--n", "1000", "--p", "1000"], "model.p_n"),
        (["adaptive", "--n", "1", "--p", "0.5"], "model.n"),
        (["adaptive", "--n", "1000", "--p", "50", "--c-psi", "-1"], "model.c_psi"),
        # Were a MemoryError traceback (exit 1) once the arrays were sized.
        (RISK_BAYES + ["--draws", str(10**14)], "experiment.draws"),
        (["risk-minimax", "--prior", PRIOR, "--replicates", str(10**14)], "experiment.replicates"),
        (["adaptive", "--n", "1000", "--p", "50", "--risk-replicates", str(10**14)],
         "experiment.replicates"),
        # Were a MemoryError traceback asking for 74.5 GiB: the p signal values, or the n draws
        # of one adaptive risk replicate, in one array.
        (["risk-minimax", "--prior", "horseshoe:tau=0.01,n=1000000000000,p=10000000000",
          "--magnitude", "9", "--replicates", "1"], f"prior.p: must be at most {MAX_BATCH_DRAWS:g}"),
        (["adaptive", "--n", "10000000000", "--p", "100", "--risk-replicates", "1",
          "--replicates", "100"], f"model.n: must be at most {MAX_BATCH_DRAWS:g}"),
    ])
    def test_bad_flag_exits_before_any_compute(self, capsys, compute_calls, argv, field):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert field in err
        assert out == ""
        assert compute_calls == []

    def test_condition4_replicates_past_bound_exit_2_before_drawing(self, capsys, compute_calls):
        # Was a MemoryError traceback (exit 1) from the one binomial draw of all the counts.
        code, out, err = run_cli(capsys, "adaptive", "--n", "1000", "--p", "50",
                                 "--replicates", str(10**14))
        assert code == EXIT_VALIDATION
        assert f"replicates must lie in [100, {MAX_WINDOW_REPLICATES:g}], got {10**14}" in err
        assert out == ""
        assert compute_calls == ["verify_condition4"]  # refused on entry

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    @pytest.mark.parametrize("argv", [
        ["risk-minimax", "--prior", "horseshoe:tau=0.01,n=10000,p=100", "--v-n", "3",
         "--replicates", "20"],
        RISK_BAYES,
        ["adaptive", "--n", "1000", "--p", "50"],
    ])
    def test_seed_outside_64_bits_exits_2_naming_seed(self, capsys, compute_calls, argv, seed):
        # Was exit 0 with the numbers of seed 2^64 - 1 (for -1) or 0 (for 2^64).
        code, out, err = run_cli(capsys, *argv, "--seed", seed)
        assert code == EXIT_VALIDATION
        assert "experiment.seed" in err
        assert out == ""
        assert compute_calls == []


_REMOVED_FLAGS = [
    (argv, flag)
    for argv in (["mx", "--prior", PRIOR, "--x", "0,1"], ["threshold", "--prior", PRIOR],
                 ["test", "--prior", PRIOR, "--input", "data.txt"], ["check-prior", "--prior", PRIOR],
                 ["simulate", "--config", "experiment.ini"])
    for flag in ("--seed", "--threads")
] + [(["risk-minimax", "--prior", PRIOR], "--threads")]


@pytest.mark.parametrize("argv, flag", _REMOVED_FLAGS,
                         ids=[f"{argv[0]}{flag}" for argv, flag in _REMOVED_FLAGS])
def test_flag_that_changes_no_output_is_rejected(capsys, compute_calls, argv, flag):
    # Was accepted and ignored: these commands draw nothing, or draw serially.
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, "3"])
    captured = capsys.readouterr()
    assert exit_info.value.code == EXIT_VALIDATION
    assert f"unrecognized arguments: {flag} 3" in captured.err
    assert captured.out == ""
    assert compute_calls == []


_RISK_COMMANDS = {
    "risk_bayes": RISK_BAYES,
    "risk_minimax": ["risk-minimax", "--prior", PRIOR],
    "adaptive": ["adaptive", "--n", "1000", "--p", "50"],
}


@pytest.mark.parametrize("key", ["seed", "threads"])
@pytest.mark.parametrize("kind", sorted(_RISK_COMMANDS))
def test_risk_command_takes_a_flag_exactly_when_its_kind_reads_the_key(capsys, kind, key):
    try:
        cli._build_parser().parse_args(_RISK_COMMANDS[kind] + [f"--{key}", "3"])
        takes = True
    except SystemExit:
        assert f"unrecognized arguments: --{key} 3" in capsys.readouterr().err
        takes = False
    assert takes == (kind in reading_kinds(key))


class TestSimulate:
    def test_runs_config(self, capsys, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[experiment]\nid = t\nkind = mx_curve\n\n"
            "[prior]\nfamily = horseshoe\ntau = 0.05\nn = 1000\np = 50\n\n"
            "[mx]\nx = 0,1\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == EXIT_OK
        assert "x,m_x,posterior_mean" in out

    def test_out_flag_writes_file(self, capsys, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            "[experiment]\nid = t\nkind = mx_curve\n\n"
            "[prior]\nfamily = horseshoe\ntau = 0.05\nn = 1000\np = 50\n\n"
            "[mx]\nx = 0,1\n"
        )
        out_path = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config), "--out", str(out_path))
        assert code == EXIT_OK
        assert "m_x" in out_path.read_text()

    def test_invalid_config_exit(self, capsys, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text("[experiment]\nid = t\nkind = banana\nseed = 0\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == EXIT_VALIDATION
        assert "experiment.kind" in err

    @pytest.mark.parametrize("text", ["seed = 0\n", "[experiment]\nseed = 0\nseed = 1\n"],
                             ids=["no-section-header", "duplicate-key"])
    def test_malformed_file_exits_2(self, capsys, tmp_path, text):
        config = tmp_path / "exp.ini"
        config.write_text(text)
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == EXIT_VALIDATION
        assert "config: " in err


_VALID_SIMULATE = {
    "experiment": {"id": "t", "kind": "risk_minimax", "replicates": "2", "seed": "0"},
    "prior": {"family": "horseshoe", "tau": "0.02", "n": "2000", "p": "40"},
    "test": {"alpha": "0.5"},
    "sweep": {"magnitudes": "3.0,4.0"},
}


def _simulate_config(tmp_path, section=None, key=None, value=None):
    sections = {name: dict(fields) for name, fields in _VALID_SIMULATE.items()}
    if section is not None:
        sections.setdefault(section, {})[key] = value
    path = tmp_path / "exp.ini"
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in fields.items()) + "\n"
        for name, fields in sections.items()
    ))
    return str(path)


class TestConfigValidatedAtLoad:
    def test_valid_config_runs(self, capsys, tmp_path):
        out = tmp_path / "o.csv"
        code, _, _ = run_cli(capsys, "simulate", "--config", _simulate_config(tmp_path),
                             "--out", str(out))
        assert code == EXIT_OK
        assert out.exists()

    def test_percent_is_read_literally(self, capsys, tmp_path):
        config = _simulate_config(tmp_path, "experiment", "id", "run-5%(x)s")
        code, out, _ = run_cli(capsys, "simulate", "--config", config)
        assert code == EXIT_OK
        assert "# id = run-5%(x)s\n" in out

    @pytest.mark.parametrize("field, value", [
        ("sweep.magnitudes", "3.0,0"),
        ("sweep.magnitudes", "3.0,inf"),
        ("sweep.magnitudes", "nan"),
        ("signal.c1", "nan"),
        ("experiment.draws", "0"),
        ("experiment.slack", "0.5"),  # no such field
        ("experiment.replicate", "100"),
        ("tset.alpha", "0.25"),
        ("model.foo", "1"),
        ("test.lambda", "1.5"),
        ("test.lambda", "0"),
        ("signal.v_n", "-1"),
        ("experiment.c_u", "0"),
        ("experiment.zeta", "-0.5"),
        ("mx.x", "0,1e20"),
    ])
    def test_bad_field_exits_before_any_output(self, capsys, tmp_path, field, value):
        out = tmp_path / "o.csv"
        section, key = field.split(".")
        config = _simulate_config(tmp_path, section, key, value)
        code, stdout, err = run_cli(capsys, "simulate", "--config", config, "--out", str(out))
        assert code == EXIT_VALIDATION
        assert field in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("signal.rule", "rho_n"), ("signal.magnitude", "9.0")])
    def test_removed_signal_key_is_unknown(self, capsys, tmp_path, field, value):
        # Were accepted beside a sweep, and changed no row.
        section, key = field.split(".")
        code, stdout, err = run_cli(capsys, "simulate", "--config",
                                    _simulate_config(tmp_path, section, key, value))
        assert code == EXIT_VALIDATION
        assert f"validation error: {field}: unknown field" in err
        assert stdout == ""
