"""Frozen output bytes of the README commands, of one config per kind, of
the decision threshold and of the demos.

Each case runs a CLI command (or `simulate` on an INI written here, or
`decision_threshold` or `calibrate_signal_offset` over a grid of priors
and alphas, or a demo script in a fresh directory) and compares its
output with the file of the same name under `tests/golden/`, byte for
byte; a demo's output is its stdout, in `demo_<number>.txt`.  The files pin what a refactor must not move: every float is
written by `repr`, so a change in the last bit of a bound, a risk, a
threshold or a Monte Carlo mean shows up here.  `simulate` runs each
config against its file, again at threads 4 where its kind reads
`threads` (with the `# threads =` echo line normalised; a kind that does
not read it must refuse `threads = 4`), and once more from an INI rebuilt
from the file's own echo lines, which must give the file back.

The files were written by this module's own cases with Python 3.11,
numpy 2.4 and scipy 1.17.  Regenerate them, after a deliberate change of
output, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest

from shrinktest import (
    AlwaysReject, ExperimentConfig, NoCrossing, NumericError, ShrinkageCurve,
    calibrate_signal_offset, parse_prior_spec,
)
from shrinktest.cli import EXIT_OK, EXIT_VALIDATION, main
from shrinktest.rng import substream

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN_DIR.parent.parent
DEMOS = {f"demo_{path.name[:2]}.txt": path for path in sorted((ROOT / "demos").glob("*.py"))}

PRIOR = "horseshoe:tau=0.01,n=10000,p=100"

_MODEL = """\
[model]
n = 10000
p_n = 100
c_psi = 1.0
"""

_PRIOR_SECTION = """\
[prior]
family = horseshoe
tau = 0.01
n = 10000
p = 100
"""

CONFIGS = {
    "mx_curve": f"""\
[experiment]
id = golden-mx
kind = mx_curve

{_PRIOR_SECTION}
[mx]
x = 0,0.5,1,2,3,3.5,4,5,6,8,12,25,100
""",
    "risk_bayes": f"""\
[experiment]
id = golden-risk-bayes
kind = risk_bayes
replicates = 8
seed = 7
threads = 1
draws = 5000

{_PRIOR_SECTION}
{_MODEL}
[test]
alpha = 0.5
""",
    "risk_minimax": f"""\
[experiment]
id = golden-risk-minimax
kind = risk_minimax
replicates = 20
seed = 3

{_PRIOR_SECTION}
[test]
alpha = 0.5
lambda = 0.5

[signal]
v_n = 3.0

[sweep]
magnitudes = 2.5,5.0
""",
    "risk_minimax_rho": f"""\
[experiment]
id = golden-risk-minimax-rho
kind = risk_minimax
replicates = 20
seed = 4

{_PRIOR_SECTION}
[signal]
c1 = 0.25
v_n = 1.5
""",
    "adaptive": f"""\
[experiment]
id = golden-adaptive
kind = adaptive
replicates = 20
seed = 5
threads = 1
c_u = 2.0
zeta = 0.5

{_PRIOR_SECTION}
{_MODEL}
[test]
alpha = 0.5
""",
}


def reading_kinds(key: str) -> tuple[str, ...]:
    """The kinds that read a config key, by the field table."""
    (row,) = [row for row in dataclasses.fields(ExperimentConfig) if row.metadata["key"] == key]
    return row.metadata["reads"]


# The configs whose kind reads `threads`.
THREADED = {name for name in CONFIGS
            if re.search(r"(?m)^kind = (\w+)$", CONFIGS[name])[1] in reading_kinds("threads")}


def _write_input(path: pathlib.Path) -> None:
    """500 observations: 25 signals of mean 5 and unit Gaussian noise."""
    data = substream(17).standard_normal(500)
    data[:25] += 5.0
    path.write_text("".join(f"{float(v)!r}\n" for v in data), encoding="utf-8")


def _cli(workdir: pathlib.Path, name: str, *argv: str) -> bytes:
    out = workdir / name
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    return out.read_bytes()


def _test_command(workdir: pathlib.Path) -> bytes:
    data = workdir / "data.csv"
    _write_input(data)
    return _cli(workdir, "test.csv", "test", "--prior", PRIOR, "--alpha", "0.5",
                "--input", str(data))


CLI_CASES = {
    "mx.csv": lambda d: _cli(d, "mx.csv", "mx", "--prior", PRIOR, "--x", "0:10:0.5"),
    "threshold.txt": lambda d: _cli(d, "threshold.txt", "threshold", "--prior", PRIOR,
                                    "--alpha", "0.5"),
    "test.csv": _test_command,
    "check_prior_exponential.json": lambda d: _cli(
        d, "check_prior_exponential.json", "check-prior",
        "--prior", "exponential:rate=1,n=10000,p=100",
    ),
    "check_prior_horseshoe.json": lambda d: _cli(
        d, "check_prior_horseshoe.json", "check-prior", "--prior", PRIOR,
    ),
    "check_prior_horseshoe_tiny_tau.json": lambda d: _cli(
        d, "check_prior_horseshoe_tiny_tau.json", "check-prior",
        "--prior", "horseshoe:tau=1e-08,n=100000000,p=1",
    ),
    "risk_bayes.csv": lambda d: _cli(
        d, "risk_bayes.csv", "risk-bayes", "--prior", PRIOR,
        "--n", "10000", "--p", "100", "--c-psi", "1",
    ),
    "risk_minimax.csv": lambda d: _cli(
        d, "risk_minimax.csv", "risk-minimax", "--prior", PRIOR,
        "--v-n", "3", "--replicates", "200",
    ),
    "risk_minimax_magnitude.csv": lambda d: _cli(
        d, "risk_minimax_magnitude.csv", "risk-minimax", "--prior", PRIOR,
        "--magnitude", "9", "--replicates", "50", "--seed", "1",
    ),
    "risk_minimax_exponential.csv": lambda d: _cli(
        d, "risk_minimax_exponential.csv", "risk-minimax",
        "--prior", "exponential:rate=1,n=10000,p=100", "--replicates", "50",
    ),
    "adaptive.json": lambda d: _cli(
        d, "adaptive.json", "adaptive", "--n", "10000", "--p", "100",
        "--replicates", "200", "--risk-replicates", "50",
    ),
}


# The five priors of the benchmark's curve workload, and two exponential
# priors whose searches fall back to the adaptive quadrature.
THRESHOLD_PRIORS = [
    f"{family},n=10000,p=100"
    for family in (
        "horseshoe:tau=0.1", "horseshoe:tau=0.001", "horseshoe:tau=1e-6",
        "exponential:rate=1", "exponential:rate=10", "exponential:rate=100",
        "inverse_gamma:shape=2,scale=1",
    )
]
THRESHOLD_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _per_prior_and_alpha(compute) -> bytes:
    """repr(compute(curve, alpha)), or the class name of the error raised, per prior and alpha."""
    cases: dict[str, dict[str, str]] = {}
    for spec in THRESHOLD_PRIORS:
        curve = ShrinkageCurve(parse_prior_spec(spec))
        cases[spec] = {}
        for alpha in THRESHOLD_ALPHAS:
            try:
                cases[spec][repr(alpha)] = repr(compute(curve, alpha))
            except NumericError as exc:
                cases[spec][repr(alpha)] = type(exc).__name__
    return (json.dumps(cases, indent=2) + "\n").encode("utf-8")


def _thresholds() -> bytes:
    """x*(alpha) per prior and alpha."""
    return _per_prior_and_alpha(ShrinkageCurve.decision_threshold)


def _searched_x_star(curve: ShrinkageCurve, alpha: float) -> float:
    """x*(alpha), with 0 for a curve that rejects everything and inf for one that never crosses."""
    try:
        return curve.decision_threshold(alpha)
    except AlwaysReject:
        return 0.0
    except NoCrossing:
        return math.inf


def _calibrations() -> bytes:
    """The separation rate's calibrated offset c1 per prior and alpha."""
    return _per_prior_and_alpha(
        lambda curve, alpha: calibrate_signal_offset(curve, _searched_x_star(curve, alpha)))


def _simulate(workdir: pathlib.Path, kind: str, threads: int) -> bytes:
    config = workdir / f"{kind}.ini"
    config.write_text(CONFIGS[kind].replace("threads = 1", f"threads = {threads}"),
                      encoding="utf-8")
    raw = _cli(workdir, f"simulate_{kind}.csv", "simulate", "--config", str(config))
    return re.sub(rb"(?m)^# threads = \d+$", b"# threads = _", raw)


def _demo(workdir: pathlib.Path, name: str) -> bytes:
    """Stdout of a demo run in workdir, where it writes its files, on this checkout's sources."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(DEMOS[name])], cwd=workdir, capture_output=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    return run.stdout


def _golden(name: str) -> bytes:
    return (GOLDEN_DIR / name).read_bytes()


def echo_ini(csv_text: str) -> str:
    """An INI file holding the config echo ("# key = value" lines) of a CSV.

    A bare key goes to [experiment]; `section.key` goes to [section].
    """
    sections: dict[str, list[str]] = {}
    for line in csv_text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            section, _, name = key.rpartition(".")
            sections.setdefault(section or "experiment", []).append(f"{name} = {value}\n")
    return "".join(f"[{name}]\n" + "".join(body) + "\n" for name, body in sections.items())


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_bytes(name, tmp_path):
    assert CLI_CASES[name](tmp_path) == _golden(name)


def test_threshold_bytes():
    assert _thresholds() == _golden("thresholds.json")


def test_calibration_bytes():
    assert _calibrations() == _golden("calibrations.json")


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_stdout_bytes(name, tmp_path):
    assert _demo(tmp_path, name) == _golden(name)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_simulate_output_bytes(kind, tmp_path):
    assert _simulate(tmp_path, kind, 1) == _golden(f"simulate_{kind}.csv")


@pytest.mark.parametrize("kind", sorted(THREADED))
def test_simulate_threads_give_same_bytes(kind, tmp_path):
    assert _simulate(tmp_path, kind, 4) == _golden(f"simulate_{kind}.csv")


@pytest.mark.parametrize("kind", sorted(CONFIGS.keys() - THREADED))
def test_simulate_threads_refused_where_unread(kind, tmp_path, capsys):
    # Was accepted and echoed, though these kinds run serially.
    config = tmp_path / f"{kind}.ini"
    config.write_text(CONFIGS[kind].replace("[experiment]\n", "[experiment]\nthreads = 4\n"),
                      encoding="utf-8")
    assert main(["simulate", "--config", str(config)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "experiment.threads" in captured.err and captured.out == ""


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_simulate_echo_reruns_to_same_bytes(kind, tmp_path):
    golden = _golden(f"simulate_{kind}.csv")
    config = tmp_path / "echo.ini"
    config.write_text(echo_ini(golden.decode("utf-8").replace("# threads = _", "# threads = 2")),
                      encoding="utf-8")
    raw = _cli(tmp_path, "echo.csv", "simulate", "--config", str(config))
    assert raw.replace(b"# threads = 2\n", b"# threads = _\n") == golden


def _regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        outputs = {name: case(workdir) for name, case in CLI_CASES.items()}
        outputs["thresholds.json"] = _thresholds()
        outputs["calibrations.json"] = _calibrations()
        outputs.update(
            {f"simulate_{kind}.csv": _simulate(workdir, kind, 1) for kind in CONFIGS}
        )
        for name in DEMOS:
            (workdir / name).mkdir()
            outputs[name] = _demo(workdir / name, name)
    for name, data in sorted(outputs.items()):
        (GOLDEN_DIR / name).write_bytes(data)
        print(f"wrote {GOLDEN_DIR / name} ({len(data)} bytes)")


if __name__ == "__main__":
    _regenerate()
