"""Self-tests of the benchmark: python3 -m pytest perfbench -q (from the repo root).

They check the benchmark, not the library: that a perturbed output
fails its check, that the tail records its percentile, that the
end-to-end figures take each job slot's fastest run, that the
references agree with extended precision, that the tracer's arithmetic
holds, and that BENCHMARK.json names exactly what the code reports.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir():
    path = HERE / "work" / f"selftest-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    yield str(path)
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass  # a benchmark process is still using it


def _failed(job) -> bool:
    return not worker.run_job(job)[1]


def test_tail_records_its_percentile():
    durations = [float(i) for i in range(1, 41)]
    value, pct = run.tail(durations)
    assert (value, pct) == (30.0, 75.0)  # ten jobs (31..40) lie beyond it
    every = run.all_jobs(durations)
    assert every["job_tail_percentile"] == 75.0 and every["job_tail_s"] == 30.0
    with pytest.raises(ValueError):
        run.tail(durations[:10])


def test_end_to_end_takes_each_slots_fastest_run():
    # Three slots over three cycles; the second cycle ran in a slow phase.
    durations = [1.0, 2.0, 4.0, 3.0, 6.0, 12.0, 1.5, 2.5, 4.5]
    slots = [0, 1, 2] * 3
    metrics = run.end_to_end(durations, slots, [3.0, 1.0, 2.0, 9.0, 2.5], 100.0)
    assert metrics["jobs_per_s"] == (3 / 7.0, "1/s")
    assert metrics["job_p50_s"] == (2.0, "s")
    assert metrics["setup_s"] == (2.5, "s")


def test_perturbed_curve_output_fails(workdir, monkeypatch):
    from shrinktest import shrinkage

    wl = workloads.CurveWorkload(seed=3, workdir=workdir)
    wl.setup()
    mx, threshold = wl.cycle(0)[:2]  # horseshoe tau=0.1, the cheapest prior
    assert not _failed(mx) and not _failed(threshold)
    weight = shrinkage.ShrinkageCurve.weight
    monkeypatch.setattr(shrinkage.ShrinkageCurve, "weight", lambda self, x: weight(self, x) + 1e-5)
    assert _failed(mx) and _failed(threshold)


def test_perturbed_mc_output_fails(workdir):
    wl = workloads.McWorkload(seed=3, workdir=workdir)
    wl.setup()
    jobs = {job.kind: job for job in wl.cycle(0)}
    two_group, fdr = jobs["two_group_risk_mc"], jobs["fdr_fnr_mc_n10000"]
    assert not _failed(two_group) and not _failed(fdr)
    report = two_group.run()
    shifted = dataclasses.replace(report, bayes_risk=report.bayes_risk * 1.2)
    assert _failed(workloads.Job("two_group_risk_mc", lambda: shifted, two_group.check))
    report = fdr.run()
    moved = dataclasses.replace(report, fnr=min(report.fnr + 0.05, 1.0), rsup=None)
    assert _failed(workloads.Job("fdr", lambda: moved, fdr.check))


def test_perturbed_adaptive_output_fails(workdir):
    from shrinktest import run_experiment

    wl = workloads.AdaptiveWorkload(seed=3, workdir=workdir)
    wl.setup()
    job = wl.cycle(0)[0]
    assert not _failed(job)  # also compares the CSV at threads 1 and 2
    config = job.check.args[0]

    def tampered():
        table = run_experiment(config)
        text = Path(config.out).read_text().splitlines()
        column = next(line for line in text if line.startswith("row_type,")).split(",").index("bayes_risk")
        row = text.index(next(line for line in text if line.startswith("replicate,0,")))
        fields = text[row].split(",")
        fields[column] = repr(float(fields[column]) + 1.0)
        text[row] = ",".join(fields)
        Path(config.out).write_text("\n".join(text) + "\n")
        return table

    assert _failed(workloads.Job("adaptive", tampered, job.check))


@pytest.mark.parametrize("tau,x", [(1e-6, 0.0), (1e-6, 5.5), (1e-2, 3.0), (1e-2, 25.0)])
def test_reference_agrees_with_mpmath(tau, x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        t, xv = mp.mpf(tau), mp.mpf(x)

        def part(power):
            def f(u):
                return (u / (1 + u)) ** power * (1 + u) ** mp.mpf("-0.5") * mp.e ** (
                    -xv * xv / 2 / (1 + u)) * t / (mp.pi * mp.sqrt(u) * (t * t + u))
            return mp.quad(f, [0, t * t, 1, 100, mp.inf])

        want = float(part(1) / part(0))
    got = reference.ReferenceCurve("horseshoe", {"tau": tau}).weight(x)
    assert abs(got - want) < 1e-10


def test_apportion_splits_concurrent_time():
    # Two threads overlap on [1, 3]: the overlap is split, so shares sum to the wall.
    share = tracing._apportion([(0.0, 3.0, "a"), (1.0, 4.0, "b")])
    assert share == pytest.approx({"a": 2.0, "b": 2.0})
    assert sum(share.values()) == pytest.approx(4.0)


def test_self_time_and_coverage():
    root = tracing.Span("bench", "job", None)
    outer = tracing.Span("shrinkage", "ShrinkageCurve.weight", root)
    inner = tracing.Span("quadrature", "integrate_unit_vec", outer)
    root.start, root.end = 0.0, 10.0
    outer.start, outer.end = 1.0, 9.0
    inner.start, inner.end = 2.0, 8.0
    totals = tracing.LayerTotals()
    totals.summarize(root, [root, outer, inner])
    metrics = totals.metrics(cycles=1)
    assert metrics["quadrature.self_share"] == pytest.approx(0.6)
    assert metrics["shrinkage.self_share"] == pytest.approx(0.2)
    assert metrics["trace.coverage"] == pytest.approx(0.8)
    assert metrics["quadrature.integrals"] == 1 and metrics["shrinkage.weight.evals"] == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == [
        list(m) for m in tracing.PER_LAYER]
    metrics = run.end_to_end([float(i) for i in range(1, 21)], list(range(20)), [1.0], 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in metrics.items()]
    assert [w["name"] for w in spec["workloads"]] == ["curve", "mc"]  # adaptive is run by hand
    assert set(run.WORKLOADS) == {"curve", "mc", "adaptive"}


def test_refuses_to_run_without_sources(workdir):
    shutil.copytree(HERE, Path(workdir) / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve", "--seed", "1", "--seconds", "1"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
