"""One benchmark process: set up a workload, then run and check its jobs.

Started by run.py with ``src`` on PYTHONPATH.  It prints ``READY`` once
set-up (import, preparation, one warm-up job) is done; with
``--setup-only`` it stops there.  Otherwise it runs whole cycles of jobs
until their timed total reaches ``--seconds`` and prints one ``RESULT``
line of JSON.  With ``--trace 1`` each job runs twice on the same
inputs, untraced and then traced, so the per-layer numbers and the
tracing overhead come from the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
import warnings

DIAGNOSTICS = ("shrinkage.max_abs_err", "shrinkage.threshold.max_roundtrip_err",
               "priors.c2_max_rel_err", "priors.c2_mismatched_priors")
MIN_CYCLES = 3  # every job slot runs at least this often; the tail needs ten jobs beyond it
WALL_CAP_S = 110.0  # stop starting jobs after this long, whatever the mix


def environment(root: str) -> dict:
    import numpy as np
    import scipy

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_job(job, tracer=None, totals=None) -> tuple[float, bool]:
    """Time one job, then check it untimed; returns (seconds, passed)."""
    ok = True
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = job.run()
        else:
            out = traced_run(job, tracer, totals)
    except Exception:
        print(f"job {job.kind} raised:\n{traceback.format_exc()}", file=sys.stderr)
        ok = False
    elapsed = time.perf_counter() - t0 if tracer is None else totals.last_wall
    if ok:
        try:
            job.check(out)
        except Exception as exc:
            print(f"job {job.kind} failed its check: {exc}", file=sys.stderr)
            ok = False
    return elapsed, ok


def traced_run(job, tracer, totals):
    """Run a job under the tracer and fold its spans into the totals."""
    from scipy.integrate import IntegrationWarning

    tracer.spans = []
    tracer.on = True
    try:
        with warnings.catch_warnings(record=True) as captured:
            warnings.simplefilter("always", IntegrationWarning)
            return tracer.run("bench", "job", job.run)
    finally:
        tracer.on = False
        totals.summarize(tracer.spans[0], tracer.spans)
        totals.add("priors.warnings", sum(issubclass(w.category, IntegrationWarning) for w in captured))
        tracer.spans = []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import shrinktest  # noqa: F401  (import time belongs to set-up)
    from workloads import WORKLOADS

    root = os.getcwd()
    workdir = os.path.join(root, "perfbench", "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        workload.warmup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        return measure(workload, args, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another benchmark process is still using it


def measure(workload, args, root: str) -> int:
    tracer = totals = None
    if args.trace:
        import tracing

        tracer, totals = tracing.Tracer(), tracing.LayerTotals()
        tracing.install(tracer)
    durations, kinds, slots = [], [], []
    traced_s = untraced_s = 0.0
    attempted = failed = 0
    spent, cycles = 0.0, 0
    start = time.perf_counter()
    while (spent < args.seconds or cycles < MIN_CYCLES) and time.perf_counter() - start < WALL_CAP_S:
        for slot, job in enumerate(workload.cycle(cycles)):
            if time.perf_counter() - start >= WALL_CAP_S:
                break
            elapsed, ok = run_job(job)
            attempted, failed = attempted + 1, failed + (not ok)
            durations.append(elapsed)
            kinds.append(job.kind)
            slots.append(slot)
            spent += elapsed
            if tracer is not None:
                # The same inputs again, traced: jobs are pure given their inputs.
                traced, ok = run_job(job, tracer, totals)
                attempted, failed = attempted + 1, failed + (not ok)
                spent += traced
                traced_s += traced
                untraced_s += elapsed
        cycles += 1
    result = {
        "attempted": attempted,
        "failed": failed,
        "durations": durations,
        "kinds": kinds,
        "slots": slots,
        "cycles": cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "diagnostics": workload.diag,
        "env": environment(root),
    }
    if tracer is not None:
        layer = totals.metrics(cycles)
        for key in DIAGNOSTICS:
            layer[key] = workload.diag.get(key, 0.0)
        layer["trace.overhead_s"] = (traced_s - untraced_s) / cycles
        layer["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s if untraced_s else 0.0
        layer["trace.jobs"] = float(totals.jobs)
        result["layer"] = layer
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
