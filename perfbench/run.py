"""shrinktest benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload curve --seed 1 --seconds 45 --trace 0

Workloads are ``curve`` and ``mc``, the two in BENCHMARK.json, and
``adaptive``, which is run by hand (see NOTES.md).  With ``--trace 0``
the last line holds the end-to-end metrics: throughput and median
latency of one cycle made of each job's fastest run in the run, set-up
as the median of five fresh interpreters (two before the measuring
process, two after), and peak memory.  With ``--trace 1`` it holds the
per-layer metrics of a traced run.  Every job's output is checked
against independent references, and a job that raises or fails its
check counts in ``failed``.  The lines before the last give the same
numbers for people, and a ``record`` line with the environment, job
counts and diagnostics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

from tracing import PER_LAYER

SETUPS_AROUND = 2  # set-up-only processes before and after the measuring one
DEADLINE_S = 170.0  # the whole run, all processes included
WORKLOADS = ("curve", "mc", "adaptive")
TAIL_BEYOND = 10
MIN_COVERAGE = 0.95  # share of each traced job's wall time the layer spans must account for


def tail(durations: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten jobs beyond it.

    Returns (value, percentile); the value is the (N-10)-th smallest of N.
    """
    n = len(durations)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} jobs for a tail, got {n}")
    return sorted(durations)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def best_per_slot(durations: list[float], slots: list[int]) -> list[float]:
    """Each job slot's fastest time in the run: one cycle, every job at its best.

    A slot is a job's place in the cycle; every cycle repeats the same call
    with fresh inputs of the same size.  The host slows down in phases, so
    the fastest repeat is the steadiest estimate of the job's cost.
    """
    best: dict[int, float] = {}
    for duration, slot in zip(durations, slots):
        best[slot] = min(duration, best.get(slot, math.inf))
    return [best[slot] for slot in sorted(best)]


def end_to_end(durations: list[float], slots: list[int], setups: list[float],
               peak_rss_mb: float) -> dict:
    best = best_per_slot(durations, slots)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(best) / math.fsum(best), "1/s"),
        "job_p50_s": (statistics.median(best), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def all_jobs(durations: list[float]) -> dict:
    """The same figures over every job as it ran, slow phases included; printed, not gated."""
    tail_s, tail_pct = tail(durations)
    return {
        "jobs_per_s": len(durations) / math.fsum(durations),
        "job_p50_s": statistics.median(durations),
        "job_tail_s": tail_s,
        "job_tail_percentile": tail_pct,
    }


class Child:
    """A worker process; records when it reports READY and its RESULT line."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.started = time.perf_counter()
        self.ready_s = None
        self.result = None
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
        remaining = max(deadline - time.perf_counter(), 0.0)
        self._timer = threading.Timer(remaining, self.proc.kill)
        self._timer.start()

    def wait(self) -> int:
        try:
            for line in self.proc.stdout:
                if line == "READY\n" and self.ready_s is None:
                    self.ready_s = time.perf_counter() - self.started
                elif line.startswith("RESULT "):
                    self.result = json.loads(line[len("RESULT "):])
                else:
                    sys.stderr.write(line)
            return self.proc.wait()
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "shrinktest", "__init__.py")):
        print(f"no shrinktest sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    worker = [sys.executable, os.path.join(root, "perfbench", "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    deadline = time.perf_counter() + DEADLINE_S

    setups = []

    def setup_only() -> bool:
        for _ in range(SETUPS_AROUND):
            child = Child(worker + ["--setup-only"], env, deadline)
            if child.wait() != 0 or child.ready_s is None:
                print("set-up failed", file=sys.stderr)
                return False
            setups.append(child.ready_s)
        return True

    if not args.trace and not setup_only():
        return 1
    child = Child(worker, env, deadline)
    code = child.wait()
    if code != 0 or child.result is None:
        print(f"benchmark process exited {code} without a result", file=sys.stderr)
        return 1
    result = child.result
    setups.append(child.ready_s)
    if not args.trace and not setup_only():
        return 1

    kinds = {}
    for kind in result["kinds"]:
        kinds[kind] = kinds.get(kind, 0) + 1
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(result["durations"]), "jobs_by_kind": kinds, "cycles": result["cycles"],
        "error_rate": result["failed"] / result["attempted"],
        "diagnostics": result["diagnostics"], "env": result["env"],
    }
    print(f"workload {args.workload}  seed {args.seed}  jobs {record['jobs']} "
          f"in {result['cycles']} cycles  {kinds}")
    if args.trace:
        metrics = {name: (result["layer"][name], unit) for name, unit, _ in PER_LAYER}
        for name, (value, unit) in metrics.items():
            print(f"  {name:38s} {value:12.6g} {unit}")
        coverage = result["layer"]["trace.coverage"]
        print(f"  coverage check: {'ok' if coverage >= MIN_COVERAGE else 'LOW'} "
              f"(every traced job has >= {coverage:.4f} of its wall time inside layer spans; "
              f"want >= {MIN_COVERAGE})")
    else:
        metrics = end_to_end(result["durations"], result["slots"], setups, result["peak_rss_mb"])
        record["setups_s"] = setups
        record["all_jobs"] = every = all_jobs(result["durations"])
        kind_of = dict(zip(result["slots"], result["kinds"]))
        record["best_s_by_slot"] = [[kind_of[slot], best] for slot, best in
                                    enumerate(best_per_slot(result["durations"], result["slots"]))]
        for name, (value, unit) in metrics.items():
            print(f"  {name:14s} {value:12.6g} {unit}")
        print(f"  {'':14s} jobs_per_s and job_p50_s are over one cycle of each job's fastest run; "
              f"setup_s is the median of {setups}")
        print(f"  every job as it ran ({record['jobs']} jobs, not gated):")
        print(f"  {'jobs_per_s':14s} {every['jobs_per_s']:12.6g} 1/s")
        print(f"  {'job_p50_s':14s} {every['job_p50_s']:12.6g} s")
        print(f"  {'job_tail_s':14s} {every['job_tail_s']:12.6g} s   "
              f"(p{every['job_tail_percentile']:.1f}: ten jobs lie beyond it)")
    print(f"  {'error_rate':14s} {record['error_rate']:12.6g}   "
          f"({result['failed']} of {result['attempted']} jobs failed)")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
