"""Counter-based random streams for schedule-invariant Monte Carlo.

Each (seed, replicate, stream) triple keys an independent Philox
generator, so replicate results never depend on execution order or on
how work is split across threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream identifiers; one per independent source of randomness.
STREAM_NOISE = 0
STREAM_TWO_GROUP = 1
STREAM_ESTIMATOR = 2

T = TypeVar("T")


def substream(seed: int, replicate: int = 0, stream: int = 0) -> np.random.Generator:
    """Return the generator keyed by (seed, replicate, stream)."""
    if replicate < 0 or stream < 0:
        raise ValueError("replicate and stream must be nonnegative")
    key = np.array(
        [seed & _MASK64, ((stream & 0xFFFF) << 48) | (replicate & ((1 << 48) - 1))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_replicates(
    fn: Callable[[int], T],
    replicates: int,
    threads: int = 1,
) -> list[T]:
    """Evaluate fn(0..replicates-1), optionally on a thread pool.

    Results are returned indexed by replicate, so serial and parallel
    schedules produce identical output.  The pool never has more
    workers than the process may run on at once.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    threads = min(threads, _usable_cpus())
    if threads <= 1 or replicates == 1:
        return [fn(i) for i in range(replicates)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(replicates)))


def split_draws(total: int, parts: int) -> Sequence[int]:
    """Deterministically split a draw budget into per-batch counts."""
    if total < 1 or parts < 1:
        raise ValueError("total and parts must be >= 1")
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]
