"""Counter-based random streams for schedule-invariant Monte Carlo.

Each (seed, replicate, stream) triple keys an independent Philox
generator, so replicate results never depend on execution order or on
how work is split across threads.  Philox is a keyed bijection of its
counter, so assigning a new key to an existing generator gives exactly
the stream of a fresh one: `substream` builds a fresh generator for a
one-off key, and `substreams` re-keys one generator per replicate.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

_REPLICATE_BITS = 48  # the low bits of the key's second word; the stream takes the top 16

# Stream identifiers; one per independent source of randomness.
STREAM_NOISE = 0
STREAM_TWO_GROUP = 1
STREAM_ESTIMATOR = 2

T = TypeVar("T")


def _key(seed: int, replicate: int, stream: int) -> list[int]:
    """The Philox key of (seed, replicate, stream): [seed, stream << 48 | replicate].

    A value outside its field would alias another key, so it is rejected.
    """
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2^64), got {seed!r}")
    if not 0 <= replicate < 1 << _REPLICATE_BITS:
        raise ValueError(f"replicate must lie in [0, 2^48), got {replicate!r}")
    if not 0 <= stream < 1 << (64 - _REPLICATE_BITS):
        raise ValueError(f"stream must lie in [0, 2^16), got {stream!r}")
    return [seed, stream << _REPLICATE_BITS | replicate]


def substream(seed: int, replicate: int = 0, stream: int = 0) -> np.random.Generator:
    """Return a fresh generator keyed by (seed, replicate, stream)."""
    key = np.array(_key(seed, replicate, stream), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substreams(
    seed: int, replicates: Iterable[int], stream: int = 0
) -> Iterator[np.random.Generator]:
    """Yield the generator of (seed, r, stream) for each r in replicates.

    One generator is built per call and re-keyed for each replicate: its
    key is set, its counter zeroed and its buffers emptied, so it draws
    exactly what substream(seed, r, stream) would.  A yielded generator
    stays valid until the next one is yielded.
    """
    key = [0, 0]
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bitgen = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    for replicate in replicates:
        key[:] = _key(seed, replicate, stream)
        bitgen.state = state
        yield gen


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_replicates(
    fn: Callable[[range], Sequence[T]],
    replicates: int,
    threads: int = 1,
) -> list[T]:
    """Evaluate replicates 0..replicates-1 as fn(chunk) over contiguous chunks.

    fn returns one result per replicate of its chunk, in order.  Serially
    the one chunk is range(replicates); on a pool each worker gets one
    contiguous chunk, so it can re-key one generator across it.  The pool
    never has more workers than the process may run on at once, and the
    results are indexed by replicate whatever the schedule.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    workers = min(threads, _usable_cpus(), replicates)
    if workers <= 1:
        return list(fn(range(replicates)))
    ends = list(accumulate(split_draws(replicates, workers)))
    chunks = [range(a, b) for a, b in zip([0] + ends, ends)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [result for chunk in pool.map(fn, chunks) for result in chunk]


def split_draws(total: int, parts: int) -> Sequence[int]:
    """Deterministically split a draw budget into per-batch counts."""
    if total < 1 or parts < 1:
        raise ValueError("total and parts must be >= 1")
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]
