"""Reproducible shot streams that any worker can open at any offset.

Shot i of a run consumes uniform u_i that depends only on (seed, i); a seed
is an integer in [0, 2^128), and a stream is numpy's PCG64DXSM seeded by
`SeedSequence(seed)`, whose `advance` jumps to any of its words [0, 2^128)
in O(log start) steps.  So chunked or parallel shot loops give the same
outcomes as a sequential one, and `count_below` splits a count over the
CPUs the process may run on with a result, and so package outputs, that
does not depend on how many there are.  A seed or a range out of bounds,
or a negative count, raises ValueError; a seed, count, start or index that
is not an integer (a bool included) TypeError.

No OS entropy is drawn, and numpy.random is imported on the first open
rather than with the package.  `count_below` compares raw words with an
integer limit; `shot_uniforms` keeps the doubles and is the independent
reference the count is tested against.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .gravity import _index

__all__ = ["shot_uniforms", "count_below", "substream_seed"]

# Shots per chunk of count_below: 2 MB of uint64 words shared among its
# ranges, about one L2 cache, so the count runs in fixed memory whatever
# the shot count.
_COUNT_CHUNK = 1 << 18

# CPUs this process may run on, read once: count_below splits a count into
# at most this many ranges.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _uint(value: int, name: str, bits: int) -> int:
    """`value` as an int in [0, 2^bits), never masked into range: ValueError naming it `name` outside."""
    value = _index(value, name)
    if value < 0 or value >> bits:
        raise ValueError(f"{name} must be in [0, 2^{bits}), got {value}")
    return value


def _check_seed(seed: int, name: str = "seed") -> int:
    """A run's seed: an integer in [0, 2^128), returned as an int."""
    return _uint(seed, name, 128)


def _stream(seed: int, start: int) -> np.random.PCG64DXSM:
    """The bit generator of the stream keyed by `seed`, positioned at word `start` >= 0."""
    bitgen = np.random.PCG64DXSM(np.random.SeedSequence(seed))
    if start:  # a count of one range opens at word 0, where the jump's 128-bit set-up is wasted
        bitgen.advance(start)
    return bitgen


def shot_uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms [start, start + count) of stream `seed`, each word w mapped to (w >> 11) 2^-53.

    A count of 2^60 or more, whose doubles no numpy array can hold, and a
    range past word 2^128, which would wrap to word 0, raise ValueError.
    """
    seed, count, start = _check_seed(seed), _index(count, "count", 0), _uint(start, "start", 128)
    if count >> 60:
        raise ValueError(f"count must be < 2^60, the most doubles one array holds, got {count}")
    if start + count > 1 << 128:
        raise ValueError(f"start + count must be <= 2^128, the end of the stream, got {start} + {count}")
    return np.random.Generator(_stream(seed, start)).random(count)


def _count_range(seed: int, start: int, end: int, size: int, limit: np.uint64, stop: list) -> int:
    """How many of words [start, end) of the stream are < `limit`, drawn `size` at a time.

    The generator's state carries over between calls, so consecutive chunks
    continue the same sequence. Returns early, with a partial count, once
    `stop` is non-empty, and makes it non-empty before raising an error.
    """
    try:
        bitgen = _stream(seed, start)
        below = 0
        for first in range(start, end, size):
            if stop:
                break
            below += int(np.count_nonzero(bitgen.random_raw(min(size, end - first)) < limit))
        return below
    except BaseException:
        stop.append(True)
        raise


def count_below(seed: int, count: int, threshold: float) -> int:
    """How many of uniforms [0, count) of the stream keyed by `seed` are < `threshold`.

    Equal to np.count_nonzero(shot_uniforms(seed, count) < threshold) for
    every seed, threshold and count that call takes, and the same integer
    whatever the number of CPUs. A seed outside [0, 2^128) or a count past
    2^128, the end of the stream, raises whatever the other arguments are.

    A threshold p <= 0 or NaN counts none and p >= 1 counts all, with no
    draw. Otherwise the raw words w are compared, not the doubles:
    u = (w >> 11) 2^-53 < p holds exactly when the integer w >> 11 is below
    ceil(p 2^53), that is when w < ceil(p 2^53) 2^11. Scaling by 2^53 is
    exact for every double, and p <= 1 - 2^-53 puts that limit at most
    (2^53 - 1) 2^11, inside a uint64.

    The count splits into one contiguous range per CPU, at least one chunk
    each, and `_count_range` counts each range in fixed-size chunks, so all
    chunks together hold `_COUNT_CHUNK` words. A count of one range is
    counted right here; otherwise the calling thread counts the first range
    and a thread pool the others. numpy draws and compares the words
    without holding the GIL. If a range fails or is interrupted, the others
    stop before their next chunk and the pool's exit joins them; the
    caller's own error is raised, else the first failed range's.
    """
    seed, count = _check_seed(seed), _index(count, "count", 0)
    if count > 1 << 128:
        raise ValueError(f"count must be <= 2^128, the end of the stream, got {count}")
    if not threshold > 0:
        return 0
    if threshold >= 1:
        return count
    limit = np.uint64(math.ceil(threshold * 2.0**53) << 11)
    workers = max(1, min(_CPUS, count // _COUNT_CHUNK))
    if workers == 1:
        return _count_range(seed, 0, count, _COUNT_CHUNK, limit, [])
    from concurrent.futures import ThreadPoolExecutor

    bounds = [count * index // workers for index in range(workers + 1)]
    size = _COUNT_CHUNK // workers
    stop: list[bool] = []  # every range ends at its next chunk once this is non-empty
    with ThreadPoolExecutor(workers - 1) as pool:
        try:
            others = [pool.submit(_count_range, seed, bounds[index], bounds[index + 1], size, limit, stop)
                      for index in range(1, workers)]
            return _count_range(seed, 0, bounds[1], size, limit, stop) + sum(other.result() for other in others)
        finally:  # also stops the ranges when a submit or a wait is interrupted
            stop.append(True)


@functools.lru_cache(maxsize=64)  # a batch derives every child from one seed: hash it once, not on every call
def _seed_hash(seed: int) -> int:
    from hashlib import blake2b  # numpy.random loads hashlib before any shot is drawn; the package does not

    return int.from_bytes(blake2b(seed.to_bytes(16, "little"), digest_size=16).digest(), "little")


def substream_seed(seed: int, index: int) -> int:
    """Child seed for run `index` in [0, 2^64) of a batch (sweep point, repeated trial).

    The child is the 128-bit BLAKE2b hash of all 128 bits of `seed` XOR
    `index`, so children of one seed are distinct.
    """
    seed, index = _check_seed(seed), _uint(index, "index", 64)
    return _seed_hash(seed) ^ index
