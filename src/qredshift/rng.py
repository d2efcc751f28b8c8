"""Counter-based random streams for reproducible shot sampling.

Shot i of a run consumes uniform u_i that depends only on (seed, i); a seed
is a Philox key, an integer in [0, 2^128): a seed out of range, or a
negative count or start, raises ValueError, and a seed, count or index
that is not an integer (a bool included) TypeError.
Streams are Philox counter-based: a worker can open the same stream at any
offset and reproduce the tail bit for bit, so chunked or parallel shot
loops give the same outcomes as a sequential one. `count_below` uses that
to split a count over the CPUs the process may run on; its result, and so
every output of the package, does not depend on how many there are.

A stream opens from its key alone: no OS entropy is drawn, and
numpy.random is imported on the first open rather than with the package.
`count_below` compares raw Philox words with an integer limit instead of
converting them to doubles first; `shot_uniforms` keeps the doubles and
is the independent reference the count is tested against.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from .gravity import _index

__all__ = ["shot_uniforms", "count_below", "substream_seed"]

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1

# Philox emits 4 uint64 words per counter increment; Generator.random()
# consumes one word w per double and returns (w >> 11) * 2**-53.
_WORDS_PER_BLOCK = 4

# Shots per chunk of count_below: 2 MB of uint64 words shared among its
# ranges, about one L2 cache, so the count runs in fixed memory whatever
# the shot count.
_COUNT_CHUNK = 1 << 18

# CPUs this process may run on, read once: count_below splits a count into
# at most this many ranges.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _key_sequence() -> type:
    """The seed-sequence class that hands Philox its key, defined on first use.

    `np.random.Philox(key=k)` first builds `SeedSequence(None)`, which draws
    and hashes OS entropy only to throw it away; that is over half the cost
    of opening a stream. Philox seeded from this class reads the key words
    from `generate_state(2, np.uint64)` instead, and its state is the same.
    The import stays here so that importing the package leaves numpy.random
    (about 17 ms) unloaded.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySequence(ISeedSequence):
        def __init__(self, key: int) -> None:
            self.words = np.array([key & _WORD_MASK, key >> 64], dtype=np.uint64)  # key < 2^128, low word first

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            return self.words  # Philox asks only for its 2 uint64 key words

    return KeySequence


def _check_seed(seed: int) -> int:
    """A run's seed is a Philox key: an integer in [0, 2^128), never masked into range; returned as an int."""
    seed = _index(seed, "seed")
    if not 0 <= seed <= _KEY_MASK:
        raise ValueError(f"seed must be in [0, 2^128), got {seed}")
    return seed


def _philox(seed: int, start: int) -> np.random.Philox:
    """Philox bit generator keyed by `seed`, positioned at word `start` >= 0."""
    blocks, rem = divmod(start, _WORDS_PER_BLOCK)
    bitgen = np.random.Philox(_key_sequence()(seed), counter=blocks)
    if rem:
        bitgen.random_raw(rem)
    return bitgen


def shot_uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms [start, start + count) of the stream keyed by `seed`."""
    seed, count, start = _check_seed(seed), _index(count, "count", 0), _index(start, "start", 0)
    return np.random.Generator(_philox(seed, start)).random(count)


def _count_range(seed: int, start: int, end: int, size: int, limit: np.uint64, stop: list) -> int:
    """How many of words [start, end) of the stream are < `limit`, drawn `size` at a time.

    The Philox state carries over between calls, so consecutive chunks
    continue the same sequence. Returns early, with a partial count, once
    `stop` is non-empty, and makes it non-empty before raising an error.
    """
    try:
        bitgen = _philox(seed, start)
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
    every seed, count and threshold, and the same integer whatever the
    number of CPUs. A seed outside [0, 2^128) raises at any count.

    A threshold p <= 0 or NaN counts none and p >= 1 counts all, with no
    draw. Otherwise the raw Philox words w are compared, not the doubles:
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
    seed, index = _check_seed(seed), _index(index, "index")
    if not 0 <= index <= _WORD_MASK:
        raise ValueError(f"index must be in [0, 2^64), got {index}")
    return _seed_hash(seed) ^ index
