"""Counter-based random streams for reproducible shot sampling.

Shot i of a run consumes uniform u_i that depends only on (seed, i).
Streams are Philox counter-based: a worker can open the same stream at any
offset and reproduce the tail bit for bit, so chunked or parallel shot
loops give the same outcomes as a sequential one. `count_below` uses that
to split a count over the CPUs the process may run on; its result, and so
every output of the package, does not depend on how many there are.
"""

from __future__ import annotations

import os
import threading

import numpy as np

__all__ = ["shot_stream", "shot_uniforms", "count_below", "substream_seed"]

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1

# Philox emits 4 uint64 words per counter increment; Generator.random()
# consumes one word per double.
_WORDS_PER_BLOCK = 4

# Uniforms per chunk of count_below: 2 MB of float64 buffers shared among
# its ranges, about one L2 cache, so the count runs in fixed memory
# whatever the shot count.
_COUNT_CHUNK = 1 << 18

# CPUs this process may run on, read once: count_below splits a count into
# at most this many ranges.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def shot_stream(seed: int, start: int = 0) -> np.random.Generator:
    """Generator positioned so its next draw is uniform number `start` of the stream."""
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    bitgen = np.random.Philox(key=seed & _KEY_MASK)
    blocks, rem = divmod(start, _WORDS_PER_BLOCK)
    if blocks:
        bitgen.advance(blocks)
    if rem:
        bitgen.random_raw(rem)
    return np.random.Generator(bitgen)


def shot_uniforms(seed: int, count: int, start: int = 0) -> np.ndarray:
    """Uniforms [start, start + count) of the stream keyed by `seed`."""
    return shot_stream(seed, start).random(count)


def _count_range(seed: int, start: int, end: int, size: int, threshold: float, stop: list) -> int:
    """How many of uniforms [start, end) are < `threshold`, drawn `size` at a time into one buffer.

    Generator.random takes one Philox word per double and the Philox state
    carries over between calls, so consecutive chunks continue the same
    sequence. Returns early, with a partial count, once `stop` is non-empty.
    """
    stream = shot_stream(seed, start)
    buffer = np.empty(min(end - start, size))
    below = 0
    for first in range(start, end, size):
        if stop:
            break
        chunk = buffer[: min(size, end - first)]
        stream.random(out=chunk)
        below += int(np.count_nonzero(chunk < threshold))
    return below


def count_below(seed: int, count: int, threshold: float) -> int:
    """How many of uniforms [0, count) of the stream keyed by `seed` are < `threshold`.

    Equal to np.count_nonzero(shot_uniforms(seed, count) < threshold) for
    every seed and count, and the same integer whatever the number of CPUs.
    The count splits into one contiguous range per CPU, at least one chunk
    each, and `_count_range` counts each range in fixed-size chunks, so all
    buffers together hold `_COUNT_CHUNK` uniforms. A count of one range is
    counted right here, with no thread and no bookkeeping; otherwise the
    calling thread counts the first range and a thread started here counts
    each other one. numpy fills and compares the buffers without holding
    the GIL. If a range fails or is interrupted, the others stop before
    their next chunk and the first error is raised here.
    """
    workers = max(1, min(_CPUS, count // _COUNT_CHUNK))
    if workers == 1:
        return _count_range(seed, 0, count, _COUNT_CHUNK, threshold, [])
    bounds = [count * index // workers for index in range(workers + 1)]
    size = _COUNT_CHUNK // workers
    below = [0] * workers
    errors: list[BaseException] = []  # also the stop flag: ranges end at their next chunk once it is non-empty

    def count_range(index: int) -> None:
        try:
            below[index] = _count_range(seed, bounds[index], bounds[index + 1], size, threshold, errors)
        except BaseException as error:  # re-raised by the caller below
            errors.append(error)

    threads = [threading.Thread(target=count_range, args=(index,)) for index in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        count_range(0)
        for thread in threads:
            thread.join()
    except BaseException as error:  # a failed start or an interrupted join: stop the started ranges
        errors.append(error)
        raise
    if errors:
        raise errors[0]
    return sum(below)


def substream_seed(seed: int, index: int) -> int:
    """Independent child seed for run `index` of a batch (sweep point, repeated trial)."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return ((seed & _WORD_MASK) << 64) | (index & _WORD_MASK)
