"""Counter-based random streams for reproducible shot sampling.

Shot i of a run consumes uniform u_i that depends only on (seed, i).
Streams are Philox counter-based: a worker can open the same stream at any
offset and reproduce the tail bit for bit, so chunked or parallel shot
loops give the same outcomes as a sequential one.
"""

from __future__ import annotations

import numpy as np

__all__ = ["shot_stream", "shot_uniforms", "count_below", "substream_seed"]

_KEY_MASK = (1 << 128) - 1
_WORD_MASK = (1 << 64) - 1

# Philox emits 4 uint64 words per counter increment; Generator.random()
# consumes one word per double.
_WORDS_PER_BLOCK = 4

# Uniforms per chunk of count_below: a 2 MB float64 buffer, about one L2
# cache, so the count runs in fixed memory whatever the shot count.
_COUNT_CHUNK = 1 << 18


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


def count_below(seed: int, count: int, threshold: float) -> int:
    """How many of uniforms [0, count) of the stream keyed by `seed` are < `threshold`.

    Equal to np.count_nonzero(shot_uniforms(seed, count) < threshold) for
    every seed and count, but drawn in fixed-size chunks into one buffer:
    Generator.random takes one Philox word per double and the Philox state
    carries over between calls, so consecutive chunks continue the same
    sequence.
    """
    stream = shot_stream(seed)
    buffer = np.empty(min(count, _COUNT_CHUNK))
    below = 0
    for start in range(0, count, _COUNT_CHUNK):
        chunk = buffer[: min(_COUNT_CHUNK, count - start)]
        stream.random(out=chunk)
        below += int(np.count_nonzero(chunk < threshold))
    return below


def substream_seed(seed: int, index: int) -> int:
    """Independent child seed for run `index` of a batch (sweep point, repeated trial)."""
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    return ((seed & _WORD_MASK) << 64) | (index & _WORD_MASK)
