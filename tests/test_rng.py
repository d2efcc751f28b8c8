"""Shot streams: determinism, chunk independence and the pinned PCG64DXSM words."""

import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qredshift
from qredshift import rng
from qredshift.rng import shot_uniforms, substream_seed

OUTSIDE_THE_KEY_RANGE = (-1, 2**128, -(2**128), 2**200 + 17)

# Integer arguments given as 5: numpy integers act as the int, anything else (a bool too) raises one TypeError.
FIVES = (np.int64(5), np.uint8(5), 5.0, np.float64(5.0), "5", True)


def check_integer_argument(call, args, position, name, value):
    """call(*args) with args[position], a 5, replaced by `value`: a numpy integer gives call(*args)'s
    result, anything else one TypeError naming `name`."""
    changed = (*args[:position], value, *args[position + 1 :])
    if isinstance(value, np.integer):
        np.testing.assert_array_equal(call(*changed), call(*args))
    else:
        with pytest.raises(TypeError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
            call(*changed)


def test_same_seed_same_stream():
    a = shot_uniforms(42, 1000)
    b = shot_uniforms(42, 1000)
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    assert not np.array_equal(shot_uniforms(1, 100), shot_uniforms(2, 100))


@pytest.mark.parametrize("start", [0, 1, 2, 3, 4, 5, 7, 63, 64, 400, 401, 999])
def test_chunked_generation_matches_sequential(start):
    # shot i's uniform depends only on (seed, i), not on how draws are batched
    full = shot_uniforms(7, 1000)
    tail = shot_uniforms(7, 1000 - start, start=start)
    np.testing.assert_array_equal(full[start:], tail)


def test_split_into_chunks_reassembles():
    full = shot_uniforms(123, 10_000)
    chunks = [shot_uniforms(123, 2_500, start=i * 2_500) for i in range(4)]
    np.testing.assert_array_equal(full, np.concatenate(chunks))


def test_stream_positioning():
    # a stream opened at word 10 continues the one opened at word 0
    np.testing.assert_array_equal(rng._stream(9, 10).random_raw(5), rng._stream(9, 0).random_raw(15)[10:])


@pytest.mark.parametrize("seed", [0, 1, 2**64, 2**127 - 1, 2**128 - 1])
@pytest.mark.parametrize("start", [0, 1, 3, 4, 5, 1001])
def test_stream_opens_like_a_seed_sequence(seed, start):
    # numpy's own seeding, advanced word by word rather than by a jump, is the independent reference
    reference = np.random.PCG64DXSM(np.random.SeedSequence(seed))
    reference.random_raw(start)
    expected = reference.random_raw(64)
    np.testing.assert_array_equal(rng._stream(seed, start).random_raw(64), expected)


def test_stream_words_and_counts_are_pinned():
    # numpy promises no stream stability across versions (NEP 19): an upgrade that moves PCG64DXSM or
    # SeedSequence fails here by name, instead of silently moving every shot-derived golden byte
    assert rng._stream(1, 0).random_raw(4).tolist() == [
        5001773312344742047, 5153105853343410367, 9971774173010308333, 12558322679946729581]
    assert rng._stream(1, 2**64).random_raw(4).tolist() == [
        2398272300750431678, 16879211413133689025, 11587055355657949549, 1190426163158276572]
    for seed, count, threshold, below in [(0, 1000, 0.5, 486), (1, 10**5, 0.25, 25074),
                                          (2**127 - 1, 3 * 2**18 + 17, 0.7, 549923), (2**128 - 1, 10**6, 1e-3, 1036)]:
        assert rng.count_below(seed, count, threshold) == below, (seed, count, threshold)


def test_uniforms_are_the_doubles_of_the_words():
    # Generator.random() maps word w to (w >> 11) 2^-53
    words = rng._stream(2**100 + 3, 7).random_raw(1000)
    np.testing.assert_array_equal(shot_uniforms(2**100 + 3, 1000, start=7), (words >> np.uint64(11)) * 2.0**-53)


def test_import_leaves_numpy_random_and_the_thread_pool_unloaded():
    # numpy.random takes about 17 ms to import, and concurrent.futures loads only with a count split over
    # several ranges: the first stream opened, or the first split count, pays for them, not the import
    code = ("import sys, qredshift, qredshift.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('numpy.random', 'concurrent'))))")
    src = str(Path(qredshift.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True, timeout=60
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("seed", OUTSIDE_THE_KEY_RANGE)
def test_uniforms_reject_seed_outside_the_key_range(seed):
    # the same error as run_protocol's, never a key masked into range
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^128\), got {seed}$"):
        shot_uniforms(seed, 10)


@pytest.mark.parametrize("value", FIVES)
def test_uniforms_take_an_integer_seed(value):
    check_integer_argument(shot_uniforms, (5, 3), 0, "seed", value)


@pytest.mark.parametrize("value", FIVES)
@pytest.mark.parametrize("position, name", [(1, "count"), (2, "start")])
def test_uniforms_take_an_integer_count_and_start(position, name, value):
    check_integer_argument(shot_uniforms, (3, 5, 5), position, name, value)


def test_largest_seed_accepted():
    assert shot_uniforms(2**128 - 1, 10).shape == (10,)


def test_negative_start_rejected():
    with pytest.raises(ValueError, match=r"^start must be in \[0, 2\^128\), got -1$"):
        shot_uniforms(1, 5, start=-1)


def test_start_beyond_the_stream_rejected():
    # the last word of the stream is drawn; one past it is named, not advanced round to word 0
    assert shot_uniforms(1, 1, start=2**128 - 1)[0] == shot_uniforms(1, 2, start=2**128 - 2)[1]
    with pytest.raises(ValueError, match=rf"^start must be in \[0, 2\^128\), got {2**128}$"):
        shot_uniforms(1, 1, start=2**128)


def test_range_past_the_end_of_the_stream_rejected():
    # PCG64DXSM's word 2^128 is word 0 again: a range that ran past the end would repeat the stream's start
    assert shot_uniforms(1, 0, start=2**128 - 1).shape == (0,)
    with pytest.raises(ValueError, match=rf"^start \+ count must be <= 2\^128, .*got {2**128 - 1} \+ 2$"):
        shot_uniforms(1, 2, start=2**128 - 1)


def test_count_beyond_any_array_rejected():
    # named, not numpy's "Maximum allowed dimension exceeded" or "array is too big"
    for count in (2**60, 2**70):
        with pytest.raises(ValueError, match=rf"^count must be < 2\^60, .*got {count}$"):
            shot_uniforms(1, count)


def test_negative_count_rejected():
    # the error count_below gives, not numpy's "negative dimensions"
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        shot_uniforms(1, -1)


def test_substream_seeds_distinct():
    seeds = {substream_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert substream_seed(42, 0) != substream_seed(43, 0)


def test_substream_streams_independent():
    a = shot_uniforms(substream_seed(5, 0), 100)
    b = shot_uniforms(substream_seed(5, 1), 100)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("index", [-1, 2**64, 2**64 + 3])
def test_substream_rejects_index_outside_64_bits(index):
    # an index is never masked into range: 2^64 + 3 would otherwise repeat child 3
    with pytest.raises(ValueError, match=rf"index must be in \[0, 2\^64\), got {index}$"):
        substream_seed(1, index)


def test_substream_largest_index_gives_a_key():
    for seed in (0, 1, 2**128 - 1):
        child = substream_seed(seed, 2**64 - 1)
        assert 0 <= child < 2**128
        assert shot_uniforms(child, 1).shape == (1,)


@pytest.mark.parametrize("seed", [-1, 2**128, -(2**128)])
def test_substream_rejects_seed_outside_the_key_range(seed):
    with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^128\), got {seed}$"):
        substream_seed(seed, 0)


@pytest.mark.parametrize("value", FIVES)
@pytest.mark.parametrize("position, name", [(0, "seed"), (1, "index")])
def test_substream_takes_integer_arguments(position, name, value):
    check_integer_argument(substream_seed, (5, 5), position, name, value)


def test_substream_reads_every_seed_bit():
    # seeds that agree in their low 64 bits still have different children
    assert substream_seed(5 + 2**64, 3) != substream_seed(5, 3)
    assert substream_seed(2**128 - 1, 0) != substream_seed(2**64 - 1, 0)


def test_substream_children_of_one_seed_distinct():
    assert len({substream_seed(5, i) for i in range(10**5)}) == 10**5


class TestCountBelow:
    """`count_below` against the materialised stream, on every way of splitting it over CPUs."""

    SEEDS = (0, 2**127 - 1)
    THRESHOLDS = (0.0, 1e-300, 0.5, 1.0, float("nan"), float("inf"), float("-inf"))

    @pytest.fixture(params=[1, 2, 3, 5])
    def cpus(self, request, monkeypatch):
        monkeypatch.setattr(rng, "_CPUS", request.param)
        return request.param

    @staticmethod
    def counts(cpus):
        chunk = rng._COUNT_CHUNK
        return (0, 1, 4 * 1001 + 3, cpus * chunk - 1, cpus * chunk, cpus * chunk + 1, 3 * chunk + 17)

    def test_matches_materialised_stream(self, cpus):
        for seed in self.SEEDS:
            for count in self.counts(cpus):
                uniforms = shot_uniforms(seed, count)
                for threshold in self.THRESHOLDS:
                    expected = int(np.count_nonzero(uniforms < threshold))
                    assert rng.count_below(seed, count, threshold) == expected, (seed, count, threshold)

    def test_exact_at_the_boundaries(self, cpus):
        # the raw-word limit must put each drawn uniform, and its neighbours, on the same side as `<` does
        fixed = (5e-324, 2.0**-53, 1 - 2.0**-53, np.nextafter(1.0, 2.0), 2.0, -0.0)
        for seed in self.SEEDS:
            for count in (4 * 1001 + 3, cpus * rng._COUNT_CHUNK + 1):
                uniforms = shot_uniforms(seed, count)
                drawn = uniforms[np.linspace(0, count - 1, 9).astype(int)]
                thresholds = [*drawn, *np.nextafter(drawn, 0.0), *np.nextafter(drawn, 2.0), *fixed]
                for threshold in thresholds:
                    expected = int(np.count_nonzero(uniforms < threshold))
                    assert rng.count_below(seed, count, float(threshold)) == expected, (seed, count, threshold)

    @pytest.mark.parametrize("value", FIVES)
    @pytest.mark.parametrize("position, name", [(0, "seed"), (1, "count")])
    def test_integer_arguments(self, position, name, value):
        check_integer_argument(rng.count_below, (5, 5, 0.5), position, name, value)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
            rng.count_below(1, -1, 0.5)

    def test_count_past_the_end_of_the_stream_rejected(self):
        # 2^128 words is the whole stream; a larger count returned itself at a threshold of 1 or more
        assert rng.count_below(1, 2**128, 1.0) == 2**128 and rng.count_below(1, 2**128, 0.0) == 0
        for count in (2**128 + 1, 2**200):
            for threshold in (0.0, 0.5, 1.0, float("nan")):
                with pytest.raises(ValueError, match=rf"^count must be <= 2\^128, the end of the stream, got {count}$"):
                    rng.count_below(1, count, threshold)

    @pytest.mark.parametrize("seed", OUTSIDE_THE_KEY_RANGE)
    def test_seed_outside_the_key_range_rejected(self, cpus, seed):
        # whatever the count and threshold, including the ones that draw nothing
        for count in (-1, 0, 1, cpus * rng._COUNT_CHUNK):
            for threshold in (0.0, 0.5, 1.0, float("nan")):
                with pytest.raises(ValueError, match=rf"seed must be in \[0, 2\^128\), got {seed}$"):
                    rng.count_below(seed, count, threshold)

    def test_many_ranges_under_fast_thread_switching(self, monkeypatch):
        monkeypatch.setattr(rng, "_CPUS", 8)  # more ranges than this machine has cores, most likely
        count = 8 * rng._COUNT_CHUNK + 5
        expected = int(np.count_nonzero(shot_uniforms(11, count) < 0.25))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert rng.count_below(11, count, 0.25) == expected
        finally:
            sys.setswitchinterval(interval)

    def test_failing_range_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(rng, "_CPUS", 3)
        real = rng._stream

        def failing(seed, start):
            if start > 0:
                raise RuntimeError(f"range at {start} failed")
            return real(seed, start)

        monkeypatch.setattr(rng, "_stream", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="range at"):
            rng.count_below(1, 3 * rng._COUNT_CHUNK, 0.5)
        assert threading.active_count() == before

    def test_interrupt_stops_the_other_ranges(self, monkeypatch):
        monkeypatch.setattr(rng, "_CPUS", 2)
        real = rng._stream
        draws = []

        class CountingWords:
            def __init__(self, bitgen):
                self.bitgen = bitgen

            def random_raw(self, size):
                draws.append(size)
                return self.bitgen.random_raw(size)

        def interrupted(seed, start):
            if start == 0:
                raise KeyboardInterrupt
            return CountingWords(real(seed, start))

        monkeypatch.setattr(rng, "_stream", interrupted)
        before = threading.active_count()
        count = 10**9  # 5e8 shots for the other range: seconds of drawing if it ran to the end
        with pytest.raises(KeyboardInterrupt):
            rng.count_below(1, count, 0.5)
        assert threading.active_count() == before
        assert sum(draws) < count // 2 // 10

    def test_failing_range_stops_the_callers_range(self, monkeypatch):
        # the failing range itself must stop the others: the calling thread is busy counting its own
        monkeypatch.setattr(rng, "_CPUS", 2)
        real = rng._stream
        draws = []

        class CountingWords:
            def __init__(self, bitgen):
                self.bitgen = bitgen

            def random_raw(self, size):
                draws.append(size)
                return self.bitgen.random_raw(size)

        def failing(seed, start):
            if start > 0:
                raise RuntimeError(f"range at {start} failed")
            return CountingWords(real(seed, start))

        monkeypatch.setattr(rng, "_stream", failing)
        before = threading.active_count()
        count = 10**9  # 5e8 shots for the calling thread's range: seconds of drawing if it ran to the end
        with pytest.raises(RuntimeError, match="range at"):
            rng.count_below(1, count, 0.5)
        assert threading.active_count() == before
        assert sum(draws) < count // 2 // 10

    def test_buffers_total_one_chunk(self, monkeypatch):
        monkeypatch.setattr(rng, "_CPUS", 4)
        tracemalloc.start()
        try:
            rng.count_below(7, 10**7, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3_000_000
