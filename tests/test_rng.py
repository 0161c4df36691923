import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evometric
from evometric import rng
from evometric.rng import (
    _TAPE_ROWS,
    RandomStream,
    UniformTape,
    _fold_in_many,
    run_keys,
    tape_chunk,
)

words64 = st.integers(0, 2**64 - 1)
MASK64 = 2**64 - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def _fold_in(key: tuple[int, int], index: int) -> tuple[int, int]:
    """The child key of ``key`` at ``index`` in Python integers, one at a
    time: the oracle of ``_fold_in_many``."""
    h = _splitmix64(key[0] ^ _splitmix64((index + 1) & MASK64))
    return _splitmix64(h ^ key[1]), _splitmix64((key[1] + h + index) & MASK64)


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = RandomStream.from_seed(42)
        b = RandomStream.from_seed(42)
        assert [a.uniform01() for _ in range(2000)] == [b.uniform01() for _ in range(2000)]

    def test_child_streams_differ(self):
        root = RandomStream.from_seed(1)
        xs = [root.child(i).uniform01() for i in range(100)]
        assert len(set(xs)) == 100

    def test_child_is_order_sensitive(self):
        root = RandomStream.from_seed(5)
        a = root.child(1).child(2)
        b = root.child(2).child(1)
        assert a.key != b.key
        assert a.uniform01() != b.uniform01()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            RandomStream.from_seed(0).child(-1)


class TestDraws:
    def test_uniform01_in_half_open_interval(self):
        s = RandomStream.from_seed(7)
        xs = np.array([s.uniform01() for _ in range(10000)])
        assert (xs > 0).all() and (xs <= 1).all()

    def test_uniform_bounds(self):
        s = RandomStream.from_seed(8)
        xs = np.array([s.uniform(-2.0, 3.0) for _ in range(5000)])
        assert (xs >= -2.0).all() and (xs < 3.0).all()
        assert abs(xs.mean() - 0.5) < 0.1

    def test_uniform_int_inclusive(self):
        s = RandomStream.from_seed(10)
        xs = [s.uniform_int(0, 3) for _ in range(4000)]
        assert set(xs) == {0, 1, 2, 3}

    def test_uniform_int_empty_range(self):
        with pytest.raises(ValueError):
            RandomStream.from_seed(0).uniform_int(3, 2)


class TestBlockConsistency:
    def test_tape_matches_scalar_draws(self):
        base = RandomStream.from_seed(123)
        # rows 5..7 of a table of 8 runs
        keys = [words[5:] for words in run_keys([(base.key, 0, 8)])]
        tape = UniformTape(keys, n_runs=3, draws_per_step=2, steps=300)
        steps = [tape.next_step() for _ in range(300)]
        for i in range(3):
            s = base.child(5 + i)
            for t in range(300):
                assert steps[t][i, 0] == s.uniform01()
                assert steps[t][i, 1] == s.uniform01()


def _numpy_reference(key, n: int) -> np.ndarray:
    """n uniforms in (0, 1] straight from numpy's own Philox and Generator."""
    gen = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    return 1.0 - gen.random(n)


class TestStreamEquivalence:
    @given(k0=words64, k1=words64, first=words64, n=st.integers(1, 9))
    @settings(max_examples=100)
    def test_vectorized_fold_matches_scalar(self, k0, k1, first, n):
        first = min(first, 2**64 - n)
        v0, v1 = _fold_in_many((k0, k1), first, n)
        assert list(zip(v0.tolist(), v1.tolist())) == [
            _fold_in((k0, k1), first + i) for i in range(n)
        ]

    @given(k0=words64, k1=words64, index=words64)
    @settings(max_examples=50)
    def test_a_child_key_is_the_scalar_fold(self, k0, k1, index):
        assert RandomStream((k0, k1)).child(index).key == _fold_in((k0, k1), index)

    def test_vectorized_fold_rejects_negative_index(self):
        with pytest.raises(ValueError):
            _fold_in_many((1, 2), -1, 3)

    @pytest.mark.parametrize("draws", [1, 2, 3])
    @pytest.mark.parametrize("n_runs", [3, 69, _TAPE_ROWS + 5])
    @pytest.mark.parametrize("chunk_steps", [7, 256])
    def test_tape_matches_per_run_streams(self, draws, n_runs, chunk_steps, monkeypatch):
        # 69 runs fill one partial block, _TAPE_ROWS + 5 a full block and part
        # of a second; 2 full chunks and part of a third; a 7-step chunk of 1 or 3 draws
        # ends inside a Philox block, so the next chunk starts mid-block
        monkeypatch.setattr(rng, "TAPE_CHUNK_STEPS", chunk_steps)
        base = RandomStream.from_seed(2024)
        steps = 2 * chunk_steps + 5
        assert tape_chunk(steps) == chunk_steps
        tape = UniformTape(run_keys([(base.key, 11, n_runs)]), n_runs, draws, steps)
        got = []
        for _ in range(steps):
            u = tape.next_step()
            assert u.shape == (n_runs, draws) and u.flags.f_contiguous
            got.append(u)
        got = np.stack(got)
        for i in range(n_runs):
            s = base.child(11 + i)
            want = np.array([s.uniform01() for _ in range(steps * draws)])
            assert np.array_equal(got[:, i, :], want.reshape(steps, draws))

    def test_a_tape_over_run_keys_reads_each_segments_streams(self):
        # the tape reads rows 1..4 of the key table: run 4 of a, then runs
        # 0..2 of b; 7-step chunks over 20 steps
        a, b = RandomStream.from_seed(1).key, RandomStream.from_seed(2).key
        keys = [words[1:] for words in run_keys([(a, 3, 2), (b, 0, 3)])]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "TAPE_CHUNK_STEPS", 7)
            joint = UniformTape(keys, 4, 2, 20)
            alone = (UniformTape(run_keys([(a, 4, 1)]), 1, 2, 20),
                     UniformTape(run_keys([(b, 0, 3)]), 3, 2, 20))
        for _ in range(20):
            want = np.concatenate([tape.next_step() for tape in alone])
            assert np.array_equal(joint.next_step(), want)

    def test_a_tape_without_draws_returns_empty_blocks_and_draws_nothing(self, monkeypatch):
        calls = []
        words = rng._philox_words
        monkeypatch.setattr(rng, "_philox_words", lambda *args: calls.append(args) or words(*args))
        tape = UniformTape(run_keys([((1, 2), 0, 3)]), 3, draws_per_step=0, steps=5)
        for _ in range(5):
            assert tape.next_step().shape == (3, 0)
        assert calls == []

    @given(draws=st.integers(0, 3), n=st.sampled_from([1, 2, 5, _TAPE_ROWS + 3]),
           chunk=st.integers(1, 9), steps=st.integers(0, 20), first=st.integers(0, 50),
           data=st.data())
    @settings(max_examples=60)
    def test_rows_read_apart_equal_their_streams(self, draws, n, chunk, steps, first, data):
        # on each step some rows read process uniforms, one or more, then
        # every row reads its draws; short chunks refill the tape with the
        # rows at different positions, mostly inside a Philox block
        base = RandomStream.from_seed(first)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rng, "TAPE_CHUNK_STEPS", chunk)
            tape = UniformTape(run_keys([(base.key, first, n)]), n, draws, steps)
        streams = [base.child(first + i) for i in range(n)]
        readers = st.lists(st.integers(0, n - 1), max_size=2 * n)
        for _ in range(steps):
            for r in data.draw(readers):
                assert tape.uniform01(r) == streams[r].uniform01()
            u = tape.next_step()
            assert u.shape == (n, draws) and u.flags.f_contiguous
            assert u.tolist() == [[s.uniform01() for _ in range(draws)] for s in streams]

    @pytest.mark.parametrize("steps", [0, 1])
    def test_a_horizon_shorter_than_two_steps_draws_one_step_at_a_time(self, steps):
        # a chunk of 0 steps would draw nothing and could not be read
        assert tape_chunk(steps) == 1
        base = RandomStream.from_seed(9)
        tape = UniformTape(run_keys([(base.key, 0, 2)]), 2, 3, steps)
        got = np.stack([tape.next_step() for _ in range(3)])
        for i in range(2):
            s = base.child(i)
            assert got[:, i, :].tolist() == [[s.uniform01() for _ in range(3)] for _ in range(3)]

    @given(k0=words64, k1=words64)
    @settings(max_examples=30)
    def test_stream_equals_numpy_generator(self, k0, k1):
        s = RandomStream((k0, k1))
        got = np.array([s.uniform01() for _ in range(600)])
        assert np.array_equal(got, _numpy_reference((k0, k1), 600))

    @given(k0=words64, k1=words64, offset=st.integers(0, 2**40), draws=st.integers(1, 3))
    @settings(max_examples=30)
    def test_tape_equals_numpy_generator(self, k0, k1, offset, draws):
        tape = UniformTape(run_keys([((k0, k1), offset, 2)]), 2, draws, 300)
        got = np.stack([tape.next_step() for _ in range(300)])  # crosses a chunk
        for i in range(2):
            want = _numpy_reference(_fold_in((k0, k1), offset + i), 300 * draws)
            assert np.array_equal(got[:, i, :], want.reshape(300, draws))


class TestWordSource:
    """Every word comes from one routine on a per-thread bit generator."""

    @staticmethod
    def _draw(seed: int, steps: int) -> list:
        # a 7-step tape of 3 draws starts most chunks inside a Philox block,
        # and the scalar stream refills between the tape's fills
        tape = UniformTape(run_keys([(RandomStream.from_seed(seed).key, 0, _TAPE_ROWS + 3)]),
                           _TAPE_ROWS + 3, 3, steps)
        stream = RandomStream.from_seed(seed + 1)
        out = []
        for _ in range(steps):
            out.append(tape.next_step().tobytes())
            out.append([stream.uniform01() for _ in range(13)])
        return out

    def test_threads_draw_what_one_thread_draws(self, monkeypatch):
        monkeypatch.setattr(rng, "TAPE_CHUNK_STEPS", 7)
        seeds = range(100, 108, 2)  # four threads
        want = {seed: self._draw(seed, 60) for seed in seeds}
        got = {}

        def worker(seed):
            got[seed] = self._draw(seed, 60)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want

    def test_a_pickled_stream_continues_its_sequence(self):
        s = RandomStream.from_seed(77)
        head = [s.uniform01() for _ in range(21)]  # past the first refill, mid-buffer
        copy = pickle.loads(pickle.dumps(s))
        tail = [copy.uniform01() for _ in range(600)]
        assert tail == [s.uniform01() for _ in range(600)]
        fresh = RandomStream(s.key)
        assert head + tail == [fresh.uniform01() for _ in range(621)]

    def test_importing_the_package_does_not_import_numpy_random(self):
        src = Path(evometric.__file__).resolve().parents[1]
        code = "import sys, evometric; print('numpy.random' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True)
        assert done.stdout.strip() == "False"
