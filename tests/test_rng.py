import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometric.rng import _TAPE_ROWS, RandomStream, UniformTape, _fold_in, _fold_in_many

words64 = st.integers(0, 2**64 - 1)


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

    def test_normal_moments(self):
        s = RandomStream.from_seed(9)
        xs = np.array([s.normal(3.0, 0.5) for _ in range(100000)])
        assert abs(xs.mean() - 3.0) < 0.01
        assert abs(xs.std() - 0.5) < 0.01

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
        tape = UniformTape(base.key, n_runs=3, run_offset=5, draws_per_step=2)
        steps = [tape.next_step() for _ in range(300)]
        for i in range(3):
            s = base.child(5 + i)
            for t in range(300):
                assert steps[t][i, 0] == s.uniform01()
                assert steps[t][i, 1] == s.uniform01()

    def test_normal_matches_vector_formula(self):
        # the scalar Box-Muller must equal the array-side formula bit for bit
        base = RandomStream.from_seed(321)
        tape = UniformTape(base.key, n_runs=1, run_offset=0, draws_per_step=2)
        u = np.concatenate([tape.next_step() for _ in range(100)])
        z = np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
        s = base.child(0)
        zs = np.array([s.normal_std() for _ in range(100)])
        assert np.array_equal(z, zs)


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

    def test_vectorized_fold_rejects_negative_index(self):
        with pytest.raises(ValueError):
            _fold_in_many((1, 2), -1, 3)

    @pytest.mark.parametrize("draws", [1, 2, 3])
    @pytest.mark.parametrize("n_runs", [3, _TAPE_ROWS + 5])
    @pytest.mark.parametrize("chunk_steps", [7, 256])
    def test_tape_matches_per_run_streams(self, draws, n_runs, chunk_steps):
        # 2 full chunks and part of a third; a 7-step chunk of 1 or 3 draws
        # ends inside a Philox block, so the next chunk starts mid-block
        base = RandomStream.from_seed(2024)
        steps = 2 * chunk_steps + 5
        tape = UniformTape(base.key, n_runs, 11, draws, chunk_steps=chunk_steps)
        got = []
        for _ in range(steps):
            u = tape.next_step()
            assert u.shape == (n_runs, draws) and u.flags.c_contiguous
            got.append(u)
        got = np.stack(got)
        for i in range(n_runs):
            s = base.child(11 + i)
            want = np.array([s.uniform01() for _ in range(steps * draws)])
            assert np.array_equal(got[:, i, :], want.reshape(steps, draws))

    def test_tape_without_draws_rejected(self):
        with pytest.raises(ValueError):
            UniformTape((1, 2), 3, 0, draws_per_step=0)

    @given(k0=words64, k1=words64)
    @settings(max_examples=30)
    def test_stream_equals_numpy_generator(self, k0, k1):
        s = RandomStream((k0, k1))
        got = np.array([s.uniform01() for _ in range(600)])
        assert np.array_equal(got, _numpy_reference((k0, k1), 600))

    @given(k0=words64, k1=words64, offset=st.integers(0, 2**40), draws=st.integers(1, 3))
    @settings(max_examples=30)
    def test_tape_equals_numpy_generator(self, k0, k1, offset, draws):
        tape = UniformTape((k0, k1), 2, offset, draws)
        got = np.stack([tape.next_step() for _ in range(300)])  # crosses a chunk
        for i in range(2):
            want = _numpy_reference(_fold_in((k0, k1), offset + i), 300 * draws)
            assert np.array_equal(got[:, i, :], want.reshape(300, draws))
