"""Deterministic, splittable random streams for reproducible simulation.

Every stream is a counter-based Philox4x64-10 generator identified by a
128-bit key.  Child keys are derived by hashing an index into the parent key
(splitmix64 chain, :func:`_fold_in`), so the stream used by run ``i`` of an
experiment depends only on the experiment seed and ``i`` -- never on
scheduling or worker count.  :func:`run_keys` derives the keys of the runs
of an estimate in vectorized folds (:func:`_fold_in_many`) with the same
arithmetic, and :class:`UniformTape` reads its runs' keys from that table.

A stream is a pure function of (key, counter): word ``j`` of the stream is
word ``j mod 4`` of the Philox block at counter ``j // 4 + 1``.  Every
uniform, scalar or on a tape, comes from :func:`_philox_words`, which moves
the Philox bit generator of its thread's one numpy ``Generator`` to the
(key, counter) asked for (no entropy is gathered) and lets
``Generator.random`` turn each word ``x`` into ``(x >> 11) * 2**-53``.  One
subtraction per block reflects that into ``1 - (x >> 11) * 2**-53`` in
(0, 1], so draw ``j`` equals ``1 - Generator(Philox(key=k)).random()`` at
position ``j``.
"""

from __future__ import annotations

import threading

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# scalar draws are converted _BLOCK at a time, the first _FIRST_BLOCK only:
# many streams (one sim_step, a short run) draw a few uniforms and no more
_BLOCK = 256
_FIRST_BLOCK = 16
_PHILOX_WORDS = 4  # 64-bit words per Philox4x64 block
_TAPE_ROWS = 128   # runs per block of tape uniforms; 64 made its transposing copy dearer
TAPE_CHUNK_STEPS = 256  # longest UniformTape chunk


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _fold_in(key: tuple[int, int], index: int) -> tuple[int, int]:
    """Derive a child key by hashing ``index`` into ``key``; order-sensitive."""
    if index < 0:
        raise ValueError(f"stream index must be non-negative, got {index}")
    h = _splitmix64(key[0] ^ _splitmix64((index + 1) & _MASK64))
    k0 = _splitmix64(h ^ key[1])
    k1 = _splitmix64((key[1] + h + index) & _MASK64)
    return k0, k1


def _splitmix64_many(x: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps modulo 2**64, as the masks do above
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def _fold_in_many(key: tuple[int, int], first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_fold_in(key, i)`` for ``i`` in ``first .. first + n - 1`` as two uint64 arrays."""
    if first < 0:
        raise ValueError(f"stream index must be non-negative, got {first}")
    index = np.arange(n, dtype=np.uint64) + np.uint64(first)
    k0 = np.uint64(key[0] & _MASK64)
    k1 = np.uint64(key[1] & _MASK64)
    h = _splitmix64_many(k0 ^ _splitmix64_many(index + np.uint64(1)))
    return _splitmix64_many(h ^ k1), _splitmix64_many(k1 + h + index)


def run_keys(segments) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the runs of consecutive ``(key, first, n)`` segments, in
    order: ``_fold_in(key, i)`` for ``i`` in ``first .. first + n - 1`` of
    each segment, as two uint64 arrays."""
    k0, k1 = zip(*(_fold_in_many(key, first, n) for key, first, n in segments))
    return np.concatenate(k0), np.concatenate(k1)


def tape_chunk(steps: int) -> int:
    """The steps a :class:`UniformTape` over ``steps`` steps draws at a time."""
    return max(1, min(TAPE_CHUNK_STEPS, steps))


_local = threading.local()  # each thread's one numpy Generator over a Philox bit generator


def _philox_words(keys, first: int, out: np.ndarray) -> np.ndarray:
    """The uniforms of words ``first ..`` of the stream of each key in
    ``keys``, into the rows of the float64 array ``out``, which it returns.
    Each row is ``Generator.random`` of its words, and the block is then
    reflected into (0, 1].  The thread's generator is made on first use, so
    importing this module does not import ``numpy.random``.  A ``first``
    inside a Philox block regenerates that block and skips the words before
    ``first``."""
    try:
        gen = _local.gen
    except AttributeError:
        from numpy.random import Generator, Philox

        gen = _local.gen = Generator(Philox(0))  # a fixed seed: no entropy is gathered
    bitgen = gen.bit_generator
    counter, skip = divmod(first, _PHILOX_WORDS)
    position = {"counter": [counter, 0, 0, 0], "key": None}
    state = {"bit_generator": "Philox", "state": position, "buffer": [0, 0, 0, 0],
             "buffer_pos": _PHILOX_WORDS, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(out, keys):
        position["key"] = key
        bitgen.state = state
        if skip:
            bitgen.random_raw(skip)
        gen.random(out=row)
    return np.subtract(1.0, out, out=out)


class RandomStream:
    """One private pseudo-random stream, not shared between concurrent runs:
    a key and a word count, refilled by :func:`_philox_words` on the
    generator of the thread that draws."""

    __slots__ = ("key", "_words", "_buf", "_pos")

    def __init__(self, key: tuple[int, int]):
        self.key = (key[0] & _MASK64, key[1] & _MASK64)
        self._words = 0
        self._buf: list[float] = []
        self._pos = 0

    @classmethod
    def from_seed(cls, seed: int) -> "RandomStream":
        """Root stream for an experiment; seed entropy is spread via SeedSequence."""
        k0, k1 = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        return cls((int(k0), int(k1)))

    @classmethod
    def resolve(cls, seed) -> "RandomStream":
        """``seed`` itself if it is a stream, else the root stream of the integer seed."""
        return seed if isinstance(seed, RandomStream) else cls.from_seed(int(seed))

    def child(self, index: int) -> "RandomStream":
        """Statistically independent stream derived from (this stream, index)."""
        return RandomStream(_fold_in(self.key, index))

    # -- scalar draws ------------------------------------------------------

    def uniform01(self) -> float:
        """Uniform double in (0, 1]."""
        if self._pos >= len(self._buf):
            size = _BLOCK if self._words else _FIRST_BLOCK
            self._buf = _philox_words((self.key,), self._words, np.empty((1, size)))[0].tolist()
            self._words += size
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high)."""
        return low + (high - low) * (1.0 - self.uniform01())

    def uniform_int(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ValueError(f"empty integer range [{low}, {high}]")
        span = high - low + 1
        return low + min(span - 1, int((1.0 - self.uniform01()) * span))


class UniformTape:
    """Chunked per-run uniform draws for lockstep simulation.

    Run ``i`` reads the stream of key ``i`` of ``keys``, the keys of a
    block as two uint64 arrays (:func:`run_keys`): the (0, 1] sequence its
    scalar :class:`RandomStream` would produce, ``draws_per_step`` values
    per step, one Fortran-ordered (n_runs, draws_per_step) array per call
    to :meth:`next_step`.

    Draws are made ``tape_chunk(steps)`` steps at a time, so a horizon
    shorter than a chunk draws only the steps it uses, into a new
    draw-major (steps, draws, n_runs) buffer, ``_TAPE_ROWS`` runs' uniforms
    at a time from :func:`_philox_words` on the thread's one generator.
    """

    def __init__(self, keys, n_runs: int, draws_per_step: int, steps: int):
        if draws_per_step < 1:
            raise ValueError("a tape needs draws_per_step >= 1")
        self._keys = list(zip(*(k.tolist() for k in keys)))
        self._draws = draws_per_step
        self._chunk = tape_chunk(steps)
        self._words = 0  # words each run has consumed before the buffered chunk
        self._buf: np.ndarray | None = None
        self._pos = 0

    def _fill(self) -> None:
        n, steps, draws = len(self._keys), self._chunk, self._draws
        self._buf = None  # the drawn chunk is not held while the next is drawn
        buf = np.empty((steps, draws, n), dtype=np.float64)
        rows_buf = np.empty((min(n, _TAPE_ROWS), steps * draws))
        for lo in range(0, n, _TAPE_ROWS):
            keys = self._keys[lo:lo + _TAPE_ROWS]
            rows = len(keys)
            u = _philox_words(keys, self._words, rows_buf[:rows])
            buf[:, :, lo:lo + rows] = u.reshape(rows, steps, draws).transpose(1, 2, 0)
        self._buf = buf
        self._words += steps * draws
        self._pos = 0

    def next_step(self) -> np.ndarray:
        """(n_runs, draws_per_step) uniforms in (0, 1] for the next step,
        one contiguous column per draw."""
        if self._buf is None or self._pos >= self._chunk:
            self._fill()
        u = self._buf[self._pos].T
        self._pos += 1
        return u
