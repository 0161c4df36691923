"""Deterministic, splittable random streams for reproducible simulation.

Every stream is a counter-based Philox4x64-10 generator identified by a
128-bit key.  Child keys are derived by hashing an index into the parent key
(a splitmix64 chain, :func:`_fold_in`), so the stream used by run ``i``
of an experiment depends only on the experiment seed and ``i`` -- never on
scheduling or worker count.  :meth:`RandomStream.child` folds one index,
:func:`run_keys` the indices of the runs of an estimate, and
:class:`UniformTape` reads its runs' keys from that table.

A stream is a pure function of (key, counter): word ``j`` of the stream is
word ``j mod 4`` of the Philox block at counter ``j // 4 + 1``.  Every
uniform, scalar or on a tape, comes from :func:`_philox_words`, which moves
the Philox bit generator of its thread's one numpy ``Generator`` to the
(key, counter) asked for, row by row (no entropy is gathered), and lets
``Generator.random`` turn each word ``x`` into ``(x >> 11) * 2**-53``.  One
subtraction per block reflects that into ``1 - (x >> 11) * 2**-53`` in
(0, 1], so draw ``j`` equals ``1 - Generator(Philox(key=k)).random()`` at
position ``j``.  Since a word depends on nothing but its key and position,
the rows of a tape may stand at different positions of their streams and
still read what their scalar streams would."""

from __future__ import annotations

import operator
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


def _splitmix64(x):
    """splitmix64 of a Python int or, element-wise, of a uint64 array; each
    step is masked to 64 bits, so both wrap alike, and a Python int input
    is taken modulo 2**64."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _fold_in(k0, k1, index):
    """The child key of the masked key (k0, k1) at ``index``, a Python int
    or a uint64 array of indices; the fold is order-sensitive."""
    h = _splitmix64(k0 ^ _splitmix64(index + 1))
    return _splitmix64(h ^ k1), _splitmix64(k1 + h + index)


def _fold_in_many(key: tuple[int, int], first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The child keys of ``key`` at indices ``first .. first + n - 1``, as
    two uint64 arrays."""
    if first < 0:
        raise ValueError(f"stream index must be non-negative, got {first}")
    index = np.arange(n, dtype=np.uint64) + np.uint64(first)
    return _fold_in(key[0] & _MASK64, key[1] & _MASK64, index)


def run_keys(segments) -> tuple[np.ndarray, np.ndarray]:
    """The keys of the runs of consecutive ``(key, first, n)`` segments, in
    order: the child keys of ``key`` at ``first .. first + n - 1`` of each
    segment, as two uint64 arrays."""
    k0, k1 = zip(*(_fold_in_many(key, first, n) for key, first, n in segments))
    return np.concatenate(k0), np.concatenate(k1)


def tape_chunk(steps: int) -> int:
    """The steps a :class:`UniformTape` over ``steps`` steps draws at a time."""
    return max(1, min(TAPE_CHUNK_STEPS, steps))


_local = threading.local()  # each thread's one numpy Generator over a Philox bit generator


def _philox_words(keys, first, out: np.ndarray) -> np.ndarray:
    """The uniforms of words ``first[i] ..`` of the stream of key ``i`` of
    ``keys``, into row ``i`` of the float64 array ``out``, which it returns.
    Each row is ``Generator.random`` of its words, and the block is then
    reflected into (0, 1].  The thread's generator is made on first use, so
    importing this module does not import ``numpy.random``.  A first word
    inside a Philox block regenerates that block and skips the words before
    it."""
    try:
        gen = _local.gen
    except AttributeError:
        from numpy.random import Generator, Philox

        gen = _local.gen = Generator(Philox(0))  # a fixed seed: no entropy is gathered
    bitgen = gen.bit_generator
    position = {"counter": None, "key": None}
    state = {"bit_generator": "Philox", "state": position, "buffer": [0, 0, 0, 0],
             "buffer_pos": _PHILOX_WORDS, "has_uint32": 0, "uinteger": 0}
    at = None
    for row, key, word in zip(out, keys, first):
        if word != at:  # the rows of a tape mostly share their position
            at = word
            counter, skip = divmod(word, _PHILOX_WORDS)
            position["counter"] = [counter, 0, 0, 0]
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
        index = operator.index(index)
        if index < 0:
            raise ValueError(f"stream index must be non-negative, got {index}")
        return RandomStream(_fold_in(*self.key, index))

    # -- scalar draws ------------------------------------------------------

    def uniform01(self) -> float:
        """Uniform double in (0, 1]."""
        if self._pos >= len(self._buf):
            size = _BLOCK if self._words else _FIRST_BLOCK
            self._buf = _philox_words((self.key,), (self._words,), np.empty((1, size)))[0].tolist()
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
    """Buffered uniform draws of a block of runs, each row on its own cursor.

    Row ``i`` reads the (0, 1] sequence of the stream of key ``i`` of
    ``keys`` (two uint64 arrays, :func:`run_keys`), as its scalar
    :class:`RandomStream` would.  :meth:`next_step` reads ``draws_per_step``
    words of every row, as one Fortran-ordered (n, draws_per_step) array;
    :meth:`uniform01` reads one word of one row, a process uniform.

    The buffer holds ``tape_chunk(steps) * max(1, draws_per_step)`` words
    per row, word-major, filled ``_TAPE_ROWS`` rows at a time by
    :func:`_philox_words`.  A read past a row's buffered words refills
    every row from its own cursor.  While the rows have read alike (the
    fast paths read whole steps only, so a horizon shorter than a chunk
    draws only the steps it uses) a step is a contiguous slice of the
    buffer; after process reads it is a gather until the next refill.
    Nothing is drawn before the first read, so a tape of 0 draws per step
    read by steps only draws nothing.  ``n_runs`` is not read; it stays
    because the benchmark's tracer (``perfbench/tracer.py``) reads it
    positionally.
    """

    def __init__(self, keys, n_runs: int, draws_per_step: int, steps: int):
        self._keys = list(zip(*(k.tolist() for k in keys)))
        self._draws = draws_per_step
        self._width = tape_chunk(steps) * max(1, draws_per_step)  # words a fill buffers per row
        self._base = [0] * len(self._keys)  # the stream word at each row's buffer position 0
        self._at: int | list = 0  # the buffer position of the next word, shared or per row
        self._buf = np.empty((0, len(self._keys)))

    def _fill(self) -> None:
        at = self._at
        first = ([b + at for b in self._base] if type(at) is int
                 else [b + a for b, a in zip(self._base, at)])
        n, width = len(self._keys), self._width
        self._buf = None  # the drawn words are not held while the next are drawn
        buf = np.empty((width, n), dtype=np.float64)
        rows_buf = np.empty((min(n, _TAPE_ROWS), width))
        for lo in range(0, n, _TAPE_ROWS):
            hi = lo + _TAPE_ROWS
            u = _philox_words(self._keys[lo:hi], first[lo:hi], rows_buf[:n - lo])
            buf[:, lo:lo + len(u)] = u.T
        self._buf, self._base, self._at = buf, first, 0

    def next_step(self) -> np.ndarray:
        """(n_runs, draws_per_step) uniforms in (0, 1] for the next step,
        one contiguous column per draw."""
        at, draws = self._at, self._draws
        if type(at) is int:
            if at + draws > len(self._buf):
                self._fill()
                at = 0
            self._at = at + draws
            return self._buf[at:at + draws].T
        if max(at) + draws > len(self._buf):
            self._fill()
            return self.next_step()
        pos = np.array(at)
        self._at = (pos + draws).tolist()
        return self._buf[pos + np.arange(draws)[:, None], np.arange(len(pos))].T

    def uniform01(self, row: int) -> float:
        """The next uniform in (0, 1] of row ``row`` alone."""
        at = self._at
        if type(at) is int:
            at = self._at = [at] * len(self._keys)
        if at[row] >= len(self._buf):
            self._fill()
            at = self._at = [0] * len(self._keys)
        a = at[row]
        at[row] = a + 1
        return float(self._buf[a, row])
