"""Deterministic, splittable random streams for reproducible simulation.

Every stream is a counter-based Philox4x64-10 generator identified by a
128-bit key.  Child keys are derived by hashing an index into the parent key
(splitmix64 chain, :func:`_fold_in`), so the stream used by run ``i`` of an
experiment depends only on the experiment seed and ``i`` -- never on
scheduling or worker count.  :func:`run_keys` derives the keys of the runs
of an estimate in vectorized folds (:func:`_fold_in_many`) with the same
arithmetic, and :class:`UniformTape` reads its runs' keys from that table.

A stream is a pure function of (key, counter): word ``j`` of the stream is
word ``j mod 4`` of the Philox block at counter ``j // 4 + 1``.  The numpy
bit generator is seeded with the key directly (no entropy is gathered) and
used only as a source of raw 64-bit words.  A word ``x`` becomes the uniform
``1 - (x >> 11) * 2**-53`` in (0, 1], numpy's ``Generator.random`` rule
reflected, so draw ``j`` equals ``1 - Generator(Philox(key=k)).random()``
at position ``j``.  Vectorized runs reposition one bit generator per run
instead of building a generator for each run; that changes the cost of a
stream, not its draws.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# scalar draws are converted _BLOCK at a time, the first _FIRST_BLOCK only:
# many streams (one sim_step, a short run) draw a few uniforms and no more
_BLOCK = 256
_FIRST_BLOCK = 16
_TWO_M53 = 2.0 ** -53
_PHILOX_WORDS = 4  # 64-bit words per Philox4x64 block
_TAPE_ROWS = 64    # runs converted per block in UniformTape
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


@functools.cache
def _key_seed_type() -> type:
    """An ``ISeedSequence`` that hands a fixed key to ``np.random.Philox``.

    ``Philox(key=k)`` first builds a ``SeedSequence`` from OS entropy, which
    costs more than the rest of the construction.  The type is made on first
    use so that importing this module does not import ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class KeySeed(ISeedSequence):
        def __init__(self, key: tuple[int, int]):
            self.key = np.array(key, dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for exactly its two 64-bit key words

    return KeySeed


def _philox(key: tuple[int, int]) -> np.random.Philox:
    """Philox4x64-10 bit generator at counter 0; same state as ``Philox(key=key)``."""
    return np.random.Philox(_key_seed_type()(key))


def _uniforms01(raw: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1] from raw words, ``1 - (x >> 11) * 2**-53``: numpy's
    ``Generator.random`` rule, reflected.  Converts ``raw`` in place and
    returns its memory viewed as float64."""
    u = raw.view(np.float64)
    np.right_shift(raw, np.uint64(11), out=raw)
    np.multiply(raw, _TWO_M53, out=u)
    return np.subtract(1.0, u, out=u)


class RandomStream:
    """One private pseudo-random stream; not shared between concurrent runs."""

    __slots__ = ("key", "_bitgen", "_buf", "_pos")

    def __init__(self, key: tuple[int, int]):
        self.key = (key[0] & _MASK64, key[1] & _MASK64)
        self._bitgen = _philox(self.key)
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
            size = _BLOCK if self._buf else _FIRST_BLOCK
            self._buf = _uniforms01(self._bitgen.random_raw(size)).tolist()
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

    Run ``i`` reads the stream of key ``i`` of ``keys``, the ``n_runs``
    keys of a block as two uint64 arrays (:func:`run_keys`): the (0, 1]
    sequence its scalar RandomStream would produce, ``draws_per_step``
    values per step, one contiguous (n_runs, draws_per_step) array per
    call to :meth:`next_step`.

    Draws are made ``tape_chunk(steps)`` steps at a time, so a horizon
    shorter than a chunk draws only the steps it uses, into a new
    step-major buffer of which :meth:`next_step` returns one row per step.
    For each chunk a single Philox bit generator is moved to every run's
    (key, counter) in turn; its raw words are converted in blocks of
    ``_TAPE_ROWS`` runs.
    """

    def __init__(self, keys, n_runs: int, draws_per_step: int, steps: int):
        if draws_per_step < 1:
            raise ValueError("a tape needs draws_per_step >= 1")
        self._keys = list(zip(*(k.tolist() for k in keys)))
        self._bitgen = _philox((0, 0))
        self._draws = draws_per_step
        self._chunk = tape_chunk(steps)
        self._words = 0  # words each run has consumed before the buffered chunk
        self._buf: np.ndarray | None = None
        self._pos = 0

    def _fill(self) -> None:
        n, steps, draws = len(self._keys), self._chunk, self._draws
        self._buf = None  # the drawn chunk is not held while the next is drawn
        buf = np.empty((steps, n, draws), dtype=np.float64)
        per_run = steps * draws
        # a chunk may end inside a Philox block: the next one regenerates
        # that block and skips the words already drawn from it
        counter, skip = divmod(self._words, _PHILOX_WORDS)
        position = {"counter": [counter, 0, 0, 0], "key": None}
        state = {"bit_generator": "Philox", "state": position, "buffer": [0, 0, 0, 0],
                 "buffer_pos": _PHILOX_WORDS, "has_uint32": 0, "uinteger": 0}
        bitgen = self._bitgen
        raw = np.empty((min(n, _TAPE_ROWS), per_run), dtype=np.uint64)
        # one opaque item per (step, run) holds that step's draws, so the
        # run-major -> step-major copy moves whole steps, not single doubles
        step_item = np.dtype((np.void, 8 * draws))
        by_step = buf.view(step_item).reshape(steps, n)
        for lo in range(0, n, _TAPE_ROWS):
            keys = self._keys[lo:lo + _TAPE_ROWS]
            rows = len(keys)
            for i, key in enumerate(keys):
                position["key"] = key
                bitgen.state = state
                if skip:
                    bitgen.random_raw(skip)
                raw[i] = bitgen.random_raw(per_run)
            u = _uniforms01(raw[:rows])
            by_step[:, lo:lo + rows] = u.view(step_item).reshape(rows, steps).T
        self._buf = buf
        self._words += per_run
        self._pos = 0

    def next_step(self) -> np.ndarray:
        """(n_runs, draws_per_step) uniforms in (0, 1] for the next step."""
        if self._buf is None or self._pos >= self._chunk:
            self._fill()
        u = self._buf[self._pos]
        self._pos += 1
        return u
