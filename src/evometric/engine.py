"""Simulation engine: configurations, trajectories, and empirical estimation.

One simulation step of a configuration <P, d, E> samples a support triple of
``pstep(P, d)`` with u in (0, 1] and the cumulative rule
``sum_{j<i} p_j < u <= sum_{j<=i} p_j``, applies the selected write effect to
d, then samples the environment on the result.  ``estimate`` runs N
independent trajectories on child random streams and collects, per time step,
the N sampled data states (the empirical evolution sequence);
``estimate_penalties`` reads the same runs through penalties at the
observation times without keeping the states, into a step-major (P, N, T)
array or, given a consumer, a step at a time.  When one fast-path block
holds every run, a step is handed over as soon as it is simulated, so a
caller that folds the steps (the robustness estimators fold W a chunk of
steps at a time) never holds the (P, N, T) block.

Every estimate is a table of rows, one per run: the run's stream key
(``rng.run_keys``) and the values it starts from.  ``estimate_penalties``
can stack several estimates of one process, each from its own data state
and seed, as segments of one table; a plain estimate is one segment, and a
call of several that fails is estimated again one segment at a time, so a
failure is reported as the first failing segment reports it alone.  Both
estimators share one run loop (``_run``), which simulates the table in
blocks of rows and hands each block's (n, nvars) values at steps 0..k to
the estimator.  A block is a slice of the table, its rows' keys and
initial values; a fast-path block holds as many rows as keep its draw
tape within ``_BLOCK_BYTES``, whatever the horizon.  Any split of the rows
gives the same bits, whatever the worker count, and so do the three
execution paths; the first that takes the configuration and the table
runs it:

* a per-model vectorized lockstep simulator attached to the configuration
  (the built-in models' hand-written numpy twins of their terms), in this
  process;
* the compiled program of the process (:mod:`.compiled`), in this process,
  when each of its reachable steps is a Dirac by construction and every
  initial data state is admissible (the compiler lists what it declines);
* the reference interpreter, which steps the process of each row as
  ``sim_step`` does, on the stream of the row's key, fanned out over a
  process pool (``_fan_out``) when threads > 1.

Whichever path moves the process, the configuration's one batch kernel
then steps the whole block (``EnvironmentEvolution.advance``, which also
clamps), and a failing process, a failing kernel or a NaN it produces is
reported alike, naming the run and the step.

The lockstep declines when its ``start`` raises ``PreconditionError``
because it is bound to another process term (for instance one advanced by
``sim_step``).  Each decline of a fast path is logged at DEBUG level with
its reason, and each call of ``_run`` logs the path that served it with its
runs and steps.
``use_fast_path=False`` (``--no-fast-path`` on the command line) skips both
fast paths and forces the interpreter.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .dataspace import DataSpace, DataState, PenaltyFunction
from .environment import EnvironmentEvolution
from .errors import PreconditionError, SimulationError, StructuralError
from .process import Process, pstep, validate
from .rng import RandomStream, run_keys, tape_chunk

__all__ = [
    "Configuration",
    "Trajectory",
    "EmpiricalEvolutionSequence",
    "sim_step",
    "simulate",
    "estimate",
    "estimate_penalties",
]

log = logging.getLogger(__name__)

# Issue kinds tolerated when a configuration is built with permissive
# validation (attack processes intentionally override controller writes).
_OVERLAP = ("write-overlap",)


@dataclass(frozen=True)
class Configuration:
    """A process, a data state, and an environment evolution.

    ``defs`` is the recursion table for process variables.  ``lockstep`` is
    an optional vectorized simulator provided by built-in models; it must be
    observationally identical to the reference interpreter.
    """

    process: Process
    data: DataState
    env: EnvironmentEvolution
    defs: dict = field(default_factory=dict)
    lockstep: object | None = field(default=None, compare=False)

    def validated(self, tolerate_write_overlap: bool = False) -> "Configuration":
        report = validate(self.process, self.defs, self.data.space)
        report.raise_if_invalid(tolerate=_OVERLAP if tolerate_write_overlap else ())
        return self

    def with_data(self, d: DataState) -> "Configuration":
        if d.space != self.data.space:
            raise StructuralError("replacement data state uses a different data space")
        return replace(self, data=d)

    @property
    def space(self) -> DataSpace:
        return self.data.space


@dataclass(frozen=True)
class Trajectory:
    """k+1 configurations of one sampled run; position 0 is the start."""

    configurations: tuple

    def __len__(self) -> int:
        return len(self.configurations)

    def __getitem__(self, i: int):
        return self.configurations[i]

    def __iter__(self):
        return iter(self.configurations)


def sim_step(c: Configuration, rng: RandomStream) -> Configuration:
    """One sampled step of a configuration: the process step, its write
    effect, then one environment sample."""
    effect, cont = _select(pstep(c.process, c.data, c.defs), rng)
    next_data = c.env.sample(c.data.update(effect), rng)
    return Configuration(cont, next_data, c.env, c.defs, c.lockstep)


def _select(dist, rng: RandomStream) -> tuple:
    """(effect, continuation) of the support triple selected by one uniform,
    which is not drawn for a Dirac: the choice does not depend on it, and the
    lockstep simulators draw none either."""
    triples = dist.triples
    if len(triples) == 1:
        return triples[0][1:]
    u = rng.uniform01()
    acc = 0.0
    for triple in triples:
        acc += triple[0]
        if u <= acc:
            return triple[1:]
    return triples[-1][1:]


def simulate(c: Configuration, k: int, rng: RandomStream) -> Trajectory:
    """Sample a k-step run; the trajectory has k+1 entries starting at ``c``."""
    if k < 0:
        raise PreconditionError(f"step count must be >= 0, got {k}")
    out = [c]
    cur = c
    for i in range(k):
        try:
            cur = sim_step(cur, rng)
        except Exception as exc:
            raise SimulationError(f"step {i}: {exc}", step=i) from exc
        out.append(cur)
    return Trajectory(tuple(out))


@dataclass
class EmpiricalEvolutionSequence:
    """N sampled data states per time step 0..k, as an (N, k+1, nvars) array."""

    space: DataSpace
    states: np.ndarray
    seed_key: tuple

    @property
    def runs(self) -> int:
        return self.states.shape[0]

    @property
    def horizon(self) -> int:
        return self.states.shape[1] - 1

    def mean_std(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-step mean and (N-1)-normalised std per variable, (k+1, nvars)."""
        mean = self.states.mean(axis=0)
        std = self.states.std(axis=0, ddof=1) if self.runs > 1 else np.zeros_like(mean)
        return mean, std

    def to_csv(self, path, meta: dict | None = None) -> None:
        """One row per (run, step): run, step, then variables in space order."""
        rows = ([run, step] + self.states[run, step].tolist()
                for run in range(self.runs) for step in range(self.horizon + 1))
        write_csv(path, meta, ["run", "step"] + list(self.space.names), rows)

    def summary_to_csv(self, path, meta: dict | None = None) -> None:
        """One row per (step, variable): mean and std over runs."""
        mean, std = self.mean_std()
        rows = ([step, name, mean[step, j], std[step, j]]
                for step in range(self.horizon + 1)
                for j, name in enumerate(self.space.names))
        write_csv(path, meta, ["step", "variable", "mean", "std"], rows)


def write_csv(path, header: dict | None, columns: Sequence[str], rows) -> None:
    """Write one result file as CSV.

    The format of every result file: when ``header`` is non-empty, a first
    line ``# `` followed by ``json.dumps(header, sort_keys=True)``; then the
    column names and one line per row, comma-separated with ``csv`` quoting
    and ``\\n``-terminated, in UTF-8.  A float cell (a Python or numpy float)
    is written as ``repr(float(v))``, the shortest text that reads back to
    the same bits, -0.0 included (numpy 2 would print a bare ``np.float64``
    as ``np.float64(...)``); any other cell as ``str(v)``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        w.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                     for v in row] for row in rows)


def write_json(path, payload: dict) -> None:
    """Write one result file as JSON: ``json.dumps(payload, sort_keys=True)``
    and a newline, in UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

# estimate keeps every step of every run; larger arrays are refused
_MAX_STATE_BYTES = 2e9
# interpreter runs advanced together (each holds a stream and its buffer)
_INTERP_ROWS = 256
# bytes of draw tape a fast-path block may hold: more runs are split over
# several blocks
_BLOCK_BYTES = 2**25


class _Table(NamedTuple):
    """The runs of one estimator call, one row each."""

    keys: tuple  # the stream key of each row, as two uint64 arrays
    initial: np.ndarray  # (N, nvars) initial values, not to be written
    data: tuple  # the data state of each segment, in row order


def _table(parts) -> _Table:
    """The rows of (data state, stream key, runs) segments: run i of a
    segment reads the child stream (key, i) and starts from its data."""
    values = np.array([d.values for d, _, _ in parts], dtype=np.float64)
    counts = [n for *_, n in parts]
    # one segment's rows are a view of one row
    initial = (np.broadcast_to(values, (counts[0], values.shape[1])) if len(parts) == 1
               else np.repeat(values, counts, axis=0))
    return _Table(run_keys([(key, 0, n) for _, key, n in parts]), initial,
                  tuple(d for d, _, _ in parts))


def estimate(
    c: Configuration,
    k: int,
    N: int,
    seed,
    threads: int = 1,
    use_fast_path: bool = True,
) -> EmpiricalEvolutionSequence:
    """N independent k-step runs; run i uses the child stream (seed, i).

    A failing run aborts the whole estimate (silently dropping runs would
    bias the empirical measure).  Results are bit-identical for any
    ``threads`` value and for either execution path.
    """
    _check_counts(k, N)
    need = N * (k + 1) * len(c.space) * 8
    if need > _MAX_STATE_BYTES:
        raise PreconditionError(
            f"full-state estimate would need {need/1e9:.1f} GB; "
            "use estimate_penalties for long horizons"
        )
    base = RandomStream.resolve(seed)
    states = _run(c, k, _table([(c.data, base.key, N)]), threads, use_fast_path,
                  _store_steps, lambda: np.empty((N, k + 1, len(c.space))))
    return EmpiricalEvolutionSequence(c.space, states, base.key)


def estimate_penalties(
    c: Configuration,
    k: int,
    N: int,
    seed,
    penalties: Sequence[PenaltyFunction],
    obs_times: Sequence[int],
    threads: int = 1,
    use_fast_path: bool = True,
    *,
    segments: Sequence[tuple] | None = None,
    consumer=None,
) -> np.ndarray | None:
    """Streaming estimate: per-run penalty values at the observation times.

    Returns an array of shape (len(penalties), N, len(obs_times)), laid
    out step-major: memory holds (len(penalties), len(obs_times), N), so
    ``out[p, :, j]`` is contiguous, each step writes one row and the W fold
    reads it back without a transpose.  Copy it where C order is needed.
    States are never materialised across the horizon, so this scales to
    long runs.

    ``segments``, a list of (data state, seed, runs) triples whose runs add
    up to N, stacks several estimates of ``c``'s process in one call: the
    rows of a segment are those of the estimate of ``c.with_data(data)``
    on its seed, and ``c.data`` and ``seed`` are not read.  Every path runs
    the rows of all segments together, which is cheaper than one estimate
    after another where a step's cost is mostly fixed, as it is for short
    segments.  When anything fails, each segment is estimated again alone,
    in order, so the failure raised is the first failing segment's.

    ``consumer``, when given, is called as ``consumer(j, row)`` for each
    observation time ``obs_times[j]``, in order, with the (len(penalties),
    N) penalties of that step (valid during the call only), and the call
    returns None.  When a fast path takes all N runs in one block (see
    ``_run``), the rows go to the consumer as their steps are simulated,
    so no array of the whole horizon is held.  Otherwise (the interpreter,
    or more runs than one block holds) the array is filled first and then
    handed over a column at a time.  The consumer sees column 0 again when
    a call of several segments failed after some of its steps were handed
    over and its segments are estimated again.
    """
    _check_counts(k, N)
    obs = list(obs_times)
    if any(t < 0 or t > k for t in obs):
        raise PreconditionError("observation times must lie in [0, k]")
    if len(set(obs)) < len(obs):
        raise PreconditionError("observation times must be distinct")
    parts = [(c.with_data(d).data, RandomStream.resolve(s).key, n)
             for d, s, n in ([(c.data, seed, N)] if segments is None else segments)]
    for *_, n in parts:
        _check_counts(k, n)
    if sum(n for *_, n in parts) != N:
        raise PreconditionError(f"the segments' runs do not add up to {N}")
    P, T = len(penalties), len(obs)
    out = _penalty_array(P, N, T) if consumer is None else None

    def hold():  # the (N, P, T) view of the array the blocks fill
        return np.moveaxis(_penalty_array(P, N, T) if out is None else out, 1, 0)

    fill = partial(_store_penalties, tuple(penalties), obs, c.space)
    try:
        held = _run(c, k, _table(parts), threads, use_fast_path, fill, hold, consumer)
    except Exception as exc:
        if len(parts) == 1:
            raise
        log.debug("%d segments failed, running them one by one: %s", len(parts), exc)
        held = hold()
        for part, dest in zip(parts, np.split(held, np.cumsum([n for *_, n in parts])[:-1])):
            _run(c, k, _table([part]), threads, use_fast_path, fill, lambda: dest)
    if out is None and held is not None:
        for j in range(T):
            consumer(j, held[:, :, j].T)
    return out


def _penalty_array(P: int, N: int, T: int) -> np.ndarray:
    """An empty (P, N, T) array laid out step-major, (P, T, N) in memory."""
    return np.empty((P, T, N), dtype=np.float64).transpose(0, 2, 1)


def _check_counts(k: int, N: int) -> None:
    if N < 1:
        raise PreconditionError(f"sample count must be >= 1, got {N}")
    if k < 0:
        raise PreconditionError(f"step count must be >= 0, got {k}")


def _store_steps(steps, dest: np.ndarray) -> None:
    for i, vals in enumerate(steps):
        dest[:, i, :] = vals


def _store_penalties(penalties, obs, space, steps, dest) -> None:
    """The fill of ``estimate_penalties``: hands the (P, n) penalties of a
    block's observed step to ``dest(j, row)``, j its observation index.
    An (n, P, T) array ``dest`` gets each row written to its column j."""
    if isinstance(dest, np.ndarray):
        dest = partial(_write_column, np.moveaxis(dest, 0, 1))
    col = {t: j for j, t in enumerate(obs)}
    row = None
    for i, vals in enumerate(steps):
        if i in col:
            if row is None:
                row = np.empty((len(penalties), len(vals)))
            for p, rho in enumerate(penalties):
                row[p] = rho.eval_batch(i, vals, space)
            dest(col[i], row)


def _write_column(out: np.ndarray, j: int, row: np.ndarray) -> None:
    out[:, :, j] = row


def _run(c, k, table, threads, use_fast_path, fill, hold, consumer=None):
    """The one run loop of both estimators, over the rows of ``table``.

    The rows are simulated in blocks of ``c``'s process, definitions and
    environment, each from its own initial values on its own stream, and
    ``fill(steps, dest)`` reduces each block, where ``steps`` yields the
    block's (n, nvars) values at steps 0..k.  A fast path (the model's
    lockstep simulator, else the compiled program) drives blocks of at
    least 64 runs whose draw tape, the one buffer that grows with the
    horizon, fits ``_BLOCK_BYTES``, in this process.  When ``use_fast_path``
    is off or both decline the configuration or its initial states, the
    interpreter runs the blocks, fanned out over ``threads`` workers.

    ``dest`` is the block's rows of ``hold()``, an array with the run axis
    first, which the call returns.  With a ``consumer``, when a fast path
    holds every row in one block, ``dest`` is the consumer, which gets each
    step as it is simulated, and the call holds nothing and returns None.

    Each block returns its first failing run instead of raising it, and the
    failure raised is the least (step, row) over all blocks, so it does not
    depend on how the rows were split into blocks.
    """
    N = len(table.initial)
    rows = max(64, _BLOCK_BYTES // (8 * max(1, c.env.draws) * tape_chunk(k)))
    fast = _start_fast_path(c, table, k, rows) if use_fast_path else None
    log.debug("%s path: %d runs of %d steps%s", fast[0] if fast else "interpreter", N, k,
              f" in {len(table.data)} segments" if len(table.data) > 1 else "")
    stream = fast and consumer is not None and N <= rows
    out = None if stream else hold()
    failures = []
    if fast:
        _, start, sim = fast
        for lo in range(0, N, rows):
            if lo:
                keys, initial = _rows(table, lo, lo + rows)
                sim = start(c, keys, k, initial)
            dest = consumer if stream else out[lo:lo + rows]
            failures.append(_reduce_block(fill, _lockstep_steps(sim, k, lo), dest))
    else:
        blocks = _partition(N, max(threads, math.ceil(N / _INTERP_ROWS)))
        tasks = [(c, k, *_rows(table, b.start, b.stop), b.start, fill, out.shape[1:])
                 for b in blocks]
        for b, (part, failure) in zip(blocks, _fan_out(_interpret_block, tasks, threads)):
            out[b.start:b.stop] = np.moveaxis(part, -1, 0)
            failures.append(failure)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: (f.step, f.run))
    return out


def _rows(table, lo: int, hi: int) -> tuple:
    """The stream keys and initial values of rows ``lo .. hi - 1``."""
    return [words[lo:hi] for words in table.keys], table.initial[lo:hi]


def _start_fast_path(c, table, k, rows):
    """(its name, ``start``, the run of the table's first ``rows`` rows) of
    the first fast path that takes the configuration and the table, else
    None.  The compiled program must admit every segment's data state."""
    keys, initial = _rows(table, 0, rows)
    if c.lockstep is not None:
        try:
            return "lockstep", c.lockstep.start, c.lockstep.start(c, keys, k, initial)
        except PreconditionError as exc:
            log.debug("lockstep simulator declined: %s", exc)
    # imported on first use: a lockstep-served or interpreted estimate, and
    # importing the package, do not pay for compiling the module
    from . import compiled

    try:
        program = compiled.program(c, table.data)
    except PreconditionError as exc:
        log.debug("process not compiled, running the interpreter: %s", exc)
        return None
    return "compiled", program.start, program.start(c, keys, k, initial)


def _reduce_block(fill, steps, dest) -> SimulationError | None:
    """``fill(steps, dest)``; the block's first failing run is returned."""
    try:
        fill(steps, dest)
    except SimulationError as exc:  # raised by the step generators only
        return exc
    return None


def _lockstep_steps(sim, k: int, first: int):
    yield sim.current()
    for i in range(k):
        try:
            vals = sim.step()
        except SimulationError as exc:  # its run is the failing row of the block
            raise _run_failed(first + exc.run, i, exc) from exc.__cause__
        yield vals


def _interpret_block(task) -> tuple[np.ndarray, SimulationError | None]:
    """Runs one block on the interpreter.  Returns the block's values, C
    ordered with the run axis last, so that a pool worker pickles them back
    in the step-major layout of the penalties, and its first failing run."""
    c, k, keys, initial, first, fill, shape = task
    part = np.empty(shape + (len(initial),), dtype=np.float64)
    return part, _reduce_block(fill, _interpret_steps(c, k, keys, initial, first),
                               np.moveaxis(part, -1, 0))


def _interpret_steps(c: Configuration, k: int, keys, initial: np.ndarray, first: int):
    """Values (n, nvars) at steps 0..k of the table's rows from ``first``
    on: each starts from its row of ``initial`` and samples from the
    stream of its key in ``keys`` what ``sim_step`` draws.

    Each step moves the process of every run, then the environment of the
    whole block in one kernel call.  A failing step names its least failing
    run: when the process of run r fails, the environment of the runs
    before r is stepped first, and a failure there is the one reported.
    """
    rngs = [RandomStream(key) for key in zip(*(words.tolist() for words in keys))]
    n = len(rngs)
    procs = [c.process] * n
    env, space, defs = c.env, c.space, c.defs
    vals = np.array(initial)
    post = np.empty_like(vals)
    u = np.empty((n, env.draws), order="F")  # one contiguous column per draw, as on the tape
    yield vals
    for i in range(k):
        for r, row in enumerate(vals.tolist()):
            try:
                d = DataState(space, tuple(row))
                effect, procs[r] = _select(pstep(procs[r], d, defs), rngs[r])
                post[r] = d.update(effect).values
            except Exception as exc:
                if r:
                    _advance(env, post[:r], u[:r], space, first, i)
                raise _run_failed(first + r, i, exc) from exc
            u[r] = [rngs[r].uniform01() for _ in range(env.draws)]
        vals = _advance(env, post, u, space, first, i)
        yield vals


def _advance(env, post, u, space, first: int, step: int) -> np.ndarray:
    try:
        return env.advance(post, u, space)
    except SimulationError as exc:
        raise _run_failed(first + exc.run, step, exc) from exc.__cause__


def _run_failed(run: int, step: int, exc: Exception) -> SimulationError:
    return SimulationError(f"run {run}: step {step}: {exc}", run=run, step=step)


def _fan_out(fn, tasks: list, threads: int):
    """``fn`` of each task in task order, in a process pool when threads > 1."""
    if threads <= 1 or len(tasks) == 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        yield from pool.map(fn, tasks)


def _partition(N: int, parts: int) -> list[range]:
    parts = max(1, min(parts, N))
    size = math.ceil(N / parts)
    return [range(lo, min(lo + size, N)) for lo in range(0, N, size)]
