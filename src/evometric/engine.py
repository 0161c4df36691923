"""Simulation engine: configurations, trajectories, and empirical estimation.

One simulation step of a configuration <P, d, E> samples a support triple of
``pstep(P, d)`` with u in (0, 1] and the cumulative rule
``sum_{j<i} p_j < u <= sum_{j<=i} p_j``, applies the selected write effect to
d, then samples the environment on the result.  ``estimate`` runs N
independent trajectories on child random streams and collects, per time step,
the N sampled data states (the empirical evolution sequence);
``estimate_penalties`` reads the same runs through penalties at the
observation times without keeping the states; its (P, N, T) result is
step-major in memory, the N penalties of a step adjacent, so copy it
(``np.ascontiguousarray``) where C order is needed.  Given a consumer, it
hands each observed step's (P, N) penalties to it instead.  When one
fast-path block holds every run, a step is handed over as soon as it is
simulated, so a caller that folds the steps (the robustness estimators
fold W a chunk of steps at a time) never holds the (P, N, T) block.

Both estimators share one run loop (``_run``).  It simulates blocks of runs
and hands each block's (n, nvars) values at steps 0..k to the estimator.
Three execution paths drive a block and produce bit-identical values; the
first that takes the configuration runs it:

* a per-model vectorized lockstep simulator attached to the configuration
  (the built-in models' hand-written numpy twins of their terms), in this
  process;
* the compiled program of the process (:mod:`.compiled`), in this process.
  A process compiles when each of its reachable steps is a Dirac by
  construction.  The compiler declines a probabilistic choice between two
  or more branches of non-zero weight, an interleaving with 0 < p < 1, an
  undefined process variable, unguarded recursion, a constant that is not
  a float, a table of more than 4096 control terms, and an initial data
  state that is not admissible (outside the domain, or -0.0 at a +0.0
  bound);
* the reference interpreter, which steps the process of each run as
  ``sim_step`` does, on the run's own child stream, fanned out over a
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

``estimate_penalties`` can also stack several estimates of one process,
each from its own data state and seed, as segments of one call.  A fast
path that takes every segment in one block then runs them as one set of
rows, each row on its own stream key and from its own initial values,
which is cheaper where a step's cost is mostly fixed.  The interpreter, a
fast path that declines a segment, more rows than one block holds, and a
shared block that fails estimate the segments one by one, in order, so a
failure is reported as the first failing segment reports it alone.

Per-run randomness depends only on (master seed, run index), so results do
not depend on worker count or execution path.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Sequence

import numpy as np

from .dataspace import DataSpace, DataState, PenaltyFunction
from .environment import EnvironmentEvolution
from .errors import PreconditionError, SimulationError, StructuralError
from .process import Process, pstep, validate
from .rng import RandomStream, run_keys

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
# bytes of (k + 1)-step state a fast-path block of estimate_penalties may
# hold, at 16 per run-step: more runs are split over several blocks
_BLOCK_BYTES = 2e8


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
    states = np.empty((N, k + 1, len(c.space)), dtype=np.float64)
    _run(c, k, base.key, 0, threads, use_fast_path, rows=N, fill=_store_steps, out=states)
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
    run_offset: int = 0,
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
    ``run_offset`` shifts the child-stream indices (run i uses seed child
    run_offset + i), letting callers draw disjoint sample sets from one seed.

    ``segments``, a list of (data state, seed, runs) triples whose runs add
    up to N, stacks several estimates of ``c``'s process in one call: the
    rows of a segment are those of the estimate of ``c.with_data(data)``
    on its seed, and ``c.data`` and ``seed`` are not read.  When a fast
    path takes every segment in one block of rows, that block holds the
    rows of all of them, which is cheaper than one estimate after another
    where a step's cost is mostly fixed, as it is for short segments.
    Otherwise each segment is estimated on its own, in order.  So is each
    again when a run of a shared block fails: the failure raised is then
    the one the segments raise when estimated in order, the first failing
    segment's.

    ``consumer``, when given, is called as ``consumer(j, row)`` for each
    observation time ``obs_times[j]``, in order, with the (len(penalties),
    N) penalties of that step (valid during the call only), and the call
    returns None.  When a fast path takes all N runs in one block, the
    rows go to the consumer as their steps are simulated, so no array of
    the whole horizon is held.  Otherwise (the interpreter, or more runs
    than one block holds) the array is filled first and then handed over
    a column at a time.  The consumer sees column 0 again when a shared
    block failed after some of its steps were handed over and its
    segments are estimated again.
    """
    _check_counts(k, N)
    obs = list(obs_times)
    if any(t < 0 or t > k for t in obs):
        raise PreconditionError("observation times must lie in [0, k]")
    if len(set(obs)) < len(obs):
        raise PreconditionError("observation times must be distinct")
    if segments is None:
        parts = [(c, RandomStream.resolve(seed).key, N)]
    else:
        parts = [(c.with_data(d), RandomStream.resolve(s).key, n) for d, s, n in segments]
        for *_, n in parts:
            _check_counts(k, n)
        if sum(n for *_, n in parts) != N:
            raise PreconditionError(f"the segments' runs do not add up to {N}")
    out = None
    if consumer is None:
        out = _penalty_array(len(penalties), N, len(obs))
        consumer = partial(_write_column, out)
    # lockstep blocks of runs keep the transient per-block state small
    rows = max(64, int(_BLOCK_BYTES / ((k + 1) * 16)))
    fill = partial(_store_penalties, tuple(penalties), obs, c.space)
    if use_fast_path and N <= rows and (out is None or len(parts) > 1) \
            and _run_block(parts, k, run_offset, fill, consumer):
        return out
    # the interpreter's blocks, and more runs than one block holds, are
    # stored whole, then handed to the consumer
    held = _penalty_array(len(penalties), N, len(obs)) if out is None else out
    dest = np.moveaxis(held, 1, 0)
    lo = 0
    for part, key, n in parts:
        _run(part, k, key, run_offset, threads, use_fast_path, rows=rows, fill=fill,
             out=dest[lo:lo + n])
        lo += n
    if out is None:
        for j in range(len(obs)):
            consumer(j, held[:, :, j])
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


def _run(c, k, key, run_offset, threads, use_fast_path, rows, fill, out) -> None:
    """The one run loop of both estimators.

    Runs ``run_offset + i`` for i < len(out) are simulated in blocks, and
    ``fill(steps, out[block])`` reduces each block, where ``steps`` yields
    the block's (n, nvars) values at steps 0..k.  A fast path (the model's
    lockstep simulator, else the compiled program) drives blocks of at most
    ``rows`` runs in this process.  When ``use_fast_path`` is off or both
    decline the configuration, the interpreter runs the blocks, fanned out
    over ``threads`` worker processes.

    Each block returns its first failing run instead of raising it, and the
    failure raised is the least (step, run) over all blocks, so it does not
    depend on how the runs were split into blocks.
    """
    N = out.shape[0]
    fast = _start_fast_path(c, min(rows, N), key, run_offset, k) if use_fast_path else None
    failures = []
    log.debug("%s path: %d runs of %d steps", "interpreter" if fast is None else fast[0], N, k)
    if fast is not None:
        _, start, sim = fast
        for lo in range(0, N, rows):
            if lo:
                sim = start(c, min(rows, N - lo), key, run_offset + lo, k)
            steps = _lockstep_steps(sim, k, run_offset + lo)
            failures.append(_reduce_block(fill, steps, out[lo:lo + rows]))
    else:
        blocks = _partition(N, max(threads, math.ceil(N / _INTERP_ROWS)))
        tasks = [(c, k, key, run_offset + b.start, len(b), fill, out.shape[1:]) for b in blocks]
        for b, (part, failure) in zip(blocks, _fan_out(_interpret_block, tasks, threads)):
            out[b.start:b.stop] = np.moveaxis(part, -1, 0)
            failures.append(failure)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: (f.step, f.run))


def _run_block(parts, k, run_offset, fill, dest) -> bool:
    """Runs the segments ``parts``, (configuration, key, runs) triples that
    differ only in their data, as one block of rows on a fast path, filled
    by ``fill(steps, dest)`` as ``_run`` fills a block.

    Returns False, with ``dest`` left to be filled again, when no fast path
    takes every segment or when the block raises anything: which failure
    comes first depends on the rows a block holds (a penalty NaN names the
    first row of its step), and its runs are numbered from 0, not from
    ``run_offset``, so only the segments estimated by ``_run`` raise the
    failure of an estimate.
    """
    c = parts[0][0]
    keys = run_keys([(key, run_offset, n) for _, key, n in parts])
    initial = np.repeat([part.data.values for part, _, _ in parts],
                        [n for *_, n in parts], axis=0)
    fast = _start_fast_path(c, len(initial), keys, 0, k, initial,
                            [part.data for part, _, _ in parts])
    if fast is None:
        return False
    name, _, sim = fast
    log.debug("%s path: %d runs of %d steps%s", name, len(initial), k,
              f" in {len(parts)} segments" if len(parts) > 1 else "")
    try:
        fill(_lockstep_steps(sim, k, 0), dest)
    except Exception as exc:
        log.debug("a block failed, running its segments one by one: %s", exc)
        return False
    return True


def _start_fast_path(c, n, key, first, k, initial=None, data=None):
    """(its name, start, the first block's run) of the first fast path that
    takes the configuration, or None; ``start`` has the signature of
    ``lockstep.start``.  ``initial`` and ``data`` describe a block of rows
    with their own initial values: ``initial`` holds them, and ``data`` is
    their data states, each of which the compiled path must admit.  The
    lockstep's binding reads the process and definitions alone."""
    if c.lockstep is not None:
        try:
            return "lockstep", c.lockstep.start, c.lockstep.start(c, n, key, first, k, initial)
        except PreconditionError as exc:
            log.debug("lockstep simulator declined: %s", exc)
    # imported on first use: a lockstep-served or interpreted estimate, and
    # importing the package, do not pay for compiling the module
    from . import compiled

    try:
        program = compiled.program(c, data)
    except PreconditionError as exc:
        log.debug("process not compiled, running the interpreter: %s", exc)
        return None
    return "compiled", program.start, program.start(c, n, key, first, k, initial)


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
    c, k, key, first, n, fill, shape = task
    part = np.empty(shape + (n,), dtype=np.float64)
    return part, _reduce_block(fill, _interpret_steps(c, k, key, first, n),
                               np.moveaxis(part, -1, 0))


def _interpret_steps(c: Configuration, k: int, key: tuple, first: int, n: int):
    """Values (n, nvars) of interpreter runs first..first+n-1 at steps 0..k;
    run i samples from the child stream (key, i) what ``sim_step`` draws.

    Each step moves the process of every run, then the environment of the
    whole block in one kernel call.  A failing step names its least failing
    run: when the process of run r fails, the environment of the runs
    before r is stepped first, and a failure there is the one reported.
    """
    base = RandomStream(key)
    rngs = [base.child(first + r) for r in range(n)]
    procs = [c.process] * n
    env, space, defs = c.env, c.space, c.defs
    vals = np.tile(np.asarray(c.data.values, dtype=np.float64), (n, 1))
    post = np.empty_like(vals)
    u = np.empty((n, env.draws))
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
