"""Span tracer that wraps the package's layer entry points from outside.

No file of the package changes: :func:`install` replaces module attributes
and class methods at every site that looks a name up, and
:meth:`Tracer.restore` puts the original objects back.  Spans are kept in
memory as flat integer arrays (name id, start, end, parent, run id) with
``perf_counter_ns`` times, so self times are exact integers.  Per-draw
scalar calls are counted, not spanned.

Spans recorded inside process-pool workers stay in the workers and are
lost; callers that need the worker-side split trace a single-worker pass.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter_ns

import numpy as np

# span name -> per-layer self-time metric it feeds
LAYER_TIMES = {
    "rng.tape_setup": "rng.tape_setup_s",
    "rng.tape_draw": "rng.tape_draw_s",
    "models.lockstep_start": "models.lockstep_start_s",
    "models.lockstep_step": "models.lockstep_step_s",
    "engine.estimate_penalties": "engine.estimate_penalties_s",
    "engine.sim_step": "engine.sim_step_s",
    "engine.fanout": "engine.fanout_wait_s",
    "process.pstep": "process.pstep_s",
    "dataspace.penalty": "dataspace.penalty_s",
    "dataspace.update": "dataspace.update_s",
    "environment.sample": "environment.sample_s",
    "metric.w_fold": "metric.w_fold_s",
    "robustness.estimate": "robustness.self_s",
    "robustness.sampler": "robustness.sampler_s",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.run = array("q")
        self._stack: list[int] = []
        self.run_id = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is open")

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(result, args, kwargs)`` runs outside it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result
        return traced

    def counting(self, key: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` by ``make(original)``; classes are patched on
        the class in their MRO that defines the attribute."""
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in vars(k))
        if any(o is owner and a == attr for o, a, _ in self._patches):
            return
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that are not."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
                 if vars(o).get(a) is not orig]
        self._patches.clear()
        return wrong

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int64).copy(),
        }

    def self_times(self, a: dict) -> tuple[np.ndarray, list[str]]:
        """Self time of every span, and the nesting errors found.

        A child must lie inside its parent, no span may be left open, and
        the self times of each root's tree must sum to the root's duration.
        """
        errs = []
        dur = a["end"] - a["start"]
        if (a["end"] < 0).any():
            errs.append("spans left open")
        par = a["parent"]
        child = par >= 0
        if (a["start"][child] < a["start"][par[child]]).any() or \
                (a["end"][child] > a["end"][par[child]]).any():
            errs.append("a child span lies outside its parent")
        covered = np.bincount(par[child], weights=dur[child], minlength=len(dur))
        self_t = dur - covered.astype(np.int64)
        if (self_t < 0).any():
            errs.append("children cover more than their parent")
        roots = np.flatnonzero(~child)
        if len(set(a["run"][roots].tolist())) != len(roots):
            errs.append("run ids of root spans are not unique")
        per_run = np.bincount(a["run"] - a["run"].min(), weights=self_t) if len(dur) else []
        for r in roots:
            if int(per_run[a["run"][r] - a["run"].min()]) != int(dur[r]):
                errs.append(f"self times of run {a['run'][r]} do not sum to its root")
        return self_t, errs

    def layer_times(self, a: dict, self_t: np.ndarray, run_scale: dict) -> dict:
        """Per-layer self seconds summed over the runs in ``run_scale``, each
        run's spans multiplied by its scale factor."""
        scale = np.array([run_scale.get(r, 0.0) for r in a["run"].tolist()])
        weights = self_t * scale / 1e9
        sums = np.bincount(a["name_id"], weights=weights, minlength=len(self.names))
        out = {metric: 0.0 for metric in LAYER_TIMES.values()}
        for nid, name in enumerate(self.names):
            if name in LAYER_TIMES:
                out[LAYER_TIMES[name]] += float(sums[nid])
        return out


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def install(tr: Tracer, wl) -> None:
    """Wrap every layer entry point the workload ``wl`` reaches."""
    import evometric
    from evometric import dataspace, engine, metric, rng, robustness
    from evometric.models import engine_system, three_tanks

    c = tr.counts

    # rng: per-run tape construction and per-step draws; scalar draws counted
    def tape_made(tape, args, kwargs):
        c["rng.tape_streams"] += _arg(args, kwargs, 1, "n_runs")
    for mod in (three_tanks, engine_system):
        tr.patch(mod, "UniformTape", lambda f: tr.wrap("rng.tape_setup", f, tape_made))

    def drawn(u, args, kwargs):
        c["rng.tape_uniforms"] += u.size
    tr.patch(rng.UniformTape, "next_step", lambda f: tr.wrap("rng.tape_draw", f, drawn))
    tr.patch(rng.RandomStream, "child", lambda f: tr.counting("rng.child_streams", f))
    tr.patch(rng.RandomStream, "uniform01", lambda f: tr.counting("rng.scalar_uniforms", f))

    # models: lockstep start, and the step of the run object it returns
    def stepped(vals, args, kwargs):
        c["models.lockstep_row_steps"] += vals.shape[0]

    def started(run, args, kwargs):
        c["models.lockstep_starts"] += 1
        run.step = tr.wrap("models.lockstep_step", run.step, stepped)
    for cls in (three_tanks.TanksLockstep, engine_system.EngineLockstep):
        tr.patch(cls, "start", lambda f: tr.wrap("models.lockstep_start", f, started))

    # engine: estimate_penalties at every binding, interpreter step, fan-out
    def penalties_call(f):
        @functools.wraps(f)
        def traced(cfg, k, N, *args, **kwargs):
            fast = kwargs.get("use_fast_path", args[4] if len(args) > 4 else True)
            before = (c["models.lockstep_starts"], c["engine.interp_run_steps"], c["engine.fanouts"])
            idx = tr.open("engine.estimate_penalties")
            try:
                out = f(cfg, k, N, *args, **kwargs)
            finally:
                tr.close(idx)
            c["engine.estimate_penalties_calls"] += 1
            c["run_steps"] += N * k
            if fast and cfg.lockstep is not None:
                c["engine.lockstep_eligible_calls"] += 1
                after = (c["models.lockstep_starts"], c["engine.interp_run_steps"], c["engine.fanouts"])
                if after[0] > before[0] and after[1:] == before[1:]:
                    c["engine.lockstep_served_calls"] += 1
            return out
        return traced
    for mod in (evometric, engine, metric, robustness):
        tr.patch(mod, "estimate_penalties", penalties_call)

    def sim_stepped(result, args, kwargs):
        c["engine.interp_run_steps"] += 1
    tr.patch(engine, "sim_step", lambda f: tr.wrap("engine.sim_step", f, sim_stepped))

    def pstepped(dist, args, kwargs):
        c["process.pstep_calls"] += 1
        c["process.dirac_steps"] += len(dist.triples) == 1
    tr.patch(engine, "pstep", lambda f: tr.wrap("process.pstep", f, pstepped))

    class TracedPool(ProcessPoolExecutor):
        # the parent is blocked on the pool from entry to the end of shutdown
        def __enter__(self):
            c["engine.fanouts"] += 1
            self._span = tr.open("engine.fanout")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tr.close(self._span)
    tr.patch(engine, "ProcessPoolExecutor", lambda f: TracedPool)

    # dataspace: penalties of the classes in use, data-state updates
    def rows(result, args, kwargs):
        c["dataspace.penalty_rows"] += _arg(args, kwargs, 2, "values").shape[0]

    def one_row(result, args, kwargs):
        c["dataspace.penalty_rows"] += 1
    for rho in wl.penalty_objs:
        tr.patch(type(rho), "eval_batch", lambda f: tr.wrap("dataspace.penalty", f, rows))
        tr.patch(type(rho), "eval_values", lambda f: tr.wrap("dataspace.penalty", f, one_row))
    tr.patch(dataspace.DataState, "update", lambda f: tr.wrap("dataspace.update", f))

    # environment: one scalar kernel sample per interpreter step
    def sampled(result, args, kwargs):
        c["environment.samples"] += 1
    for env in wl.envs:
        tr.patch(type(env), "sample", lambda f: tr.wrap("environment.sample", f, sampled))

    # metric: the sorted-sample W estimator at every binding, suffix fold
    def folded(result, args, kwargs):
        c["metric.w_columns"] += 1
        c["metric.w_sorted_elems"] += args[0].shape[0] + args[1].shape[0]
    for mod in (metric, robustness):
        tr.patch(mod, "compute_w_sorted", lambda f: tr.wrap("metric.w_fold", f, folded))
    tr.patch(robustness, "suffix_maxima", lambda f: tr.wrap("metric.w_fold", f))

    # robustness: the estimator loop and the perturbation sampler
    for mod in (evometric, robustness):
        for name in ("estimate_robustness", "estimate_adaptability"):
            tr.patch(mod, name, lambda f: tr.wrap("robustness.estimate", f))
    if wl.sampler is not None:
        tr.patch(type(wl.sampler), "sample", lambda f: tr.wrap("robustness.sampler", f))
