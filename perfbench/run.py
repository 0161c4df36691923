"""evometric benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload tanks-adapt --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of the working directory, never from an installed copy.

An untraced run (``--trace 0``) times fresh-interpreter set-up, checks the
outputs of both execution paths, then calls the workload's estimator in a
closed loop for ``--seconds`` and reports the end-to-end metrics as medians
over calls.  Times are calibrated for machine speed (see :mod:`calibration`);
the raw times are in the run record.  A traced run (``--trace 1``) times a few untraced calls, then
traces two calls at one package seed through wrappers installed from
:mod:`tracer`, and reports the per-layer metrics of that call.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the run record (environment, notes, every call) as JSON.  The record, and
the spans of a traced run, are also written to ``.perfbench_out/`` in the
working directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
from calibration import calibrated

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7  # fresh interpreters per untraced run; setup_s is their median
MIN_CALLS = 3  # timed calls per untraced run, however long each takes
TRACED_CALLS = 2  # traced calls at one seed; their counts must be identical
PROBE_TIMEOUT_S = 60


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "evometric" / "__init__.py").is_file():
        print(f"no package source at {src / 'evometric'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs the package on sys.path)

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import evometric
    if Path(evometric.__file__).resolve().parent != (src / "evometric").resolve():
        print(f"imported evometric from {evometric.__file__}, not from {src}", file=sys.stderr)
        return 2

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": run_environment(root)}
    record["env"]["load1_before"] = os.getloadavg()[0]
    if args.trace:
        result = traced_run(workloads, args, record)
    else:
        result = untraced_run(workloads, args, root, record)
    record["env"]["load1_after"] = os.getloadavg()[0]
    record["result"] = result

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        import numpy as np
        names = np.array(spans.pop("names"))
        np.savez_compressed(out_dir / f"{stem}-spans.npz", names=names, **spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({k: record[k] for k in ("env", "notes", "calls") if k in record}))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Untraced: end-to-end metrics
# ---------------------------------------------------------------------------


def untraced_run(workloads, args, root: Path, record: dict) -> dict:
    setup = setup_probes(args.workload, root, SETUP_PROBES)
    wl = workloads.WORKLOADS[args.workload]().build()
    seeds = workloads.call_seeds(args.workload, args.seed)
    errors = wl.check_paths(next(seeds))

    calls = timed_calls(wl, seeds, args.seconds, MIN_CALLS)
    ok = [c for c in calls if not c["errors"]]
    failed = len(calls) - len(ok)
    errors += [e for c in calls for e in c["errors"]]
    record["calls"] = calls
    record["notes"] = {"setup_probes": setup, "errors": errors}
    if not ok:
        return {"correct": False, "attempted": len(calls), "failed": failed, "metrics": {}}
    med = lambda values: statistics.median(list(values))
    wall = [calibrated(c["wall_s"], c["speed_s"]) for c in ok]
    metrics = {
        "wall_s": (med(wall), "s"),
        "cpu_s": (med(calibrated(c["cpu_s"], c["speed_s"]) for c in ok), "s"),
        "run_steps_per_s": (med(c["run_steps"] / w for c, w in zip(ok, wall)), "1/s"),
        "setup_s": (med(calibrated(p["setup_s"], p["speed_s"]) for p in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    record["notes"]["raw_medians_s"] = {
        "wall_s": med(c["wall_s"] for c in ok),
        "cpu_s": med(c["cpu_s"] for c in ok),
        "setup_s": med(p["setup_s"] for p in setup),
        "calibration": med(c["speed_s"] for c in ok),
    }
    return {
        "correct": not errors,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def setup_probes(workload: str, root: Path, n: int) -> list[dict]:
    """``n`` fresh-interpreter set-ups, each bracketed by calibrations."""
    speeds = [calibration.probe()]
    raw = []
    for _ in range(n):
        raw.append(setup_probe(workload, root))
        speeds.append(calibration.probe())
    return [{"setup_s": r, "speed_s": (a + b) / 2} for r, a, b in zip(raw, speeds, speeds[1:])]


def setup_probe(workload: str, root: Path) -> float:
    """Seconds from spawning a fresh interpreter to the workload being ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {proc.returncode})")
    return elapsed


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children (the pool workers)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def timed_call(wl, seed, check=True, **kwargs) -> tuple[dict, object]:
    """One estimator call, timed; its output is checked after the clock stops."""
    rep = None
    t0, c0 = time.perf_counter(), cpu_seconds()
    try:
        rep = wl.call(seed, **kwargs)
        errors = []
    except Exception:  # a raising call is a failed operation, not a crash
        errors = [traceback.format_exc(limit=3)]
    wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
    if rep is not None and check:
        errors = wl.check_result(rep, seed)
    entry = {"seed": seed, "wall_s": wall, "cpu_s": cpu, "errors": errors,
             "run_steps": wl.run_steps(rep) if rep is not None else 0}
    for key in ("attempts", "accepted"):
        if hasattr(rep, key):
            entry[key] = getattr(rep, key)
    return entry, rep


def timed_calls(wl, seeds, seconds: float, min_calls: int) -> list[dict]:
    """Closed loop: the next call starts when the previous one is checked,
    until the next call would overrun ``seconds`` (at least ``min_calls``).
    Calibrations between the calls give each its machine speed."""
    calls: list[dict] = []
    t_end = time.perf_counter() + seconds
    speed = calibration.probe()
    while True:
        entry, _ = timed_call(wl, next(seeds))
        after = calibration.probe()
        entry["speed_s"] = (speed + after) / 2
        speed = after
        calls.append(entry)
        if len(calls) >= min_calls and time.perf_counter() + entry["wall_s"] > t_end:
            return calls


# ---------------------------------------------------------------------------
# Traced: per-layer metrics
# ---------------------------------------------------------------------------


def traced_run(workloads, args, record: dict) -> dict:
    import tracer as tracing

    wl = workloads.WORKLOADS[args.workload]().build()
    seeds = workloads.call_seeds(args.workload, args.seed)
    seed = next(seeds)
    errors = wl.check_paths(seed)
    untraced = timed_calls(wl, seeds, args.seconds / 3, 2)

    tr = tracing.Tracer()
    tracing.install(tr, wl)
    singles: list[dict] = []
    try:
        passes = [traced_pass(tr, wl, seed) for _ in range(TRACED_CALLS)]
        if args.workload == "text-interp":
            # worker spans are lost; the worker-side split and the counts
            # come from the same call made on one worker
            singles = [traced_pass(tr, wl, seed, threads=1) for _ in range(TRACED_CALLS)]
    finally:
        unrestored = tr.restore()
    if unrestored:
        errors.append(f"wrappers not removed: {unrestored}")
    # the wrappers are gone: the output checks run the original code
    for p in passes + singles:
        if p["rep"] is not None:
            p["entry"]["errors"] += wl.check_result(p["rep"], seed)
    calls = untraced + [p["entry"] for p in passes + singles]
    errors += [e for c in calls for e in c["errors"]]

    spans = tr.arrays()
    self_t, nest_errors = tr.self_times(spans)
    errors += nest_errors

    counted = singles or passes
    cnt = counted[0]["counts"]
    if any(p["counts"] != cnt for p in counted[1:]):
        errors.append(f"counts differ between same-seed passes: {[p['counts'] for p in counted]}")
    rep = counted[0]["rep"]
    if rep is not None and cnt["run_steps"] != wl.run_steps(rep):
        errors.append(f"traced run-steps {cnt['run_steps']} != {wl.run_steps(rep)}")

    # calibrated self times, averaged over the passes they come from
    def per_pass(ps):
        scale = {p["run_id"]: calibrated(1.0, p["entry"]["speed_s"]) / len(ps) for p in ps}
        return tr.layer_times(spans, self_t, scale)
    metrics = per_pass(counted)
    metrics["engine.fanout_wait_s"] = per_pass(passes)["engine.fanout_wait_s"]
    metrics.update({k: cnt[k] for k in REPORTED_COUNTS})

    ratio = lambda num, den: num / den if den else 0.0
    attempts, accepted = getattr(rep, "attempts", 0), getattr(rep, "accepted", 0)
    base_wall = statistics.median(calibrated(c["wall_s"], c["speed_s"]) for c in untraced)
    traced_wall = statistics.median(
        calibrated(p["entry"]["wall_s"], p["entry"]["speed_s"]) for p in passes)
    failed = sum(1 for c in calls if c["errors"])
    metrics.update({
        "engine.fast_path_ratio": ratio(cnt["engine.lockstep_served_calls"],
                                        cnt["engine.lockstep_eligible_calls"]),
        "process.dirac_ratio": ratio(cnt["process.dirac_steps"], cnt["process.pstep_calls"]),
        "robustness.attempts": attempts,
        "robustness.accepted": accepted,
        "robustness.accept_ratio": ratio(accepted, attempts),
        "trace.overhead_frac": (traced_wall - base_wall) / base_wall,
        "failed_frac": failed / len(calls),
    })
    units = {k: ("s" if k.endswith("_s") else "ratio" if k.endswith(("_ratio", "_frac"))
                 else "count") for k in metrics}

    record["calls"] = calls
    record["notes"] = {
        "errors": errors,
        "counts": cnt,
        "traced_seed": seed,
        "untraced_wall_s": base_wall,
        "traced_wall_s": traced_wall,
        "times": "calibrated seconds (see calibration.py); raw seconds are in calls",
        "split_source": ("worker-side layers and all counts from the same call on a single "
                         "worker; engine.fanout_wait_s from the threads=2 traced calls")
        if singles else "traced calls in this process",
        "zero_means": "the layer is not reached by this workload",
    }
    record["spans"] = dict(spans, names=tr.names)
    return {
        "correct": not errors,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def traced_pass(tr, wl, seed, **kwargs) -> dict:
    """One estimator call under a root span with its own run id."""
    tr.run_id += 1
    before = tr.counts.copy()
    clamps_before = sum(s.clamp_events for s in wl.spaces)
    speed = calibration.probe()
    root = tr.open("bench.call")
    try:
        entry, rep = timed_call(wl, seed, check=False, **kwargs)
    finally:
        tr.close(root)
    entry["speed_s"] = (speed + calibration.probe()) / 2
    counts = {k: tr.counts[k] - before[k] for k in COUNT_KEYS}
    counts["dataspace.clamp_events"] = sum(s.clamp_events for s in wl.spaces) - clamps_before
    return {"run_id": tr.run_id, "entry": entry, "rep": rep, "counts": counts}


# exact counts reported under their own names
REPORTED_COUNTS = (
    "run_steps", "rng.tape_streams", "rng.tape_uniforms", "rng.child_streams",
    "rng.scalar_uniforms", "models.lockstep_row_steps", "engine.estimate_penalties_calls",
    "engine.interp_run_steps", "process.pstep_calls", "dataspace.penalty_rows",
    "dataspace.clamp_events", "environment.samples", "metric.w_columns",
    "metric.w_sorted_elems",
)
COUNT_KEYS = tuple(k for k in REPORTED_COUNTS if k != "dataspace.clamp_events") + (
    "models.lockstep_starts", "engine.lockstep_eligible_calls",
    "engine.lockstep_served_calls", "engine.fanouts", "process.dirac_steps",
)


# ---------------------------------------------------------------------------
# Run-environment record
# ---------------------------------------------------------------------------


def run_environment(root: Path) -> dict:
    import numpy as np

    env = {
        "commit": _git_commit(root),
        "source_sha256": _source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    env.update(_lscpu())
    return env


def _git_commit(root: Path):
    if not (root / ".git").exists():  # never report an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """Identifies the measured code in checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _lscpu() -> dict:
    fields = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    found = {v: None for v in fields.values()}
    for line in out.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in fields:
            found[fields[key.strip()]] = value.strip()
    return found


if __name__ == "__main__":
    sys.exit(main())
