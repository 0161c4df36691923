"""Command-line front end for batch experiments.

Subcommands: simulate | estimate | distance | robustness | adaptability |
reliability | stats | manifest.  All outputs are machine-clean CSV/JSON files
with an embedded provenance header; progress goes to standard error only.

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.  A
malformed option value (an observation-time list, interval, discount,
perturbation or attack spec, seed, model parameter or initial value that
does not parse, or one the model rejects) is a usage error: it exits 2
with one ``error: ...`` line on standard error, not a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .engine import Configuration, estimate, simulate, write_csv, write_json
from .errors import DataValidationError, EvoMetricError, PreconditionError, StructuralError
from .metric import (
    ObservationTimes,
    constant_discount,
    distance,
    exponential_discount,
)
from .models import build_model, model_ids, model_manifest, model_penalty
from .models.engine_system import SawWindowSampler
from .rng import RandomStream
from .robustness import (
    RobustnessSpec,
    UniformResampler,
    estimate_adaptability,
    estimate_reliability,
    estimate_robustness,
)
from .stats import error_analysis, reference_means

_USAGE_EXIT = 2
_RUNTIME_EXIT = 1


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _json_arg(text: str | None) -> dict:
    if not text:
        return {}
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"invalid JSON argument: {exc}") from None
    if not isinstance(value, dict):
        raise PreconditionError("JSON argument must be an object")
    return value


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("EVOMETRIC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise PreconditionError(f"EVOMETRIC_SEED {env!r} is not an integer") from None
    raise PreconditionError("no seed given: pass --seed or set EVOMETRIC_SEED")


def _discount(text: str):
    if text in ("1", "const", "none"):
        return constant_discount()
    try:
        if text.startswith("exp:"):
            return exponential_discount(float(text.split(":", 1)[1]))
        return constant_discount(float(text))
    except ValueError:
        raise PreconditionError(
            f"cannot parse discount {text!r}; use '1', a constant, or 'exp:GAMMA'"
        ) from None


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolved_params(args) -> dict:
    """--params JSON merged with the --scenario / --attack shorthands."""
    params = _json_arg(args.params)
    if getattr(args, "scenario", None) is not None:
        params["scenario"] = args.scenario
    if getattr(args, "attack", None):
        params.setdefault("attacks", [])
        params["attacks"] = list(params["attacks"]) + list(args.attack)
    return params


def _meta(args, seed: int, extra: dict | None = None) -> dict:
    meta = {
        "tool": f"evometric {__version__}",
        "command": args.command,
        "model": args.model,
        "params": _resolved_params(args),
        "seed": seed,
    }
    if getattr(args, "init", None):
        meta["init"] = _json_arg(args.init)
    meta.update(extra or {})
    return meta


def _model(model_id: str, params: dict, init: dict | None) -> Configuration:
    """``build_model``; a value the model rejects is a usage error, an unknown model is not."""
    try:
        return build_model(model_id, params, init)
    except (DataValidationError, StructuralError) as exc:
        if model_id not in model_ids():
            raise
        raise PreconditionError(str(exc)) from exc


def _build(args) -> Configuration:
    init = _json_arg(getattr(args, "init", None)) or None
    return _model(args.model, _resolved_params(args), init)


def _penalty(args, field: str = "penalty"):
    pid = getattr(args, field)
    return model_penalty(args.model, pid, _resolved_params(args))


def _resolve_steps(args) -> None:
    """--steps defaults to the horizon of --obs-times; one of them is
    required, and --steps may not stop before the last observation time."""
    if args.steps is None and not args.obs_times:
        raise PreconditionError(f"{args.command} needs --steps or --obs-times")
    if not args.obs_times:
        return
    horizon = ObservationTimes.parse(args.obs_times).horizon
    if args.steps is None:
        args.steps = horizon
    elif args.steps < horizon:
        raise PreconditionError(
            f"--steps {args.steps} stops before the last --obs-times step {horizon}")


def _obs(args) -> ObservationTimes:
    if args.obs_times:
        return ObservationTimes.parse(args.obs_times)
    return ObservationTimes.range(args.steps)


def _sampler(args, space):
    """The sampler of ``--perturb``; every variable it writes must be one of
    ``space``."""
    text = args.perturb
    if text == "all":
        return UniformResampler(None)
    if text.startswith("saw:"):
        try:
            _, side, width = text.split(":")
            awml = int(width)
        except ValueError:
            raise PreconditionError("saw sampler spec is 'saw:SIDE:AWML'") from None
        sampler, names = SawWindowSampler(side=side, awml=awml), (f"left_{side}", f"right_{side}")
    else:
        names = tuple(text.split(","))
        sampler = UniformResampler(names)
    unknown = [name for name in names if name not in space]
    if unknown:
        raise PreconditionError(f"--perturb {text!r} names unknown variables {unknown}")
    return sampler


# -- subcommand implementations ----------------------------------------------


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    c = _build(args)
    rng = RandomStream.from_seed(seed)
    traj = simulate(c, args.steps, rng)
    out = _out_dir(args)
    path = out / "simulate.csv"
    write_csv(path, _meta(args, seed, {"steps": args.steps}), ["step"] + list(c.space.names),
              ([i, *map(float, conf.data.values)] for i, conf in enumerate(traj)))
    _log(f"wrote {path}")
    return 0


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args)
    c = _build(args)
    E = estimate(c, args.steps, args.samples, seed, threads=args.threads,
                 use_fast_path=not args.no_fast_path)
    out = _out_dir(args)
    meta = _meta(args, seed, {"steps": args.steps, "samples": args.samples})
    E.summary_to_csv(out / "estimate_summary.csv", meta)
    _log(f"wrote {out / 'estimate_summary.csv'}")
    if args.emit_samples:
        E.to_csv(out / "estimate_samples.csv", meta)
        _log(f"wrote {out / 'estimate_samples.csv'}")
    return 0


def _cmd_distance(args) -> int:
    seed = _resolve_seed(args)
    c1 = _build(args)
    params2 = _json_arg(args.params2) if args.params2 else _resolved_params(args)
    c2 = _model(args.model2 or args.model, params2, _json_arg(args.init2) or None)
    rho = _penalty(args)
    disc = _discount(args.discount)
    obs = _obs(args)
    out = _out_dir(args)
    meta = _meta(args, seed, {
        "model2": args.model2 or args.model,
        "params2": params2,
        "N": args.samples, "l": args.scale,
        "penalty": args.penalty, "discount": args.discount,
        "obs_times": str(obs),
    })

    # (file stem, log label, from, to, seed) of each direction
    pair = args.seed2 is not None
    directions = [("distance", "m(c1,c2)", c1, c2, (seed, args.seed2) if pair else seed)]
    if args.both_directions:
        directions.append(("distance_reverse", "m(c2,c1)", c2, c1,
                           (args.seed2, seed) if pair else seed + 1))
    _log(f"sampling {args.samples} + {args.samples * args.scale} runs over "
         f"{obs.horizon} steps")
    for stem, label, a, b, side_seeds in directions:
        report = distance(a, b, rho, disc, obs, args.samples, args.scale,
                          side_seeds, threads=args.threads,
                          use_fast_path=not args.no_fast_path)
        report.to_csv(out / f"{stem}.csv", meta)
        write_json(out / f"{stem}.json", {"meta": meta, "report": report.to_json_dict()})
        _log(f"{label} = {report.value:.6f} at tau = {report.argmax}")
    _log(f"wrote {out / 'distance.csv'}")
    return 0


def _robustness_common(args, mode: str) -> int:
    seed = _resolve_seed(args)
    base = _build(args)
    rho = _penalty(args)
    disc = _discount(args.discount)
    obs = _obs(args)
    sampler = _sampler(args, base.space)
    out = _out_dir(args)

    def progress(accepted, attempts, M):
        if attempts % 10 == 0:
            _log(f"... {accepted}/{M} variations accepted after {attempts} attempts")

    if mode == "robustness":
        rho_target = _penalty(args, "penalty_target")
        try:
            lo, hi = (int(x) for x in args.interval.split(":"))
        except ValueError:
            raise PreconditionError(f"interval {args.interval!r} is not 'LO:HI'") from None
        spec = RobustnessSpec(
            rho=rho, rho_target=rho_target, interval=(lo, hi),
            tau_tilde=args.tau_tilde, eta1=args.eta1, eta2=args.eta2,
            M=args.variations, filter_mode="evolution",
        )
        report = estimate_robustness(
            spec, base, sampler, obs, args.samples, args.scale, seed,
            discount=disc, budget=args.budget, threads=args.threads,
            progress=progress, use_fast_path=not args.no_fast_path,
        )
        tau_tilde = args.tau_tilde
    elif mode == "adaptability":
        report = estimate_adaptability(
            rho, args.tau_tilde, args.eta1, base, sampler, obs,
            args.samples, args.scale, seed, eta2=args.eta2,
            M=args.variations, discount=disc, budget=args.budget,
            threads=args.threads, progress=progress, use_fast_path=not args.no_fast_path,
        )
        tau_tilde = args.tau_tilde
    else:
        report = estimate_reliability(
            rho, args.eta1, base, sampler, obs,
            args.samples, args.scale, seed, eta2=args.eta2,
            M=args.variations, discount=disc, budget=args.budget,
            threads=args.threads, progress=progress, use_fast_path=not args.no_fast_path,
        )
        tau_tilde = obs.steps[0]

    meta = _meta(args, seed, {"mode": mode})
    report.to_csv(out / f"{mode}.csv", meta)
    verdict = report.verdict(tau_tilde, args.eta2)
    write_json(out / f"{mode}.json",
               {"meta": meta, "report": report.to_json_dict(), "verdict": verdict})
    _log(
        f"xi({tau_tilde}) = {verdict['xi']:.6f}  eta2 = {args.eta2}  "
        f"satisfied = {verdict['satisfied']}  ({verdict['label']})"
    )
    _log(f"wrote {out / (mode + '.csv')}")
    return 0


def _cmd_stats(args) -> int:
    seed = _resolve_seed(args)
    c = _build(args)
    variables = args.vars.split(",") if args.vars else list(c.space.names)
    E = estimate(c, args.steps, args.samples, seed, threads=args.threads,
                 use_fast_path=not args.no_fast_path)
    base = RandomStream.from_seed(seed)
    E_ref = estimate(c, args.steps, args.reference_samples, base.child(1),
                     threads=args.threads, use_fast_path=not args.no_fast_path)
    ref = reference_means(E_ref, variables)
    report = error_analysis(E, variables, ref,
                            reference_tag=f"N={args.reference_samples} baseline")
    out = _out_dir(args)
    meta = _meta(args, seed, {
        "steps": args.steps, "samples": args.samples,
        "reference_samples": args.reference_samples,
    })
    report.to_csv(out / "stats.csv", meta)
    frac = report.z_within(1.96)
    for name in variables:
        _log(f"{name}: |z| <= 1.96 at {100.0 * frac[name]:.1f}% of steps")
    _log(f"wrote {out / 'stats.csv'}")
    return 0


def _cmd_manifest(args) -> int:
    manifest = model_manifest(args.model, _json_arg(args.params))
    print(json.dumps(manifest, sort_keys=True, indent=2))
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, steps=True, samples=False) -> None:
    p.add_argument("--model", required=True, help="model id (three-tanks | engine)")
    p.add_argument("--params", default="", help="model parameters as a JSON object")
    p.add_argument("--scenario", type=int, default=None,
                   help="three-tanks inflow scenario (shorthand for --params)")
    p.add_argument("--attack", action="append", default=None, metavar="SPEC",
                   help="engine attack 'act:SIDE:AC' | 'sen:SIDE:TF' | "
                        "'saw:SIDE:TF:AWML' (repeatable; shorthand for --params)")
    p.add_argument("--init", default="", help="initial-state overrides as a JSON object")
    if steps:
        p.add_argument("--steps", type=int, required=True, help="simulation horizon k")
    if samples:
        p.add_argument("--samples", type=int, default=1000, help="runs N (default 1000)")
        p.add_argument("--scale", type=int, default=5, help="sample scale l (default 5)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (fallback: EVOMETRIC_SEED)")
    p.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                   help="worker count for the reference interpreter")
    p.add_argument("--no-fast-path", action="store_true",
                   help="force the reference interpreter")
    p.add_argument("--out", default="out", help="output directory")


def _add_metric_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--penalty", required=True, help="penalty id (see manifest)")
    p.add_argument("--discount", default="1", help="'1', a constant, or 'exp:GAMMA'")
    p.add_argument("--obs-times", default="",
                   help="observation times, e.g. '0..150', '0..150..5', '0,50,100'")


def _add_perturb_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eta1", type=float, required=True, help="perturbation bound")
    p.add_argument("--eta2", type=float, default=0.0, help="tolerance for the verdict")
    p.add_argument("--variations", type=int, default=100, help="accepted variations M")
    p.add_argument("--budget", type=int, default=None, help="max sampling attempts")
    p.add_argument("--perturb", default="all",
                   help="'all', a comma list of variables, or 'saw:SIDE:AWML'")


_STEPS_HELP = ("horizon: the observation times are 0..STEPS when --obs-times is not "
               "given; with it, STEPS may not be below the last observation time, and a "
               "larger value changes nothing, since runs stop there (default: that time)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="evometric",
        description="simulate stochastic program-environment systems and "
                    "estimate evolution metrics, robustness, adaptability, "
                    "and reliability",
    )
    ap.add_argument("--version", action="version", version=f"evometric {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one trajectory to CSV")
    _add_common(p)

    p = sub.add_parser("estimate", help="empirical evolution sequence summary")
    _add_common(p, samples=True)
    p.add_argument("--emit-samples", action="store_true",
                   help="also write the full per-run sample CSV")

    p = sub.add_parser("distance", help="evolution metric between two configurations")
    _add_common(p, steps=False, samples=True)
    p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
    p.add_argument("--model2", default="", help="second model id (default: same)")
    p.add_argument("--params2", default="", help="second configuration parameters")
    p.add_argument("--init2", default="", help="second initial-state overrides")
    p.add_argument("--seed2", type=int, default=None,
                   help="seed lineage for the second configuration "
                        "(default: derived from --seed; pass the same value "
                        "as --seed to reuse identical runs on both sides)")
    p.add_argument("--both-directions", action="store_true")
    _add_metric_flags(p)

    for name, hlp in (
        ("robustness", "perturbation tolerance with an evolution-metric filter"),
        ("adaptability", "recovery after perturbed initial data"),
        ("reliability", "bounded divergence from the first observation on"),
    ):
        p = sub.add_parser(name, help=hlp)
        _add_common(p, steps=False, samples=True)
        p.add_argument("--steps", type=int, default=None, help=_STEPS_HELP)
        _add_metric_flags(p)
        _add_perturb_flags(p)
        if name == "robustness":
            p.add_argument("--penalty-target", required=True,
                           help="penalty measured after tau-tilde")
            p.add_argument("--interval", default="0:0",
                           help="filter interval 'LO:HI' (inclusive)")
        if name in ("robustness", "adaptability"):
            p.add_argument("--tau-tilde", type=int, required=True)

    p = sub.add_parser("stats", help="mean/std/stderr/z-score error analysis")
    _add_common(p, samples=True)
    p.add_argument("--reference-samples", type=int, default=10000,
                   help="baseline run count for the reference mean")
    p.add_argument("--vars", default="", help="comma list of variables (default: all)")

    p = sub.add_parser("manifest", help="print the model manifest as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--params", default="")

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise PreconditionError(f"--threads must be at least 1, got {args.threads}")
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "distance":
            _resolve_steps(args)
            return _cmd_distance(args)
        if args.command in ("robustness", "adaptability", "reliability"):
            _resolve_steps(args)
            return _robustness_common(args, args.command)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "manifest":
            return _cmd_manifest(args)
        raise PreconditionError(f"unknown command {args.command!r}")
    except PreconditionError as exc:
        _log(f"error: {exc}")
        return _USAGE_EXIT
    except EvoMetricError as exc:
        _log(f"error: {exc}")
        return _RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
