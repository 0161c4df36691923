"""Results pinned across versions, at small sizes and fixed seeds.

The pins live in ``tests/golden/``: the result files of the five
criterion-10 commands under ``cli/``, and ``pins.json`` for in-process
estimates.  ``python tests/golden/regenerate.py`` rewrites them; a change
that moves a result on purpose regenerates them and says why.

Comparison rule.  IEEE 754 rounds +, -, *, /, sqrt, comparisons, min and
max alike on every machine, so a case that uses nothing else (the toy
model's finite kernel, the engine kernel and its penalties) is pinned by
the SHA-256 of its float64 bytes.  The tanks kernel's ``np.log`` and
``np.cos`` go through numpy's per-CPU SIMD dispatch, whose last bit may
differ between machines, so every case that passes through them (every
three-tanks case, the five command outputs included) is pinned by value:
a float cell equals its pin within relative 1e-12, and every other cell,
text, integer and key, equals it exactly.
"""

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from evometric.cli import main as cli_main
from evometric.dataspace import DataSpace, VarSpec
from evometric.engine import Configuration, estimate, estimate_penalties
from evometric.environment import EnvironmentEvolution
from evometric.errors import SimulationError
from evometric.metric import ObservationTimes, constant_discount, distance
from evometric.models.engine_system import (
    AttackConfig,
    SawWindowSampler,
    engine_penalties,
    engine_system,
)
from evometric.models.three_tanks import tanks_configuration, tanks_penalties
from evometric.process import Call, Const, If, Op, PChoice, Prefix, Var, tick
from evometric.robustness import RobustnessSpec, UniformResampler, estimate_adaptability
from evometric.robustness import estimate_robustness

from conftest import toy_kernel, toy_process

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

# the five commands of criterion 10 (its estimate on the interpreter)
COMMANDS = {
    "simulate": ["simulate", "--model", "three-tanks", "--steps", "20", "--seed", "5"],
    "estimate": ["estimate", "--model", "three-tanks", "--steps", "10", "--samples", "8",
                 "--seed", "5", "--emit-samples", "--no-fast-path"],
    "distance": ["distance", "--model", "three-tanks", "--params", '{"scenario": 1}',
                 "--params2", '{"scenario": 2}', "--penalty", "l3", "--obs-times", "0..15",
                 "--samples", "10", "--scale", "2", "--seed", "5"],
    "adaptability": ["adaptability", "--model", "three-tanks",
                     "--init", '{"l1": 5, "l2": 5, "l3": 5}', "--penalty", "l3",
                     "--obs-times", "0..8", "--tau-tilde", "2", "--eta1", "0.3",
                     "--eta2", "0.5", "--variations", "2", "--samples", "6", "--scale", "1",
                     "--seed", "5"],
    "stats": ["stats", "--model", "three-tanks", "--steps", "8", "--samples", "10",
              "--reference-samples", "40", "--vars", "l3", "--seed", "5"],
}


def run_commands(out: Path) -> None:
    for name, argv in COMMANDS.items():
        assert cli_main(argv + ["--threads", "1", "--out", str(out / name)]) == 0, name


def _sha256(a: np.ndarray) -> dict:
    return {"sha256": hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64)).hexdigest()}


def _toy_estimate(threads: int) -> dict:
    space = DataSpace([VarSpec("x", 0.0, 3.0, values=(0.0, 1.0, 2.0, 3.0)),
                       VarSpec("y", 0.0, 1.0, values=(0.0, 1.0))])
    p, defs = toy_process()
    c = Configuration(p, space.state([0.0, 0.0]), toy_kernel(), defs).validated()
    return _sha256(estimate(c, 150, 200, seed=17, threads=threads, use_fast_path=False).states)


def tanks_choice_configuration() -> Configuration:
    """The tank model's environment under a controller that picks its pump
    moves at random: a two-branch choice on either side of a level guard."""
    c = tanks_configuration(scenario=1, init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
    qmax = Const(c.env.params.q_max)

    def move(rate, op, bound, step):
        return Prefix((Op(op, (bound, Op("+", (Var(rate), Const(step))))),), (rate,), Call("P"))

    body = If(Op(">", (Var("l3"), Const(5.5))),
              PChoice(((0.7, move("q3", "min", qmax, 0.5)), (0.3, tick(Call("P"))))),
              PChoice(((0.5, move("q3", "max", Const(0.0), -0.5)),
                       (0.5, move("q1", "min", qmax, 0.5)))))
    return Configuration(Call("P"), c.data, c.env, {"P": body}).validated()


def _tanks_choice_penalties() -> dict:
    c = tanks_choice_configuration()
    pens = tanks_penalties(c.env.params)
    out = estimate_penalties(c, 120, 20, 23, [pens["l3"], pens["l1"]], [0, 1, 2, 60, 119, 120],
                             use_fast_path=False)
    return {"values": out.tolist()}


def _engine_saw() -> dict:
    """The engine saw call on every path; they must agree."""
    c = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),))
    c = c.with_data(c.data.update([("left_L", 40.0), ("right_L", 260.0)]))
    pens = engine_penalties(False, awml=1000)
    rhos = [pens["window_L"], pens["fn_L"]]
    paths = {"lockstep": (c, True), "compiled": (replace(c, lockstep=None), True),
             "interpreter": (c, False)}
    digests = {name: _sha256(estimate_penalties(cfg, 300, 4, 31, rhos, range(301),
                                                use_fast_path=fast))
               for name, (cfg, fast) in paths.items()}
    assert len({d["sha256"] for d in digests.values()}) == 1, digests
    return digests["interpreter"]


def _tanks_estimate_fast_paths() -> dict:
    """A tank estimate on the lockstep and on the compiled program; they
    must agree."""
    c = tanks_configuration(scenario=2, init={"l1": 4.0, "l2": 6.0, "l3": 5.0})
    lockstep = estimate(c, 12, 6, seed=29).states
    assert lockstep.tobytes() == estimate(replace(c, lockstep=None), 12, 6, seed=29).states.tobytes()
    return {"values": lockstep.tolist()}


def _engine_dual_attacks_every_path() -> dict:
    """The dual engine under an actuator attack on the left and a sensor
    attack on the right, on every path; they must agree."""
    c = engine_system(attacks=(AttackConfig.parse("act:L:1.8"), AttackConfig.parse("sen:R:0.4")),
                      dual=True)
    pens = engine_penalties(True)
    rhos = [pens["fn"], pens["fp"], pens["stress_L"]]
    paths = {"lockstep": (c, True), "compiled": (replace(c, lockstep=None), True),
             "interpreter": (c, False)}
    digests = {name: _sha256(estimate_penalties(cfg, 1000, 3, 59, rhos, range(1001),
                                                use_fast_path=fast))
               for name, (cfg, fast) in paths.items()}
    assert len({d["sha256"] for d in digests.values()}) == 1, digests
    return digests["interpreter"]


def _tanks_scenario_2_lockstep() -> dict:
    """A scenario-2 tank estimate on the lockstep, from a state where both
    pumps move both ways and meet their bounds; the interpreter must agree."""
    c = tanks_configuration(scenario=2, init={"q1": 0.6, "q2": 5.0, "q3": 5.5, "l1": 10.8,
                                              "l2": 5.0, "l3": 14.0})
    lockstep = estimate(c, 80, 8, seed=61).states
    assert lockstep.tobytes() == estimate(c, 80, 8, seed=61, use_fast_path=False).states.tobytes()
    return {"values": lockstep.tolist()}


def _tanks_robustness_window() -> dict:
    """Tank robustness with the evolution filter over a window of steps."""
    c = tanks_configuration(scenario=1, init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
    pens = tanks_penalties(c.env.params)
    spec = RobustnessSpec(rho=pens["l3"], rho_target=pens["l1"], interval=(2, 5),
                          tau_tilde=3, eta1=0.1, eta2=0.3, M=2, filter_mode="evolution")
    rep = estimate_robustness(spec, c, UniformResampler(("l2", "l3")),
                              ObservationTimes.range(12), N=8, ell=2, seed=37, budget=40)
    return rep.to_json_dict()


def _engine_saw_robustness() -> dict:
    """The engine saw question of criterion 9 at a small size."""
    base = engine_system(attacks=(AttackConfig("saw", "L", tf=0.6, awml=1000),))
    pens = engine_penalties(False, awml=1000)
    spec = RobustnessSpec(rho=pens["window_L"], rho_target=pens["fn_L"], interval=(0, 0),
                          tau_tilde=0, eta1=0.1, eta2=0.2, M=2, filter_mode="evolution")
    rep = estimate_robustness(spec, base, SawWindowSampler("L", 1000),
                              ObservationTimes.range(300, stride=10), N=6, ell=2, seed=41,
                              budget=80)
    return rep.to_json_dict()


def _tanks_adapt_benchmark_call() -> dict:
    """The benchmark's ``tanks-adapt`` call, whole: 5000-run candidate
    blocks of the compiled tank program over 150 steps."""
    c = tanks_configuration(scenario=1, init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
    rho = tanks_penalties(c.env.params)["l3"]
    rep = estimate_adaptability(rho, 30, 0.3, c, UniformResampler(("q1", "q2", "q3", "l2", "l3")),
                                ObservationTimes.range(150), N=1000, ell=5, seed=67, M=5,
                                budget=500)
    return rep.to_json_dict()


def _engine_saw_benchmark_call() -> dict:
    """The benchmark's ``engine-saw`` call at a 2000-step horizon; its
    report's JSON text is pinned by SHA-256."""
    base = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),))
    pens = engine_penalties(False, awml=1000)
    spec = RobustnessSpec(rho=pens["window_L"], rho_target=pens["fn_L"], interval=(0, 0),
                          tau_tilde=0, eta1=0.1, eta2=0.2, M=1, filter_mode="evolution")
    rep = estimate_robustness(spec, base, SawWindowSampler("L", 1000),
                              ObservationTimes.range(2000), N=100, ell=10, seed=71, budget=400)
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}


def _tanks_distance_both_ways() -> dict:
    """The distance between the two tank scenarios, in each direction."""
    c1, c2 = tanks_configuration(scenario=1), tanks_configuration(scenario=2)
    rho = tanks_penalties(c1.env.params)["l3"]
    obs, one = ObservationTimes.range(15), constant_discount()
    return {"forward": distance(c1, c2, rho, one, obs, N=10, ell=2, seed=43).to_json_dict(),
            "reverse": distance(c2, c1, rho, one, obs, N=10, ell=2, seed=47).to_json_dict()}


def _tanks_adaptability_interpreter() -> dict:
    """Adaptability on the interpreter in this process, where each
    candidate's penalties go to the W fold."""
    c = tanks_configuration(scenario=1, init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
    rho = tanks_penalties(c.env.params)["l3"]
    rep = estimate_adaptability(rho, 2, 0.3, c, UniformResampler(("q1", "l2", "l3")),
                                ObservationTimes.range(8), N=6, ell=1, seed=53, M=2,
                                budget=40, threads=1, use_fast_path=False)
    return rep.to_json_dict()


class NaNFromStep4(EnvironmentEvolution):
    """x counts the steps and z becomes the row's uniform; y becomes NaN
    in every row whose uniform exceeds 0.9 once x reaches 4."""

    id = "nan-from-4"
    draws = 1

    def sample_batch(self, values, u):
        out = values.copy()
        out[:, 0] += 1.0
        out[:, 1] = u[:, 0]
        out[:, 2] = np.where((out[:, 0] >= 4.0) & (u[:, 0] > 0.9), np.nan, values[:, 2])
        return out


def failing_configuration() -> Configuration:
    """From step 3 on, the process writes sqrt(z - 0.2), which fails in
    every row whose z (its last uniform) is below 0.2, and 10 x into w,
    which is clamped to 20.  Its steps are Diracs, so the compiled
    program takes it."""
    space = DataSpace([VarSpec("x", 0.0, 100.0), VarSpec("z", 0.0, 1.0),
                       VarSpec("y", 0.0, 100.0), VarSpec("w", 0.0, 20.0)])
    ten_x = Op("*", (Const(10.0), Var("x")))
    body = If(Op(">=", (Var("x"), Const(3.0))),
              Prefix((Op("sqrt", (Op("-", (Var("z"), Const(0.2))),)), ten_x), ("y", "w"),
                     Call("P")),
              Prefix((ten_x,), ("w",), Call("P")))
    return Configuration(Call("P"), space.state([0.0, 0.5, 0.0, 0.0]), NaNFromStep4(),
                         {"P": body}).validated()


def _failures() -> dict:
    """The failure raised, and the clamps counted, on each path.  At seed
    0 the process of row 6 fails at step 3, and the kernel has made row 2
    NaN there; at seed 2 the process of row 7 fails, and no row before it."""
    c = failing_configuration()
    out = {}
    for seed in (0, 2):
        for name, threads, fast in (("compiled", 1, True), ("interpreter", 1, False),
                                    ("interpreter, 2 workers", 2, False)):
            before = c.space.clamp_events
            try:
                estimate(c, 6, 12, seed, threads=threads, use_fast_path=fast)
            except SimulationError as exc:
                got = {"type": type(exc).__name__, "run": exc.run, "step": exc.step,
                       "message": str(exc)}
            else:
                raise AssertionError(f"seed {seed} on {name}: no failure")
            # a worker process counts its clamps in its own copy of the space
            if threads == 1:
                got["clamp_events"] = c.space.clamp_events - before
            out[f"seed {seed}, {name}"] = got
    return out


def compute_pins() -> dict:
    return {
        "toy_estimate_interpreter_threads_1": _toy_estimate(1),
        "toy_estimate_interpreter_threads_2": _toy_estimate(2),
        "tanks_choice_penalties_interpreter": _tanks_choice_penalties(),
        "engine_saw_every_path": _engine_saw(),
        "tanks_estimate_fast_paths": _tanks_estimate_fast_paths(),
        "engine_dual_act_sen_every_path": _engine_dual_attacks_every_path(),
        "tanks_scenario_2_lockstep": _tanks_scenario_2_lockstep(),
        "tanks_robustness_evolution_window": _tanks_robustness_window(),
        "engine_saw_robustness": _engine_saw_robustness(),
        "tanks_adapt_benchmark_call": _tanks_adapt_benchmark_call(),
        "engine_saw_benchmark_call": _engine_saw_benchmark_call(),
        "tanks_distance_both_directions": _tanks_distance_both_ways(),
        "tanks_adaptability_interpreter_threads_1": _tanks_adaptability_interpreter(),
        "failures": _failures(),
    }


# -- comparison --------------------------------------------------------------


def _same(got, want, where: str) -> None:
    """``got`` equals ``want``: floats within REL_TOL, everything else exactly."""
    if isinstance(want, float) and isinstance(got, float):
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0) or got == want, \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict) and isinstance(got, dict):
        assert sorted(got) == sorted(want), f"{where}: keys {sorted(got)} != {sorted(want)}"
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _cell(text: str):
    """A CSV cell as the writer made it: a float cell is the repr of a
    float, an integer cell has digits only."""
    if text.lstrip("-").isdigit():
        return text
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text)
    lines = text.splitlines(keepends=True)
    header = json.loads(lines[0][2:]) if lines[0].startswith("# ") else None
    rows = list(csv.reader(lines[1:] if header is not None else lines))
    return {"header": header, "rows": [[_cell(c) for c in row] for row in rows]}


def test_the_five_commands_write_their_pinned_files(tmp_path):
    run_commands(tmp_path)
    want = sorted(p.relative_to(GOLDEN / "cli") for p in (GOLDEN / "cli").rglob("*.*"))
    got = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*.*"))
    assert got == want
    for rel in want:
        _same(_parsed(tmp_path / rel), _parsed(GOLDEN / "cli" / rel), str(rel))


def test_in_process_estimates_equal_their_pins():
    pins = json.loads((GOLDEN / "pins.json").read_text(encoding="utf-8"))
    got = compute_pins()
    assert sorted(got) == sorted(pins)
    for name, pin in pins.items():
        _same(got[name], pin, name)
