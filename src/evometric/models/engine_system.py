"""Self-coordinating refrigerated engine system under cyber-physical attack.

A single engine couples a controller and an intrusion detector over a shared
data space.  The controller activates the coolant for five consecutive
instants when the (possibly tampered) temperature channel reads at or above
``threshold``; the detector raises a warning whenever the genuine temperature
exceeds ``max_temp`` while the coolant is off, slows its own engine down and
asks the other engine to run at full speed.  The environment moves the
temperature by a uniform delta whose interval depends on the coolant and
speed actuators, shifts a six-step temperature history, accumulates stress
while more than three of the last six readings are at or above ``max_temp``,
and maintains running false-negative / false-positive averages.

Symbolic values encode as reals: off=0 on=1; slow=0 half=1 full=2;
ok=0 hot=1; alarm none=0 left=1 right=2 both=3.

Attacks are processes composed in parallel to the right of the system, so
their writes override the controller's:

* ``act``   has two states.  Idle, it waits for the temperature to drop
            below max_temp - AC; then it turns the coolant off and holds.
            Holding, it keeps the coolant off on every step while
            temp < max_temp, and returns to idle (writing nothing) once
            temp >= max_temp.  It is stealthy: it writes only while
            temp < max_temp, where the detector cannot fire;
* ``sen``   adds a constant negative offset -TF to the temperature channel;
* ``saw``   applies the sensor offset only while the step counter lies in a
            window [left, right] copied from the initial data state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from ..dataspace import (
    DataSpace,
    PenaltyFunction,
    RatioPenalty,
    VarPenalty,
    VarSpec,
)
from ..engine import Configuration, _check_count
from ..environment import EnvironmentEvolution
from ..errors import DataValidationError, PreconditionError, StructuralError
from ..process import Call, Const, If, Op, Prefix, Process, SyncPar, Var, tick
from ..rng import UniformTape
from ..robustness import PerturbationSampler

__all__ = [
    "EngineParams",
    "AttackConfig",
    "EngineEnv",
    "engine_space",
    "engine_system",
    "engine_penalties",
    "engine_manifest",
    "WindowPenalty",
    "SawWindowSampler",
]

OFF, ON = 0.0, 1.0
SLOW, HALF, FULL = 0.0, 1.0, 2.0
OK, HOT = 0.0, 1.0
NONE, LEFT, RIGHT, BOTH = 0.0, 1.0, 2.0, 3.0

_COUNTER_MAX = 1e15
_TEMP_MIN, _TEMP_MAX = -50.0, 500.0  # domain of temp and of its history p1..p6
_TF_MAX = 10.0  # temp_fake lies in [-_TF_MAX, _TF_MAX]
# temperature delta per step, uniform on [low, low + width), in the entry
# cool * 3 + speed: coolant off at speed slow, half, full (0..2), else on
_DELTA_LOW = np.array([0.1, 0.3, 0.7, -1.2, -1.2, -1.2])
_DELTA_WIDTH = np.array([0.3, 0.7, 1.2, -0.8, -0.8, -0.8]) - _DELTA_LOW


@dataclass(frozen=True)
class EngineParams:
    max_temp: float = 100.0
    stress_incr: float = 0.02
    threshold: float = 99.8
    clearance: float = 0.7  # security clearance weight of each engine

    def __post_init__(self):
        if bad := [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]:
            raise DataValidationError(f"parameters must be finite: {', '.join(bad)}")
        if self.threshold > self.max_temp:
            raise DataValidationError("threshold must not exceed max_temp")
        if self.stress_incr <= 0:
            raise DataValidationError("stress_incr must be positive")


@dataclass(frozen=True)
class AttackConfig:
    """One attack instance: kind in {act, sen, saw}, side in {L, R}."""

    kind: str
    side: str
    ac: float | None = None
    tf: float | None = None
    awml: int | None = None

    def __post_init__(self):
        if self.kind not in ("act", "sen", "saw"):
            raise DataValidationError(f"unknown attack kind {self.kind!r}")
        if self.side not in ("L", "R"):
            raise DataValidationError(f"unknown engine side {self.side!r}")
        if self.kind == "act":
            if self.ac is None or not (1.0 <= self.ac <= 3.0):
                raise DataValidationError("act attack needs ac in [1.0, 3.0]")
        else:
            if self.tf is None or not (0.0 < self.tf <= _TF_MAX):
                raise DataValidationError(f"{self.kind} attack needs tf in (0, {_TF_MAX:g}]")
        if self.kind == "saw":
            if self.awml is None or self.awml < 1:
                raise DataValidationError("saw attack needs awml >= 1")

    @property
    def written_vars(self) -> frozenset:
        s = self.side
        if self.kind == "act":
            return frozenset({f"cool_{s}"})
        if self.kind == "sen":
            return frozenset({f"temp_fake_{s}"})
        return frozenset({f"temp_fake_{s}", f"aw_l_{s}", f"aw_r_{s}"})

    @classmethod
    def parse(cls, text: str) -> "AttackConfig":
        """Parse 'act:L:1.8', 'sen:R:0.4', or 'saw:L:0.4:1000'."""
        parts = text.split(":")
        if len(parts) < 3:
            raise DataValidationError(f"cannot parse attack {text!r}")
        kind, side = parts[0], parts[1]
        if kind not in ("act", "sen", "saw"):
            raise DataValidationError(f"unknown attack kind {kind!r}")
        if kind == "saw" and len(parts) != 4:
            raise DataValidationError("saw attack needs 'saw:SIDE:TF:AWML'")
        try:
            value, awml = float(parts[2]), int(parts[3]) if kind == "saw" else None
        except ValueError:
            raise PreconditionError(f"attack {text!r} holds a value that is not a number") from None
        return cls(kind, side, ac=value) if kind == "act" else cls(kind, side, tf=value, awml=awml)


# per-side variables the environment kernel reads or writes
_SIDE_VARS = ("temp", "cool", "speed", "stress", "p1", "sc", "ch_warning", "fn", "fp")


def _sv(base: str, side: str) -> str:
    return f"{base}_{side}"


def engine_space(dual: bool = False) -> DataSpace:
    sides = ("L", "R") if dual else ("L",)
    specs: list[VarSpec] = []
    for s in sides:
        specs += [
            VarSpec(_sv("temp", s), _TEMP_MIN, _TEMP_MAX),
            VarSpec(_sv("cool", s), 0.0, 1.0, values=(0.0, 1.0)),
            VarSpec(_sv("speed", s), 0.0, 2.0, values=(0.0, 1.0, 2.0)),
            VarSpec(_sv("ch_speed", s), 0.0, 2.0, values=(0.0, 1.0, 2.0)),
            VarSpec(_sv("stress", s), 0.0, 1.0),
        ]
        specs += [VarSpec(_sv(f"p{k}", s), _TEMP_MIN, _TEMP_MAX) for k in range(1, 7)]
        specs += [
            VarSpec(_sv("temp_fake", s), -_TF_MAX, _TF_MAX),
            VarSpec(_sv("ch_warning", s), 0.0, 1.0, values=(0.0, 1.0)),
            VarSpec(_sv("fn", s), 0.0, 1.0),
            VarSpec(_sv("fp", s), 0.0, 1.0),
            VarSpec(_sv("sc", s), 0.0, _COUNTER_MAX),
            VarSpec(_sv("left", s), 0.0, _COUNTER_MAX),
            VarSpec(_sv("right", s), 0.0, _COUNTER_MAX),
            VarSpec(_sv("aw_l", s), 0.0, _COUNTER_MAX),
            VarSpec(_sv("aw_r", s), 0.0, _COUNTER_MAX),
        ]
    specs += [
        VarSpec("ch_speed_L_to_R", 0.0, 2.0, values=(0.0, 1.0, 2.0)),
        VarSpec("ch_speed_R_to_L", 0.0, 2.0, values=(0.0, 1.0, 2.0)),
        VarSpec("cs", 0.0, _COUNTER_MAX),
    ]
    if dual:
        specs += [
            VarSpec("ch_alarm", 0.0, 3.0, values=(0.0, 1.0, 2.0, 3.0)),
            VarSpec("fn", 0.0, 1.0),
            VarSpec("fp", 0.0, 1.0),
        ]
    return DataSpace(specs)


def _engine_defs(side: str, params: EngineParams) -> dict:
    s = side
    ch_in = "ch_speed_R_to_L" if s == "L" else "ch_speed_L_to_R"
    ch_out = "ch_speed_L_to_R" if s == "L" else "ch_speed_R_to_L"
    ctrl, cooling, check, ids = (f"Ctrl_{s}", f"Cooling_{s}", f"Check_{s}", f"IDS_{s}")

    # the controller reads the temperature through an insecure channel:
    # its guard sees temp + temp_fake, the detector reads the genuine temp
    ch_temp = Op("+", (Var(_sv("temp", s)), Var(_sv("temp_fake", s))))
    defs = {
        ctrl: If(
            Op("<", (ch_temp, Const(params.threshold))),
            tick(Call(check)),
            Prefix((Const(ON),), (_sv("cool", s),), Call(cooling)),
        ),
        cooling: tick(tick(tick(tick(Call(check))))),
        check: If(
            Op("=", (Var(_sv("ch_speed", s)), Const(SLOW))),
            Prefix((Const(SLOW), Const(OFF)), (_sv("speed", s), _sv("cool", s)), Call(ctrl)),
            Prefix((Var(ch_in), Const(OFF)), (_sv("speed", s), _sv("cool", s)), Call(ctrl)),
        ),
        ids: If(
            Op("and", (
                Op(">", (Var(_sv("temp", s)), Const(params.max_temp))),
                Op("=", (Var(_sv("cool", s)), Const(OFF))),
            )),
            Prefix(
                (Const(HOT), Const(SLOW), Const(FULL)),
                (_sv("ch_warning", s), _sv("ch_speed", s), ch_out),
                Call(ids),
            ),
            Prefix(
                (Const(OK), Const(HALF), Const(HALF)),
                (_sv("ch_warning", s), _sv("ch_speed", s), ch_out),
                Call(ids),
            ),
        ),
        f"Eng_{s}": SyncPar(Call(ctrl), Call(ids)),
    }
    return defs


def _supervisor_def() -> dict:
    warn = lambda s: Op("=", (Var(_sv("ch_warning", s)), Const(HOT)))
    alarm = lambda v: Prefix((Const(v),), ("ch_alarm",), Call("SV"))
    return {
        "SV": If(
            Op("and", (warn("L"), warn("R"))),
            alarm(BOTH),
            If(warn("L"), alarm(LEFT), If(warn("R"), alarm(RIGHT), alarm(NONE))),
        )
    }


def _attack_defs(att: AttackConfig, params: EngineParams) -> tuple[str, dict]:
    s = att.side
    if att.kind == "act":
        name = f"Att_Act_{s}"
        hold = f"Att_Act_hold_{s}"
        cool_off = Prefix((Const(OFF),), (_sv("cool", s),), Call(hold))
        temp = Var(_sv("temp", s))
        return name, {
            name: If(
                Op("<", (temp, Const(params.max_temp - att.ac))),
                cool_off,
                tick(Call(name)),
            ),
            hold: If(
                Op("<", (temp, Const(params.max_temp))),
                cool_off,
                tick(Call(name)),
            ),
        }
    if att.kind == "sen":
        name = f"Att_Sen_{s}"
        body = Prefix((Const(-att.tf),), (_sv("temp_fake", s),), Call(name))
        return name, {name: body}
    name = f"Att_Saw_{s}"
    run = f"Att_Saw_run_{s}"
    window = Op("and", (
        Op("<=", (Var(_sv("aw_l", s)), Var("cs"))),
        Op("<=", (Var("cs"), Var(_sv("aw_r", s)))),
    ))
    return name, {
        name: Prefix(
            (Var(_sv("left", s)), Var(_sv("right", s))),
            (_sv("aw_l", s), _sv("aw_r", s)),
            Call(run),
        ),
        run: If(
            window,
            Prefix((Const(-att.tf),), (_sv("temp_fake", s),), Call(run)),
            Prefix((Const(0.0),), (_sv("temp_fake", s),), Call(run)),
        ),
    }


def _initial_values(dual: bool) -> dict:
    sides = ("L", "R") if dual else ("L",)
    init: dict = {}
    for s in sides:
        init.update({
            _sv("temp", s): 95.0, _sv("cool", s): OFF, _sv("speed", s): HALF,
            _sv("ch_speed", s): HALF, _sv("stress", s): 0.0,
            _sv("temp_fake", s): 0.0, _sv("ch_warning", s): OK,
            _sv("fn", s): 0.0, _sv("fp", s): 0.0, _sv("sc", s): 0.0,
            _sv("left", s): 0.0, _sv("right", s): 0.0,
            _sv("aw_l", s): 0.0, _sv("aw_r", s): 0.0,
        })
        init.update({_sv(f"p{k}", s): 95.0 for k in range(1, 7)})
    init.update({"ch_speed_L_to_R": HALF, "ch_speed_R_to_L": HALF, "cs": 0.0})
    if dual:
        init.update({"ch_alarm": NONE, "fn": 0.0, "fp": 0.0})
    return init


def engine_system(
    params: EngineParams | None = None,
    attacks: tuple[AttackConfig, ...] = (),
    dual: bool = False,
    init: dict | None = None,
) -> Configuration:
    """Assemble the engine configuration, optionally under attack.

    Attacks must target distinct (kind, side) pairs and must not write the
    same variables as each other; the deliberate overlap between an actuator
    attack and the controller (both write the coolant) is tolerated, with
    the attack composed rightmost so its write wins.
    """
    params = params or EngineParams()
    attacks = tuple(attacks)
    if len({(a.kind, a.side) for a in attacks}) != len(attacks):
        raise PreconditionError("attacks must target distinct (kind, side) pairs")
    for i, a in enumerate(attacks):
        if not dual and a.side != "L":
            raise PreconditionError("single-engine system only has side L")
        for b in attacks[i + 1:]:
            overlap = a.written_vars & b.written_vars
            if overlap:
                raise PreconditionError(
                    f"attacks {a.kind}:{a.side} and {b.kind}:{b.side} both write {sorted(overlap)}"
                )

    defs = _engine_defs("L", params)
    process: Process = Call("Eng_L")
    if dual:
        defs.update(_engine_defs("R", params))
        defs.update(_supervisor_def())
        process = SyncPar(SyncPar(Call("Eng_L"), Call("Eng_R")), Call("SV"))
    for att in attacks:
        name, att_defs = _attack_defs(att, params)
        defs.update(att_defs)
        process = SyncPar(process, Call(name))

    env = EngineEnv(params, dual)
    space = env.space
    values = _initial_values(dual)
    if init:
        unknown = [n for n in init if n not in values]
        if unknown:
            raise StructuralError(f"unknown initial-state variables {unknown}")
        values.update(init)
    data = space.state(values)
    cfg = Configuration(process, data, env, defs, EngineLockstep())
    # actuator attacks share the coolant variable with the controller by design
    return cfg.validated(tolerate_write_overlap=True)


@dataclass(frozen=True)
class EngineEnv(EnvironmentEvolution):
    """Temperature drift, history shift, stress accumulation, step counting,
    and false-negative / false-positive running averages.

    One uniform per engine side per step draws that side's temperature
    delta, uniform on the interval that the coolant and the speed select.
    The step is :meth:`sample_into`: every updated column is computed in
    place in its own column of the block, after every value that reads its
    pre-step value (the hot count and the history shift before temp, fn
    and fp before stress, cs last).  It writes last: the dual system's fn
    and fp increments, whose sum of two ``clearance``-weighted terms is the
    one operation that can overflow, come before the first write.  Every
    other operation is on admissible values and finite parameters: its
    results lie within [-52, max(1e15 + 1, 1 + stress_incr)], and the one
    quotient divides by cs + 1 >= 1, so none can overflow or divide by zero
    (underflow does not warn).

    Declared ``clamped``: temp and sc of each side and cs, which can step
    past their bounds, and in the dual system fn and fp, whose increments
    scale with ``clearance``, which has no range check.  Every parameter is
    finite and every input admissible, so no entry is NaN: each sum adds
    finite terms, or, in the dual fn and fp, terms of one sign that may
    overflow to an infinity.  The other written successors are admissible
    without a clamp:

    - p1..p6: copies of temp and of p1..p5;
    - stress: min(1, stress + stress_incr) >= stress >= 0 where hot, else
      the input;
    - fn, fp of a side: (cs mean + inc) / (cs + 1) with mean and inc in
      [0, 1] and cs >= 0 stays in [0, 1] because rounding is monotone, and
      is +0.0, not -0.0, at 0.
    """

    params: EngineParams
    dual: bool = False
    id: str = "engine"

    @property
    def draws(self) -> int:
        return 2 if self.dual else 1

    @property
    def clamped(self) -> tuple[str, ...]:
        sides = ("L", "R") if self.dual else ("L",)
        side_vars = tuple(_sv(name, s) for s in sides for name in ("temp", "sc"))
        return side_vars + (("cs", "fn", "fp") if self.dual else ("cs",))

    @functools.cached_property
    def space(self) -> DataSpace:
        return engine_space(self.dual)

    @functools.cached_property
    def _side_ix(self) -> dict:
        return {s: {name: self.space.index(_sv(name, s)) for name in _SIDE_VARS}
                for s in (("L", "R") if self.dual else ("L",))}

    @functools.cached_property
    def _cs_ix(self) -> int:
        return self.space.index("cs")

    def sample_into(self, values, u):
        p, index = self.params, self.space.index
        if self.dual:
            # the increments, the one sum that can overflow (clearance has no
            # range check), come before the first write
            alarm = values[:, index("ch_alarm")]
            al = ((alarm == LEFT) | (alarm == BOTH)).astype(np.float64)
            ar = ((alarm == RIGHT) | (alarm == BOTH)).astype(np.float64)
            sl = values[:, self._side_ix["L"]["stress"]]
            sr = values[:, self._side_ix["R"]["stress"]]
            w = p.clearance
            inc_fn = np.minimum(1.0, w * np.maximum(0.0, sl - al) + w * np.maximum(0.0, sr - ar))
            inc_fp = np.minimum(1.0, w * np.maximum(0.0, al - sl) + w * np.maximum(0.0, ar - sr))
        cs = values[:, self._cs_ix]
        cs1 = np.add(cs, 1.0)  # cs is written last: every average reads it
        f = np.empty(len(values))  # scratch
        pick = np.empty(len(values), dtype=np.intp)
        for j, ix in enumerate(self._side_ix.values()):
            # more than three hot readings, counted over a C-ordered (6, n) block
            # (a reduction along each row's 6 entries costs twice as much);
            # in a column-major block history.T is already C-ordered
            p1 = ix["p1"]
            history = values[:, p1:p1 + 6]
            hot_rows = np.greater_equal(history.T, p.max_temp, order="C")
            hot = np.add.reduce(hot_rows, axis=0, dtype=np.int8) > 3

            # fn and fp average the pre-step stress and warning
            stress, warn = values[:, ix["stress"]], values[:, ix["ch_warning"]]
            np.subtract(stress, warn, out=f)
            np.maximum(0.0, f, out=f)
            _average(values[:, ix["fn"]], cs, f, cs1)
            np.subtract(warn, stress, out=f)
            np.maximum(0.0, f, out=f)
            _average(values[:, ix["fp"]], cs, f, cs1)

            np.add(stress, p.stress_incr, out=f)
            np.minimum(1.0, f, out=f)
            np.copyto(stress, f, where=hot)
            sc = values[:, ix["sc"]]
            np.add(sc, hot, out=sc)

            # history: p2..p6 <- p1..p5 (numpy buffers the overlap), p1 <- temp
            values[:, p1 + 1:p1 + 6] = history[:, :5]
            temp = values[:, ix["temp"]]
            values[:, p1] = temp

            # delta: low + width * (1 - u) of the interval cool * 3 + speed
            np.multiply(values[:, ix["cool"]], 3.0, out=f)
            np.add(f, values[:, ix["speed"]], out=f)
            np.copyto(pick, f, casting="unsafe")
            np.subtract(1.0, u[:, j], out=f)
            np.multiply(_DELTA_WIDTH[pick], f, out=f)
            np.add(_DELTA_LOW[pick], f, out=f)
            np.add(temp, f, out=temp)

        if self.dual:
            _average(values[:, index("fn")], cs, inc_fn, cs1)
            _average(values[:, index("fp")], cs, inc_fp, cs1)
        cs[...] = cs1


def _average(mean, cs, inc, cs1) -> None:
    """The running average (cs * mean + inc) / cs1, in place in ``mean``."""
    np.multiply(cs, mean, out=mean)
    np.add(mean, inc, out=mean)
    np.divide(mean, cs1, out=mean)


@dataclass(frozen=True)
class WindowPenalty(PenaltyFunction):
    """Attack-window length relative to its maximum: (right - left) / awml."""

    left_var: str
    right_var: str
    awml: int
    id: str = ""

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", f"window[{self.right_var}]")

    def score_batch(self, step, values, space):
        span = values[:, space.index(self.right_var)] - values[:, space.index(self.left_var)]
        return span / self.awml


@dataclass(frozen=True)
class SawWindowSampler(PerturbationSampler):
    """Perturbs the initial state with a random attack window [0, aw].

    ``aw`` is drawn uniformly over the integers 0..awml; combined with the
    window-length penalty filter this realises a uniform draw over admissible
    window lengths.
    """

    side: str = "L"
    awml: int = 1000
    id: str = "saw-window"

    def __post_init__(self):
        _check_count("saw window length", self.awml, 0)

    def sample(self, base, rng):
        aw = float(rng.uniform_int(0, self.awml))
        return base.update([(_sv("left", self.side), 0.0), (_sv("right", self.side), aw)])


def engine_penalties(dual: bool = False, awml: int = 1000) -> dict[str, PenaltyFunction]:
    out: dict[str, PenaltyFunction] = {}
    for s in ("L", "R") if dual else ("L",):
        out[f"fn_{s}"] = VarPenalty(_sv("fn", s), id=f"fn_{s}")
        out[f"fp_{s}"] = VarPenalty(_sv("fp", s), id=f"fp_{s}")
        out[f"stress_{s}"] = VarPenalty(_sv("stress", s), id=f"stress_{s}")
        out[f"overstress_{s}"] = RatioPenalty(_sv("sc", s), "cs", id=f"overstress_{s}")
        out[f"window_{s}"] = WindowPenalty(_sv("left", s), _sv("right", s), awml)
    if dual:
        out["fn"] = VarPenalty("fn", id="fn")
        out["fp"] = VarPenalty("fp", id="fp")
    return out


def engine_manifest(params: EngineParams, dual: bool = False) -> dict:
    space = engine_space(dual)
    return {
        "model": "engine",
        "variables": [
            {
                "name": v.name, "lower": v.lower, "upper": v.upper,
                "kind": "finite" if v.is_finite else "continuous",
            }
            for v in space.vars
        ],
        "encodings": {
            "cool": {"off": 0, "on": 1},
            "speed": {"slow": 0, "half": 1, "full": 2},
            "ch_warning": {"ok": 0, "hot": 1},
            "ch_alarm": {"none": 0, "left": 1, "right": 2, "both": 3},
        },
        "initial_state": _initial_values(dual),
        "penalties": sorted(engine_penalties(dual)),
        "params": {
            "max_temp": params.max_temp, "stress_incr": params.stress_incr,
            "threshold": params.threshold, "dual": dual,
        },
    }


# ---------------------------------------------------------------------------
# Lockstep shell: the compiled program, started where the benchmark counts it
# ---------------------------------------------------------------------------


class EngineLockstep:
    """Starts a configuration's runs as its compiled program's run
    (:mod:`..compiled`), on a tape built through this module's
    ``UniformTape`` name.  Kept only because the benchmark's tracer counts
    lockstep runs at this ``start`` and tape streams at that name."""

    def start(self, c: Configuration, keys, steps: int, initial):
        """Run i of ``c`` starts from row i of ``initial`` on key i of
        ``keys``.  The engine calls it once ``c``'s program has compiled
        and admitted the call's initial data states, so none is checked
        again here."""
        from ..compiled import _ProgramRun, program

        return _ProgramRun(program(c, ()), c,
                           UniformTape(keys, len(initial), c.env.draws, steps), initial)
