"""Three connected water tanks fed by a controlled pump, an uncontrolled
inflow pipe, and drained by a controlled outlet pump.

The controller nudges the two pump rates q1, q3 by a fixed increment whenever
the corresponding level leaves the dead band around the goal level.  The
environment resolves the inter-tank flows with Torricelli's law and draws the
uncontrolled inflow q2 stochastically:

* scenario 1: q2 is redrawn each step from a normal with mean ``q_med`` and
  variance ``delta_q`` (clamped into [0, q_max]);
* scenario 2: q2 performs a clamped Gaussian random walk with unit variance.

Variable order: q1, q2, q3, l1, l2, l3.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from ..dataspace import (
    ConvexPenalty,
    DataSpace,
    GoalPenalty,
    MaxPenalty,
    PenaltyFunction,
    VarSpec,
)
from ..engine import Configuration
from ..environment import EnvironmentEvolution
from ..errors import DataValidationError, PreconditionError, StructuralError
from ..process import Call, Const, If, Op, Prefix, Process, SyncPar, Var, tick
from ..rng import UniformTape

__all__ = [
    "ThreeTanksParams",
    "ThreeTanksEnv",
    "tanks_space",
    "tanks_program",
    "tanks_configuration",
    "tanks_penalties",
    "tanks_manifest",
]


@dataclass(frozen=True)
class ThreeTanksParams:
    l_min: float = 0.0
    l_max: float = 20.0
    l_goal: float = 10.0
    delta_l: float = 0.5
    q_max: float = 6.0
    q_step: float = 1.2
    q_med: float = 3.0
    delta_q: float = 0.5
    dt: float = 0.1
    scenario: int = 1
    # tank geometry: pipe cross-section, loss coefficients, gravity
    a: float = 0.5
    a12: float = 0.75
    a23: float = 0.75
    g: float = 9.81

    def __post_init__(self):
        if bad := [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]:
            raise DataValidationError(f"parameters must be finite: {', '.join(bad)}")
        if not (self.l_min < self.l_goal < self.l_max):
            raise DataValidationError("need l_min < l_goal < l_max")
        if not (0.0 <= self.q_step < self.q_max):
            raise DataValidationError("need 0 <= q_step < q_max")
        if self.delta_l <= 0 or self.delta_q <= 0:
            raise DataValidationError("delta_l and delta_q must be positive")
        if self.scenario not in (1, 2):
            raise DataValidationError(f"unknown scenario {self.scenario}")
        if self.dt <= 0:
            raise DataValidationError("dt must be positive")
        if self.g < 0:
            raise DataValidationError("g must not be negative")
        # bounds every flow and level increment, so a kernel step makes no NaN
        flow = max(abs(self.pipe12), abs(self.pipe23)) * math.sqrt(self.l_max - self.l_min)
        if not math.isfinite(2.0 * (flow + self.q_max)):
            raise DataValidationError("the largest flow pipe * sqrt(l_max - l_min) must be finite")

    @property
    def sigma_q(self) -> float:
        """Scenario-1 standard deviation (delta_q is a variance)."""
        return float(np.sqrt(self.delta_q))

    @property
    def pipe12(self) -> float:
        return self.a12 * self.a * math.sqrt(2.0 * self.g)

    @property
    def pipe23(self) -> float:
        return self.a23 * self.a * math.sqrt(2.0 * self.g)


_VARS = ("q1", "q2", "q3", "l1", "l2", "l3")


def tanks_space(params: ThreeTanksParams) -> DataSpace:
    q = lambda n: VarSpec(n, 0.0, params.q_max)
    l = lambda n: VarSpec(n, params.l_min, params.l_max)
    return DataSpace([q("q1"), q("q2"), q("q3"), l("l1"), l("l2"), l("l3")])


@dataclass(frozen=True)
class ThreeTanksEnv(EnvironmentEvolution):
    """One environment step of the tanks: inflow draw, Torricelli flows,
    level integration.  q1 and q3 are left to the program.

    Two uniforms per step make one Box-Muller normal z for the inflow
    draw, x = clamp(q_med + sigma_q z) in scenario 1 and clamp(q2 + z) in
    scenario 2.  The flows are q12 = sign(l1 - l2) pipe12 sqrt|l1 - l2|
    and likewise q23, and the levels move by dt times their net inflow.
    The step is computed in place in its (6, n) result, whose transpose is
    returned: a column-major (n, 6) block.

    Only the levels are declared ``clamped``.  The parameters are finite and
    every flow |q12|, |q23| <= pipe sqrt(l_max - l_min) is finite, so no
    entry is NaN: a level sums finite terms and at most one infinity.  The
    other successors are admissible without a clamp:

    - q1, q3: copies of their admissible inputs;
    - q2: x = min(max(., 0.0), q_max) is in [0, q_max] and never -0.0, since
      ``np.maximum`` returns its second operand, +0.0, on a tie.
    """

    params: ThreeTanksParams
    id: str = "three-tanks"
    draws = 2
    clamped = ("l1", "l2", "l3")

    @functools.cached_property
    def space(self) -> DataSpace:
        return tanks_space(self.params)

    @functools.cached_property
    def _coefficients(self) -> tuple[float, float, float]:
        p = self.params
        return p.sigma_q, p.pipe12, p.pipe23

    def sample_batch(self, values, u):
        p, dt = self.params, self.params.dt
        sigma_q, pipe12, pipe23 = self._coefficients
        q1, q2, q3, l1, l2, l3 = values.T
        out = np.empty((6, len(values)))
        # rows 0 and 2 are scratch until q1 and q3 are copied in at the end
        a, x, b, new1, new2, new3 = out
        # inflow: z = sqrt(-2 log u0) cos(2 pi u1), in a
        np.log(u[:, 0], out=a)
        np.multiply(-2.0, a, out=a)
        np.sqrt(a, out=a)
        np.multiply(2.0 * math.pi, u[:, 1], out=b)
        np.cos(b, out=b)
        np.multiply(a, b, out=a)
        if p.scenario == 1:
            np.multiply(sigma_q, a, out=a)
            np.add(p.q_med, a, out=a)
        else:
            np.add(q2, a, out=a)
        np.maximum(a, 0.0, out=a)
        np.minimum(a, p.q_max, out=x)
        # levels: l1 + dt (q1 - q12), l2 + dt (q12 - q23), l3 + dt (x + q23 - q3)
        _flow(l1, l2, pipe12, b, new1)
        np.subtract(q1, b, out=new1)
        np.multiply(dt, new1, out=new1)
        np.add(l1, new1, out=new1)
        _flow(l2, l3, pipe23, a, new2)
        np.subtract(b, a, out=new2)
        np.multiply(dt, new2, out=new2)
        np.add(l2, new2, out=new2)
        np.add(x, a, out=a)
        np.subtract(a, q3, out=a)
        np.multiply(dt, a, out=a)
        np.add(l3, a, out=new3)
        out[0] = q1
        out[2] = q3
        return out.T


def _flow(upper, lower, pipe: float, q, scratch) -> None:
    """The signed flow rate copysign(pipe sqrt|d|, d) of d = upper - lower,
    by Torricelli's law, into ``q``; ``scratch`` is overwritten.

    It equals ``where(d >= 0, 1, -1) * (pipe * sqrt(|d|))`` except at
    d = -0.0 (upper -0.0, lower +0.0), where it is -0.0 for +0.0.  In the
    levels that sign shows only in q1 - q12 at q1 = -0.0, which no
    admissible state holds: q1's lower bound +0.0 wins the clamp's tie.
    """
    d = np.subtract(upper, lower, out=scratch)
    np.absolute(d, out=q)
    np.sqrt(q, out=q)
    np.multiply(pipe, q, out=q)
    np.copysign(q, d, out=q)


def _goal_band(params: ThreeTanksParams) -> tuple[float, float]:
    return params.l_goal - params.delta_l, params.l_goal + params.delta_l


def tanks_program(params: ThreeTanksParams) -> tuple[Process, dict]:
    """The pump controller: inlet and outlet loops in synchronous parallel."""
    lo, hi = _goal_band(params)
    qmax = Const(params.q_max)
    qstep = Const(params.q_step)

    def pump(level: str, rate: str, name: str, high_branch: str) -> Process:
        dec = Prefix((Op("max", (Const(0.0), Op("-", (Var(rate), qstep)))),), (rate,), Call(name))
        inc = Prefix((Op("min", (qmax, Op("+", (Var(rate), qstep)))),), (rate,), Call(name))
        above, below = (dec, inc) if high_branch == "dec" else (inc, dec)
        return If(
            Op(">", (Var(level), Const(hi))),
            above,
            If(Op("<", (Var(level), Const(lo))), below, tick(Call(name))),
        )

    defs = {
        "Tanks_in": pump("l1", "q1", "Tanks_in", "dec"),
        "Tanks_out": pump("l3", "q3", "Tanks_out", "inc"),
    }
    defs["Tanks"] = SyncPar(Call("Tanks_in"), Call("Tanks_out"))
    return Call("Tanks"), defs


def tanks_penalties(params: ThreeTanksParams) -> dict[str, PenaltyFunction]:
    """The goal-tracking penalties used throughout the tank experiments."""
    mk = lambda v: GoalPenalty(v, params.l_goal, params.l_min, params.l_max, id=v)
    l1, l2, l3 = mk("l1"), mk("l2"), mk("l3")
    return {
        "l1": l1,
        "l2": l2,
        "l3": l3,
        "max3": MaxPenalty((l1, l2, l3), id="max3"),
        "mean_l1_l2": ConvexPenalty(((0.5, l1), (0.5, l2)), id="mean_l1_l2"),
    }


def tanks_configuration(
    params: ThreeTanksParams | None = None,
    init: dict | None = None,
    **overrides,
) -> Configuration:
    """Ready-to-run configuration; ``init`` overrides initial variable values.

    The default initial state fills nothing: levels at ``l_min`` and all
    flow rates at zero.
    """
    if params is None:
        params = ThreeTanksParams(**overrides)
    elif overrides:
        raise PreconditionError("pass either a params object or keyword overrides")
    env = ThreeTanksEnv(params)
    space = env.space
    base = _initial_values(params)
    if init:
        unknown = [n for n in init if n not in base]
        if unknown:
            raise StructuralError(f"unknown initial-state variables {unknown}")
        base.update(init)
    data = space.state(base)
    process, defs = tanks_program(params)
    lockstep = TanksLockstep(params)
    return Configuration(process, data, env, defs, lockstep).validated()


def _initial_values(params: ThreeTanksParams) -> dict:
    return dict(q1=0.0, q2=0.0, q3=0.0, l1=params.l_min, l2=params.l_min, l3=params.l_min)


def tanks_manifest(params: ThreeTanksParams) -> dict:
    return {
        "model": "three-tanks",
        "variables": [
            {"name": n, "lower": v.lower, "upper": v.upper, "kind": "continuous"}
            for n, v in zip(_VARS, tanks_space(params).vars)
        ],
        "encodings": {},
        "initial_state": _initial_values(params),
        "penalties": sorted(tanks_penalties(params)),
        "params": {
            "scenario": params.scenario, "l_min": params.l_min, "l_max": params.l_max,
            "l_goal": params.l_goal, "delta_l": params.delta_l, "q_max": params.q_max,
            "q_step": params.q_step, "q_med": params.q_med, "delta_q": params.delta_q,
            "dt": params.dt,
        },
    }


# ---------------------------------------------------------------------------
# Vectorized lockstep simulator (bit-identical to the interpreter)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TanksLockstep:
    """Advances all runs of the tank controller in numpy arrays, then steps
    the configuration's environment kernel on the whole block.

    Stream usage per run and step: the kernel's draws and nothing else (the
    controller's step is a Dirac) -- exactly what the reference interpreter
    consumes, so both paths visit identical states.
    """

    params: ThreeTanksParams

    def start(self, c: Configuration, keys, steps: int, initial):
        """Run i of ``c`` starts from row i of ``initial`` on key i of ``keys``."""
        expected, defs = tanks_program(self.params)
        stepped = SyncPar(Call("Tanks_in"), Call("Tanks_out"))
        if (c.process not in (expected, stepped)) or dict(c.defs) != defs:
            raise PreconditionError(
                "lockstep simulator is bound to the built-in tank controller"
            )
        return _TanksRun(self.params, c, keys, steps, initial)


class _TanksRun:
    def __init__(self, params: ThreeTanksParams, c: Configuration, keys, steps: int, initial):
        self.p = params
        self.env, self.space = c.env, c.space
        n = len(initial)
        # column-major, as the engine's run: each column is contiguous
        self.vals = np.array(initial, order="F")
        if self.env.draws:
            self.tape = UniformTape(keys, n, self.env.draws, steps)
        else:
            self.tape, self.no_draws = None, np.empty((n, 0))

    def current(self) -> np.ndarray:
        return self.vals

    def step(self) -> np.ndarray:
        p = self.p
        v = self.vals
        q1, q3 = v[:, 0], v[:, 2]
        l1, l3 = v[:, 3], v[:, 5]
        lo, hi = _goal_band(p)

        # controller effects (one synchronous step of both pump loops)
        post = v.copy(order="K")
        post[:, 0] = np.where(
            l1 > hi, np.maximum(0.0, q1 - p.q_step),
            np.where(l1 < lo, np.minimum(p.q_max, q1 + p.q_step), q1),
        )
        post[:, 2] = np.where(
            l3 > hi, np.minimum(p.q_max, q3 + p.q_step),
            np.where(l3 < lo, np.maximum(0.0, q3 - p.q_step), q3),
        )
        u = self.tape.next_step() if self.tape else self.no_draws
        self.vals = self.env.advance(post, u, self.space)
        return self.vals
