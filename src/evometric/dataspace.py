"""Variables, domains, data states, and penalty functions.

A data state assigns one real value to every variable of a data space.  Writes
that land outside a variable's domain are clamped, mirroring physical
saturation; they are never rejected.  Process writes that clamp are counted
in ``DataSpace.clamp_events``; environment steps are clamped a block at a
time (:meth:`DataSpace.clamp_batch`) and are not counted.  Penalty functions score a data
state in [0, 1] at a given time step, 0 meaning "on target".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataValidationError, PreconditionError, StructuralError

__all__ = [
    "VarSpec",
    "DataSpace",
    "DataState",
    "PenaltyFunction",
    "GoalPenalty",
    "MaxPenalty",
    "ConvexPenalty",
    "VarPenalty",
    "RatioPenalty",
    "FnPenalty",
    "make_data_state",
    "penalty_eval",
]


@dataclass(frozen=True)
class VarSpec:
    """One variable: name, domain bounds, and continuous or finite-set kind.

    ``values`` is only set for finite-set variables and must be a sorted tuple
    of the admissible reals, all within [lower, upper].
    """

    name: str
    lower: float
    upper: float
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.name:
            raise DataValidationError("variable name must be non-empty")
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise DataValidationError(f"{self.name}: domain bounds must not be NaN")
        if self.lower > self.upper:
            raise DataValidationError(
                f"{self.name}: lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if self.values is not None:
            if len(self.values) == 0:
                raise DataValidationError(f"{self.name}: finite-set domain must be non-empty")
            vals = tuple(sorted(float(v) for v in self.values))
            if vals[0] < self.lower or vals[-1] > self.upper:
                raise DataValidationError(
                    f"{self.name}: finite-set elements must lie in [{self.lower}, {self.upper}]"
                )
            object.__setattr__(self, "values", vals)

    @property
    def is_finite(self) -> bool:
        return self.values is not None

    def clamp(self, value: float) -> float:
        """Nearest admissible value (ties on finite sets resolve downward)."""
        if math.isnan(value):
            raise DataValidationError(f"{self.name}: NaN is not a value")
        v = min(max(value, self.lower), self.upper)
        if self.values is not None:
            # nearest element; linear scan is fine for the small sets used here
            best = self.values[0]
            bestgap = abs(v - best)
            for cand in self.values[1:]:
                gap = abs(v - cand)
                if gap < bestgap:
                    best, bestgap = cand, gap
            v = best
        return v


class DataSpace:
    """Ordered collection of variables; index lookup by name is a bijection."""

    __slots__ = ("vars", "names", "_index", "lowers", "uppers", "_finite_idx", "_bounds",
                 "clamp_events")

    def __init__(self, vars: Iterable[VarSpec]):
        self.vars: tuple[VarSpec, ...] = tuple(vars)
        self.names: tuple[str, ...] = tuple(v.name for v in self.vars)
        if len(set(self.names)) != len(self.names):
            raise DataValidationError("variable names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}
        self.lowers = np.array([v.lower for v in self.vars], dtype=np.float64)
        self.uppers = np.array([v.upper for v in self.vars], dtype=np.float64)
        self._finite_idx = [i for i, v in enumerate(self.vars) if v.is_finite]
        # (n, v) copies of the bounds for the last block size clamped; a
        # broadcast (v,) operand costs about three times as much per block
        self._bounds = (self.lowers[None, :], self.uppers[None, :])
        # Running tally of out-of-domain process writes (per process; informational).
        self.clamp_events = 0

    def __len__(self) -> int:
        return len(self.vars)

    def __eq__(self, other) -> bool:
        return isinstance(other, DataSpace) and self.vars == other.vars

    def __hash__(self) -> int:
        return hash(self.vars)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def clamp_values(self, values: Sequence[float]) -> tuple[list[float], int]:
        """Clamp a full vector into the domain; returns (clamped, clamp count)."""
        out = []
        clamps = 0
        for spec, v in zip(self.vars, values):
            w = spec.clamp(float(v))
            if w != v:
                clamps += 1
            out.append(w)
        self.clamp_events += clamps
        return out, clamps

    def clamp_batch(self, values: np.ndarray, inputs: np.ndarray | None = None) -> np.ndarray:
        """:meth:`VarSpec.clamp` on every entry of an (n, v) block; returns a new block.

        NaN raises :class:`DataValidationError` naming the variable, with the
        first bad row in its ``row``.  ``inputs``, when given, is an
        admissible block the values were computed from: a finite-set column
        equal to its input column is already admissible and is not snapped.
        Clamps made here are not counted in ``clamp_events``.
        """
        n = values.shape[0]
        if self._bounds[0].shape[0] != n:
            self._bounds = (np.tile(self.lowers, (n, 1)), np.tile(self.uppers, (n, 1)))
        out = np.maximum(values, self._bounds[0])  # max then min, as VarSpec.clamp
        np.minimum(out, self._bounds[1], out=out)
        if out.size and np.isnan(out.max()):  # the maximum is NaN iff an entry is
            row, col = np.argwhere(np.isnan(out))[0].tolist()
            raise DataValidationError(f"{self.names[col]}: NaN is not a value", row=row)
        finite = self._finite_idx
        if finite and inputs is not None:
            same = np.equal(out, inputs)[:, finite].all(axis=0)
            finite = [j for j, kept in zip(finite, same.tolist()) if not kept]
        for j in finite:
            clamp = self.vars[j].clamp
            out[:, j] = [clamp(v) for v in out[:, j].tolist()]
        return out

    def state(self, values: Sequence[float] | dict[str, float]) -> "DataState":
        """Build a DataState from a vector in variable order or a full dict."""
        if isinstance(values, dict):
            missing = [n for n in self.names if n not in values]
            if missing:
                raise StructuralError(f"missing values for variables {missing}")
            extra = [n for n in values if n not in self._index]
            if extra:
                raise StructuralError(f"unknown variables {extra}")
            values = [values[n] for n in self.names]
        return make_data_state(self, values)

    def to_json_dict(self) -> dict:
        out = []
        for v in self.vars:
            entry: dict = {"name": v.name, "lower": v.lower, "upper": v.upper}
            entry["kind"] = "finite" if v.is_finite else "continuous"
            if v.is_finite:
                entry["values"] = list(v.values)
            out.append(entry)
        return {"vars": out}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DataSpace":
        specs = []
        for entry in data["vars"]:
            values = tuple(entry["values"]) if entry.get("kind") == "finite" else None
            specs.append(VarSpec(entry["name"], entry["lower"], entry["upper"], values))
        return cls(specs)


class DataState:
    """Immutable assignment of one value per variable of a data space."""

    __slots__ = ("space", "values")

    def __init__(self, space: DataSpace, values: tuple[float, ...]):
        # Internal: assumes values already clamped; use make_data_state / update.
        self.space = space
        self.values = values

    def __getitem__(self, name: str) -> float:
        return self.values[self.space.index(name)]

    def get(self, name: str) -> float:
        return self[name]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DataState)
            and self.space == other.space
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v:g}" for n, v in zip(self.space.names, self.values))
        return f"DataState({inner})"

    def update(self, assignments: Sequence[tuple[str, float]]) -> "DataState":
        """New state with the given writes applied in order; later writes win."""
        if not assignments:
            return self
        vals = list(self.values)
        clamps = 0
        for name, value in assignments:
            i = self.space.index(name)
            if math.isnan(value):
                raise DataValidationError(f"{name}: NaN write rejected")
            w = self.space.vars[i].clamp(float(value))
            if w != value:
                clamps += 1
            vals[i] = w
        self.space.clamp_events += clamps
        return DataState(self.space, tuple(vals))

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.space.names, self.values))

    def to_json_dict(self) -> dict:
        out = self.space.to_json_dict()
        out["values"] = list(self.values)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DataState":
        data = json.loads(text)
        return DataSpace.from_json_dict(data).state(data["values"])


def make_data_state(space: DataSpace, values: Sequence[float]) -> DataState:
    """Data state from a vector in variable order; out-of-domain values clamp."""
    if len(values) != len(space):
        raise StructuralError(
            f"expected {len(space)} values, got {len(values)}"
        )
    for name, v in zip(space.names, values):
        if math.isnan(float(v)):
            raise DataValidationError(f"{name}: NaN is not a value")
    clamped, _ = space.clamp_values(values)
    return DataState(space, tuple(clamped))


# ---------------------------------------------------------------------------
# Penalty functions
# ---------------------------------------------------------------------------


class PenaltyFunction:
    """Time-indexed score of how far a data state is from the system objective.

    Implementations must be pure -- the same (step, state) always yields the
    same value -- and SHOULD be continuous in the state; continuity is a
    modelling obligation that cannot be checked mechanically.  Outputs are
    clamped into [0, 1].
    """

    id: str = "penalty"

    def raw(self, step: int, values: Sequence[float], space: DataSpace) -> float:
        raise NotImplementedError

    def __call__(self, step: int, state: DataState) -> float:
        return penalty_eval(self, step, state)

    def eval_values(self, step: int, values: Sequence[float], space: DataSpace) -> float:
        v = self.raw(step, values, space)
        if math.isnan(v):
            raise DataValidationError(f"penalty {self.id} evaluated to NaN")
        return min(1.0, max(0.0, v))

    def eval_batch(self, step: int, values: np.ndarray, space: DataSpace) -> np.ndarray:
        """Vectorized evaluation over rows of ``values``; clamped to [0, 1]."""
        out = np.empty(values.shape[0])
        for i in range(values.shape[0]):
            out[i] = self.eval_values(step, values[i], space)
        return out


def penalty_eval(rho: PenaltyFunction, step: int, state: DataState) -> float:
    """Evaluate a penalty at a time step; result is always in [0, 1]."""
    if step < 0:
        raise PreconditionError(f"time step must be non-negative, got {step}")
    return rho.eval_values(step, state.values, state.space)


@dataclass(frozen=True)
class GoalPenalty(PenaltyFunction):
    """Normalised distance of one variable from a goal value.

    |d(var) - goal| / max(upper - goal, goal - lower), the standard
    goal-tracking penalty for a variable with domain [lower, upper].
    """

    var: str
    goal: float
    lower: float
    upper: float
    id: str = ""

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", f"goal[{self.var}]")
        denom = max(self.upper - self.goal, self.goal - self.lower)
        if denom <= 0:
            raise DataValidationError(f"{self.id}: degenerate goal normalisation")

    def raw(self, step, values, space):
        denom = max(self.upper - self.goal, self.goal - self.lower)
        return abs(values[space.index(self.var)] - self.goal) / denom

    def eval_batch(self, step, values, space):
        denom = max(self.upper - self.goal, self.goal - self.lower)
        col = values[:, space.index(self.var)]
        return np.clip(np.abs(col - self.goal) / denom, 0.0, 1.0)


@dataclass(frozen=True)
class MaxPenalty(PenaltyFunction):
    """Pointwise maximum of component penalties."""

    parts: tuple[PenaltyFunction, ...]
    id: str = ""

    def __post_init__(self):
        if not self.parts:
            raise DataValidationError("MaxPenalty needs at least one component")
        if not self.id:
            object.__setattr__(self, "id", "max(" + ",".join(p.id for p in self.parts) + ")")

    def raw(self, step, values, space):
        return max(p.eval_values(step, values, space) for p in self.parts)

    def eval_batch(self, step, values, space):
        cols = [p.eval_batch(step, values, space) for p in self.parts]
        return np.maximum.reduce(cols)


@dataclass(frozen=True)
class ConvexPenalty(PenaltyFunction):
    """Convex combination of component penalties; weights must sum to 1."""

    parts: tuple[tuple[float, PenaltyFunction], ...]
    id: str = ""

    def __post_init__(self):
        total = sum(w for w, _ in self.parts)
        if abs(total - 1.0) > 1e-9 or any(w < 0 for w, _ in self.parts):
            raise DataValidationError("convex combination weights must be >= 0 and sum to 1")
        if not self.id:
            inner = "+".join(f"{w:g}*{p.id}" for w, p in self.parts)
            object.__setattr__(self, "id", f"mix({inner})")

    def raw(self, step, values, space):
        return sum(w * p.eval_values(step, values, space) for w, p in self.parts)

    def eval_batch(self, step, values, space):
        out = np.zeros(values.shape[0])
        for w, p in self.parts:
            out += w * p.eval_batch(step, values, space)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class VarPenalty(PenaltyFunction):
    """Reads a [0, 1]-valued variable (e.g. a running false-negative average)."""

    var: str
    id: str = ""

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", f"var[{self.var}]")

    def raw(self, step, values, space):
        return values[space.index(self.var)]

    def eval_batch(self, step, values, space):
        return np.clip(values[:, space.index(self.var)], 0.0, 1.0)


@dataclass(frozen=True)
class RatioPenalty(PenaltyFunction):
    """Ratio of two counter variables, 0 when the denominator is 0."""

    numerator: str
    denominator: str
    id: str = ""

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", f"ratio[{self.numerator}/{self.denominator}]")

    def raw(self, step, values, space):
        den = values[space.index(self.denominator)]
        if den == 0:
            return 0.0
        return values[space.index(self.numerator)] / den

    def eval_batch(self, step, values, space):
        num = values[:, space.index(self.numerator)]
        den = values[:, space.index(self.denominator)]
        out = np.divide(num, den, out=np.zeros_like(num), where=den != 0)
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class FnPenalty(PenaltyFunction):
    """Arbitrary pure function wrapper, for tests and ad-hoc objectives."""

    fn: Callable[[int, DataState], float]
    id: str = "fn"

    def raw(self, step, values, space):
        return self.fn(step, DataState(space, tuple(values)))
