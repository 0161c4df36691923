"""Variables, domains, data states, and penalty functions.

A data state assigns one real value to every variable of a data space.  Writes
that land outside a variable's domain are clamped, mirroring physical
saturation; they are never rejected.  ``DataSpace.clamp_events`` counts the
values that clamp in :meth:`DataSpace.state` and :meth:`DataState.update`:
in built states, in process writes (the compiled programs count theirs by
the same rules) and in perturbation samplers' updates.  Environment steps
are clamped a block at a time (:meth:`DataSpace.clamp_batch`, or only the
columns a kernel declares ``clamped``; a single state as a one-row block)
and are not counted.
Penalty functions score a data state in [0, 1] at a given time step, 0
meaning "on target".
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DataValidationError, PreconditionError, StructuralError

try:  # the clip ufunc itself: ndarray.clip adds a Python wrapper's cost per call
    from numpy._core.umath import clip as _clip_ufunc
except ImportError:  # numpy < 2, where numpy.core is not deprecated
    from numpy.core.umath import clip as _clip_ufunc

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
        """Nearest admissible value (ties on finite sets resolve downward).

        A bound wins a tie with the value, as ``np.maximum`` and
        ``np.minimum`` let it in :meth:`DataSpace.clamp_batch`, so -0.0
        clamps to a lower bound 0.0.
        """
        if math.isnan(value):
            raise DataValidationError(f"{self.name}: NaN is not a value")
        v = min(self.upper, max(self.lower, value))
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


def clamp_array(values: np.ndarray, spec: VarSpec) -> np.ndarray:
    """:meth:`VarSpec.clamp` of every entry, bit for bit, as a new array: the
    bounds (a bound wins a tie), then the nearest element of a finite set,
    ties downward.  A NaN entry is not rejected; it comes back different
    from itself."""
    lo, hi = spec.lower, spec.upper
    w = np.where(values <= lo, lo, values)
    w = np.where(w >= hi, hi, w)
    if spec.values is not None:
        best = np.full_like(w, spec.values[0])
        gap = np.abs(w - spec.values[0])
        for cand in spec.values[1:]:
            g = np.abs(w - cand)
            closer = g < gap
            best = np.where(closer, cand, best)
            gap = np.where(closer, g, gap)
        w = best
    return w


class DataSpace:
    """Ordered collection of variables; index lookup by name is a bijection."""

    __slots__ = ("vars", "names", "_index", "lowers", "uppers", "_lower_list", "_upper_list",
                 "_finite_idx", "_bounds", "clamp_events")

    def __init__(self, vars: Iterable[VarSpec]):
        self.vars: tuple[VarSpec, ...] = tuple(vars)
        self.names: tuple[str, ...] = tuple(v.name for v in self.vars)
        if len(set(self.names)) != len(self.names):
            raise DataValidationError("variable names must be unique")
        self._index = {name: i for i, name in enumerate(self.names)}
        self.lowers = np.array([v.lower for v in self.vars], dtype=np.float64)
        self.uppers = np.array([v.upper for v in self.vars], dtype=np.float64)
        self._lower_list = [v.lower for v in self.vars]
        self._upper_list = [v.upper for v in self.vars]
        self._finite_idx = [i for i, v in enumerate(self.vars) if v.is_finite]
        # (n, v) copies of the bounds in the layout of the last block
        # clamped; a broadcast (v,) operand costs about three times as much
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
        """Clamp a full vector into the domain; returns (clamped, clamp count).

        The row is compared with the bounds once; :meth:`VarSpec.clamp`
        runs only on the entries that are not strictly inside them (a bound
        itself, outside, or NaN, which it rejects) and on finite-set
        variables.  An entry strictly inside is its own float already.
        """
        row = values.tolist() if isinstance(values, np.ndarray) else list(values)
        out = [float(v) for v in row]
        if all(map(operator.lt, self._lower_list, out)) and \
                all(map(operator.lt, out, self._upper_list)):
            check = self._finite_idx
            if not check:
                return out, 0
        else:
            check = [j for j, (lo, v, hi) in enumerate(zip(self._lower_list, out, self._upper_list))
                     if not lo < v < hi or self.vars[j].is_finite]
        for j in check:
            out[j] = self.vars[j].clamp(out[j])
        clamps = int(sum(map(operator.ne, out, row)))
        self.clamp_events += clamps
        return out, clamps

    def clamp_batch(self, values: np.ndarray, inputs: np.ndarray | None = None) -> np.ndarray:
        """:meth:`VarSpec.clamp` on every entry of an (n, v) block; returns a new block.

        NaN raises :class:`DataValidationError` naming the variable, with the
        first bad row in its ``row``.  ``inputs``, when given, is an
        admissible block the values were computed from: a finite-set entry
        equal to its input is already admissible and is not snapped, so a
        row clamps alike in any block.  Clamps made
        here are not counted in ``clamp_events``.  The result has the memory
        layout of ``values`` (row- or column-major).
        """
        lowers = self._bounds[0]
        if lowers.shape[0] != values.shape[0] or \
                lowers.flags.f_contiguous != values.flags.f_contiguous:
            order = "F" if values.flags.f_contiguous else "C"
            self._bounds = tuple(np.broadcast_to(b, values.shape).copy(order=order)
                                 for b in (self.lowers, self.uppers))
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
            col = out[:, j]
            rows = slice(None) if inputs is None else np.flatnonzero(col != inputs[:, j])
            col[rows] = clamp_array(col[rows], self.vars[j])
        return out

    def state(self, values: Sequence[float] | dict[str, float]) -> "DataState":
        """Build a DataState from a vector in variable order or a full dict;
        out-of-domain values clamp and NaN raises."""
        if isinstance(values, dict):
            missing = [n for n in self.names if n not in values]
            if missing:
                raise StructuralError(f"missing values for variables {missing}")
            extra = [n for n in values if n not in self._index]
            if extra:
                raise StructuralError(f"unknown variables {extra}")
            values = [values[n] for n in self.names]
        if len(values) != len(self):
            raise StructuralError(f"expected {len(self)} values, got {len(values)}")
        clamped, _ = self.clamp_values(values)
        return DataState(self, tuple(clamped))


class DataState:
    """Immutable assignment of one value per variable of a data space."""

    __slots__ = ("space", "values")

    def __init__(self, space: DataSpace, values: tuple[float, ...]):
        # Internal: assumes values already clamped; use DataSpace.state / update.
        self.space = space
        self.values = values

    def __getitem__(self, name: str) -> float:
        return self.values[self.space.index(name)]

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


# ---------------------------------------------------------------------------
# Penalty functions
# ---------------------------------------------------------------------------


class PenaltyFunction:
    """Time-indexed score of how far a data state is from the system objective.

    A penalty is written once, as a batch function: a subclass implements
    :meth:`score_batch`, the scores of an (n, v) block of data states at one
    step, before clipping.  :meth:`eval_batch` (every estimate),
    :meth:`eval_values` and calls (one state, as a one-row block) all clip
    those scores into [0, 1] and reject a NaN score with
    :class:`DataValidationError` in one place, so a state gets the same
    penalty, bit for bit, on every path.

    Implementations must be pure and row-independent -- row ``i`` of the
    result depends only on ``step`` and row ``i`` of ``values`` -- must not
    modify their input, and SHOULD be continuous in the state; continuity is
    a modelling obligation that cannot be checked mechanically.
    """

    id: str = "penalty"

    def score_batch(self, step: int, values: np.ndarray, space: DataSpace) -> np.ndarray:
        """Scores (n,) of the states ``values`` (n, v) at ``step``, before
        clipping into [0, 1]."""
        raise NotImplementedError

    def __call__(self, step: int, state: DataState) -> float:
        """The penalty of a data state at a time step, in [0, 1]."""
        if step < 0:
            raise PreconditionError(f"time step must be non-negative, got {step}")
        return self.eval_values(step, state.values, state.space)

    def eval_values(self, step: int, values: Sequence[float], space: DataSpace) -> float:
        """The penalty of one state, given by its values in variable order:
        its row of a one-row :meth:`eval_batch`."""
        return float(self._clipped(step, np.array([values], dtype=np.float64), space)[0])

    def eval_batch(self, step: int, values: np.ndarray, space: DataSpace) -> np.ndarray:
        """Penalties (n,) of the states ``values`` (n, v), in [0, 1]."""
        return self._clipped(step, values, space)

    def _clipped(self, step: int, values: np.ndarray, space: DataSpace) -> np.ndarray:
        return _clip(self.score_batch(step, values, space), (self,))


def _clip(scores: np.ndarray, penalties: Sequence[PenaltyFunction]) -> np.ndarray:
    """``scores`` clipped into [0, 1] as a new array: the (n,) scores of one
    penalty, or a (parts, n) block, a row per penalty.  The first NaN in
    row-major order raises, naming its penalty and its row of the states."""
    out = _clip_ufunc(scores, 0.0, 1.0)  # np.clip's bits, without its dispatch
    flat = out if out.ndim == 1 else out.reshape(-1)
    if math.isnan(flat.dot(flat)):  # NaN iff an entry is, as the others are in [0, 1]
        part, row = divmod(int(np.flatnonzero(np.isnan(flat))[0]), out.shape[-1])
        raise DataValidationError(f"penalty {penalties[part].id} evaluated to NaN", row=row)
    return out


def _part_scores(parts, step: int, values: np.ndarray, space: DataSpace) -> np.ndarray:
    """The clipped (parts, n) block of the parts' scores of ``values``.  A
    part that raises (a composite part rejecting a NaN of its own) does so
    after a NaN of an earlier part, as if each part were checked in turn."""
    block = np.empty((len(parts), values.shape[0]))
    for i, p in enumerate(parts):
        try:
            block[i] = p.score_batch(step, values, space)
        except Exception:
            _clip(block[:i], parts)
            raise
    return _clip(block, parts)


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
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_column", (None, None))  # (space, its index of var)

    def score_batch(self, step, values, space):
        seen, col = self._column
        if seen is not space:
            col = space.index(self.var)
            object.__setattr__(self, "_column", (space, col))
        return np.abs(values[:, col] - self.goal) / self._denom


@dataclass(frozen=True)
class MaxPenalty(PenaltyFunction):
    """Pointwise maximum of component penalties, each clipped into [0, 1]."""

    parts: tuple[PenaltyFunction, ...]
    id: str = ""

    def __post_init__(self):
        if not self.parts:
            raise DataValidationError("MaxPenalty needs at least one component")
        if not self.id:
            object.__setattr__(self, "id", "max(" + ",".join(p.id for p in self.parts) + ")")

    def score_batch(self, step, values, space):
        # in part order: maximum(maximum(p0, p1), p2), ... for every row
        return np.maximum.reduce(_part_scores(self.parts, step, values, space))

    def _clipped(self, step, values, space):
        # the maximum of clipped parts is in [0, 1] (-0.0 included) and not
        # NaN, where the clip returns every value as it is
        return self.score_batch(step, values, space)


@dataclass(frozen=True)
class ConvexPenalty(PenaltyFunction):
    """Convex combination of component penalties, each clipped into [0, 1];
    weights must sum to 1."""

    parts: tuple[tuple[float, PenaltyFunction], ...]
    id: str = ""

    def __post_init__(self):
        total = sum(w for w, _ in self.parts)
        if not abs(total - 1.0) <= 1e-9 or not all(w >= 0 for w, _ in self.parts):
            raise DataValidationError("convex combination weights must be >= 0 and sum to 1")
        if not self.id:
            inner = "+".join(f"{w:g}*{p.id}" for w, p in self.parts)
            object.__setattr__(self, "id", f"mix({inner})")

    def score_batch(self, step, values, space):
        block = _part_scores([p for _, p in self.parts], step, values, space)
        out = np.zeros(values.shape[0])
        for (w, _), row in zip(self.parts, block):
            out += w * row
        return out


@dataclass(frozen=True)
class VarPenalty(PenaltyFunction):
    """Reads a [0, 1]-valued variable (e.g. a running false-negative average)."""

    var: str
    id: str = ""

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", f"var[{self.var}]")

    def score_batch(self, step, values, space):
        return values[:, space.index(self.var)]


@dataclass(frozen=True)
class RatioPenalty(PenaltyFunction):
    """Ratio of two counter variables, 0 when the denominator is 0."""

    numerator: str
    denominator: str
    id: str = ""

    def __post_init__(self):
        if not self.id:
            object.__setattr__(self, "id", f"ratio[{self.numerator}/{self.denominator}]")

    def score_batch(self, step, values, space):
        num = values[:, space.index(self.numerator)]
        den = values[:, space.index(self.denominator)]
        with np.errstate(over="ignore"):  # a ratio that overflows to inf clips to 1
            return np.divide(num, den, out=np.zeros_like(num), where=den != 0)
