"""Environment evolutions: Markov kernels over data states.

Every kernel is written once, as a batch kernel: it declares ``draws``, the
uniforms in (0, 1] it consumes per run and step, and implements
``sample_batch(values, u)``, which maps an (n, v) block of data states and
an (n, draws) block of uniforms to the (n, v) block of successors, or the
in-place hook ``sample_into`` (below), from which the base class makes
``sample_batch``.  The interpreter and the compiled programs both step
this one function; the engine clamps its result into the data space, so
kernels need not clamp.

Kernels must be pure and row-independent (row ``i`` of the result depends
only on row ``i`` of ``values`` and ``u``) and must not modify their inputs.
A block may be row- or column-major (the compiled programs keep their
blocks in Fortran order); a kernel may return
either layout, and the result must not depend on it.
``values.copy(order="K")`` keeps the layout it is given.  The uniforms are
column-major on every path (every path reads them from a draw tape), so
each column ``u[:, j]`` is contiguous; a kernel must not rely on that
layout either.

A kernel runs at every step of every run, on every execution path.  A
fast one allocates its result once and computes every value with ``out=``
into that result or into scratch vectors it made itself, since each
temporary of an array expression costs an allocation and a pass through
memory.  It never writes into ``values`` or ``u``, not even as scratch:
``values`` may be a compiled run's own block, into which the process step
wrote its columns in place, or the interpreter's reused buffer, and ``u``
a view of the draw tape.  The clamped result becomes the run's next
block, which the next compiled step writes into, so a kernel keeps no
reference to what it returns.  Written so, the tanks kernel costs 29 %
less per call at 5000 rows and 17 % less at 100 rows than as array
expressions (2-core x86, numpy 2.4), with the same bits.

A kernel may declare ``clamped``: the variables whose successors one step
can move out of their domains.  The declaration promises, for every block
of admissible states of the kernel's own ``space`` and every block of
uniforms in (0, 1], that the result is a fresh array (no view of
``values`` or ``u``), that every other variable's successor is already
admissible (clamping it is the identity, bit for bit), that no finite-set
variable is written (its column is a copy of its input), and that no entry
is NaN.  On blocks of that space, :meth:`EnvironmentEvolution.advance` and
:meth:`EnvironmentEvolution.sample` then clamp only the declared columns,
in place in the result and with the same maximum-then-minimum as
:meth:`DataSpace.clamp_batch`, so every bit is the same.  Adjacent declared
columns with the same bounds (the tank levels l1..l3) take one maximum and
one minimum over their 2-D slice, and a lone column stays 1-D.  The NaN
check and the finite-set compare are skipped, since the promise says
neither can fire.  A kernel without a declaration (``None``, the default,
inherited anew by every subclass that overrides ``sample_batch`` or
``sample_into``) and a block of any other space get the full
``clamp_batch``.

A kernel may instead implement the optional hook ``sample_into(values,
u)``, which overwrites ``values`` with the successors, before clamping, and
returns nothing; the base class's ``sample_batch`` is then a copy of the
block in its own layout followed by ``sample_into``, so the step is still
written once, and the interpreter, :meth:`EnvironmentEvolution.sample` and
``advance`` keep stepping a copy.  A ``sample_into`` is pure and
row-independent as ``sample_batch`` is, leaves ``u`` alone, and writes
last: every operation that can raise or warn comes before its first write
into ``values``, so a step that raises leaves the block untouched, bit for
bit.  The compiled programs step their own block in place through the hook
when the kernel keeps the base ``sample_batch`` and declares ``clamped``,
and the block is of the kernel's own space; they then clamp the declared
columns in place, as ``advance`` does.  A step that raises there is taken
again through ``advance`` on the untouched block, whose one-row re-run
names the failing row.  Both built-in kernels are written so.

Measurability of ``d -> E(d)(B)`` is a modelling obligation and is not
checked at run time.
"""

from __future__ import annotations

import functools
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .dataspace import DataSpace, DataState
from .errors import DataValidationError, SimulationError, StructuralError
from .rng import RandomStream

__all__ = [
    "EnvironmentEvolution",
    "IdentityKernel",
    "FiniteKernel",
]


class EnvironmentEvolution:
    """Base class for environment kernels.

    Subclasses set ``draws`` and implement :meth:`sample_batch`, or the
    optional in-place hook ``sample_into(values, u)``, which overwrites
    ``values`` with the successors, writing last (see the module
    docstring); :meth:`sample_batch` is then a copy followed by it.  ``id``
    identifies the kernel in reports.

    ``clamped``, when not ``None``, names the variables whose successors a
    step can move out of their domains, and the kernel has a ``space``, its
    own data space.  It promises, for admissible blocks of that space and
    uniforms in (0, 1]: a fresh result, every other successor admissible,
    no finite-set variable written, and no NaN (see the module docstring).
    Blocks of that space are then clamped on the declared columns only,
    without the NaN check and the finite-set compare, and a compiled run
    whose kernel also has ``sample_into`` steps its block in place.  A
    subclass that overrides :meth:`sample_batch` or ``sample_into`` without
    declaring ``clamped`` again gets ``None``, the full clamp; one that
    overrides :meth:`sample_batch` is not stepped in place.
    """

    id: str = "environment"
    draws: int = 0
    clamped: tuple[str, ...] | None = None
    # the optional hook sample_into(values, u): the successors, in place
    sample_into = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        if ("sample_batch" in own or "sample_into" in own) and "clamped" not in own:
            cls.clamped = None  # the declaration was made for another step

    def sample_batch(self, values: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Successors (n, v) of the states ``values`` (n, v) given the
        uniforms ``u`` (n, draws), before clamping: by default a copy of
        ``values`` in its own layout, stepped by ``sample_into``."""
        if self.sample_into is None:
            raise NotImplementedError
        out = values.copy(order="K")
        self.sample_into(out, u)
        return out

    def _steps_in_place(self, space: DataSpace) -> bool:
        """Whether a block of ``space`` is stepped by ``sample_into`` and
        then clamped in place (``_clamp``): the kernel has the hook, keeps
        the base :meth:`sample_batch` made from it, and declares ``clamped``
        with ``space`` as its own."""
        base = EnvironmentEvolution.sample_batch
        if self.sample_into is None or type(self).sample_batch is not base:
            return False
        own = self._clamp_columns
        return own is not None and (space is own[0] or space == own[0])

    def sample(self, d: DataState, rng: RandomStream) -> DataState:
        """Draw one successor of ``d``: ``draws`` uniforms from ``rng``, then
        a one-row batch, clamped as :meth:`advance` clamps it."""
        one = np.array([d.values], dtype=np.float64)
        raw = self._successors(one, np.array([[rng.uniform01() for _ in range(self.draws)]]))
        return DataState(d.space, tuple(self._clamp(raw, one, d.space)[0].tolist()))

    def advance(self, values: np.ndarray, u: np.ndarray, space: DataSpace) -> np.ndarray:
        """Clamped successors of a block of admissible states.

        A failure raises :class:`SimulationError` whose ``run`` is the first
        failing row, chained to that row's error; a kernel that raises on the
        block is re-run and clamped one row at a time with the same uniforms
        to find it, so a NaN row before the raising one is named.
        """
        try:
            raw = self._successors(values, u)
        except Exception:
            for row in range(len(values)):
                one = values[row:row + 1]
                try:
                    self._clamp(self._successors(one, u[row:row + 1]), one, space)
                except Exception as exc:
                    raise SimulationError(str(exc), run=row) from exc
            raise
        try:
            return self._clamp(raw, values, space)
        except DataValidationError as exc:
            raise SimulationError(str(exc), run=exc.row) from exc

    def _clamp(self, raw: np.ndarray, values: np.ndarray, space: DataSpace) -> np.ndarray:
        """``space.clamp_batch(raw, values)``, computed on the declared
        columns only when the kernel declares ``clamped`` and ``space`` is
        its own (an identity test; equality is the fallback)."""
        own = self._clamp_columns
        if own is None or (space is not own[0] and space != own[0]):
            return space.clamp_batch(raw, values)
        for cols, lower, upper in own[1]:
            block = raw[:, cols]
            np.maximum(block, lower, out=block)  # max then min, as clamp_batch
            np.minimum(block, upper, out=block)
        return raw

    @functools.cached_property
    def _clamp_columns(self) -> tuple[DataSpace, list] | None:
        """The kernel's own space and (columns, lower, upper) of each run of
        adjacent declared variables with the same bounds, bit for bit, or
        None without a declaration.  The columns of a run are a slice, those
        of a lone variable its index, so that its block stays 1-D."""
        if self.clamped is None:
            return None
        space = self.space
        runs = []  # [first column, end column, lower, upper, bounds' bits]
        for j in sorted(map(space.index, self.clamped)):
            spec = space.vars[j]
            if spec.is_finite:
                raise StructuralError(
                    f"kernel {self.id!r} declares finite-set variable {spec.name!r} clamped")
            bits = float(spec.lower).hex(), float(spec.upper).hex()
            if runs and runs[-1][1] == j and runs[-1][4] == bits:
                runs[-1][1] = j + 1
            else:
                runs.append([j, j + 1, spec.lower, spec.upper, bits])
        return space, [(a if b == a + 1 else slice(a, b), lower, upper)
                       for a, b, lower, upper, _ in runs]

    def _successors(self, values: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = self.sample_batch(values, u)
        if np.shape(out) != values.shape:
            raise StructuralError(
                f"kernel {self.id!r} returned shape {np.shape(out)} for states "
                f"of shape {values.shape}"
            )
        return out


@dataclass(frozen=True)
class IdentityKernel(EnvironmentEvolution):
    """Dirac kernel: the environment never changes anything."""

    id: str = "identity"

    def sample_batch(self, values, u):
        return values.copy()


@dataclass(frozen=True)
class FiniteKernel(EnvironmentEvolution):
    """Finite-support kernel defined by a transition function.

    ``transition`` maps a value tuple to a list of (probability, successor
    value tuple) pairs.  Each row consumes one uniform u in (0, 1], also
    when the support is a single point, and selects the first successor
    whose cumulative weight reaches u, the rule the simulation engine uses
    for process choices; toy models stay enumerable and exactly
    reproducible.
    """

    transition: Callable[[tuple], list]
    id: str = "finite"
    draws = 1

    def support(self, values: Sequence[float]) -> list:
        out = self.transition(tuple(values))
        total = sum(p for p, _ in out)
        if abs(total - 1.0) > 1e-9:
            raise DataValidationError(
                f"kernel {self.id!r}: transition probabilities sum to {total!r}"
            )
        return out

    def sample_batch(self, values, u):
        out = np.empty_like(values)
        for row, (state, ur) in enumerate(zip(values.tolist(), u[:, 0].tolist())):
            weights, successors = zip(*self.support(state))
            first = bisect_left(list(accumulate(weights)), ur)
            out[row] = successors[min(first, len(successors) - 1)]
        return out
