"""Environment evolutions: Markov kernels over data states.

An environment evolution maps a data state to a sampler for the successor
state.  Kernels are written as code (the case studies need arbitrary
arithmetic); the CLI reaches the case-study kernels through
:mod:`.models.registry`.

Kernels must be pure: the output may depend only on the input state and the
random numbers consumed.  Measurability of ``d -> E(d)(B)`` is a modelling
obligation and is not checked at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .dataspace import DataState
from .errors import DataValidationError, StructuralError
from .rng import RandomStream

__all__ = [
    "EnvironmentEvolution",
    "IdentityKernel",
    "FiniteKernel",
    "FunctionKernel",
]


class EnvironmentEvolution:
    """Base class for environment kernels.

    Subclasses implement :meth:`sample_values` on raw value vectors; the
    engine applies domain clamping to the result.  ``id`` identifies the
    kernel in reports.
    """

    id: str = "environment"

    def sample_values(self, values: Sequence[float], rng: RandomStream) -> list[float]:
        raise NotImplementedError

    def sample(self, d: DataState, rng: RandomStream) -> DataState:
        """Draw one successor of ``d`` from the kernel; clamping policy applies."""
        raw = self.sample_values(d.values, rng)
        if len(raw) != len(d.space):
            raise StructuralError(
                f"kernel {self.id!r} returned {len(raw)} values for {len(d.space)} variables"
            )
        clamped, _ = d.space.clamp_values(raw)
        return DataState(d.space, tuple(clamped))


@dataclass(frozen=True)
class IdentityKernel(EnvironmentEvolution):
    """Dirac kernel: the environment never changes anything."""

    id: str = "identity"

    def sample_values(self, values, rng):
        return list(values)


@dataclass(frozen=True)
class FiniteKernel(EnvironmentEvolution):
    """Finite-support kernel defined by a transition function.

    ``transition`` maps a value tuple to a list of (probability, successor
    value tuple) pairs.  Sampling uses the same cumulative selection rule as
    the simulation engine (u in (0,1], first index whose cumulative weight
    reaches u), so toy models stay enumerable and exactly reproducible.
    """

    transition: Callable[[tuple], list]
    id: str = "finite"

    def support(self, values: Sequence[float]) -> list:
        out = self.transition(tuple(values))
        total = sum(p for p, _ in out)
        if abs(total - 1.0) > 1e-9:
            raise DataValidationError(
                f"kernel {self.id!r}: transition probabilities sum to {total!r}"
            )
        return out

    def sample_values(self, values, rng):
        support = self.support(values)
        if len(support) == 1:
            return list(support[0][1])
        u = rng.uniform01()
        acc = 0.0
        for p, succ in support:
            acc += p
            if u <= acc:
                return list(succ)
        return list(support[-1][1])


@dataclass(frozen=True)
class FunctionKernel(EnvironmentEvolution):
    """Kernel wrapping an arbitrary (values, rng) -> values function."""

    fn: Callable[[Sequence[float], RandomStream], list]
    id: str = "function"

    def sample_values(self, values, rng):
        return self.fn(values, rng)
