"""Exact enumeration oracle for configurations with a finite-support kernel.

The test suite checks sampled estimates against these exact per-step
distributions (criterion 4, the weak-convergence smoke test).
"""

from evometric.dataspace import DataState
from evometric.engine import Configuration
from evometric.environment import FiniteKernel
from evometric.errors import PreconditionError
from evometric.process import pstep


def enumerate_multi_step(c: Configuration, steps: int) -> list[dict]:
    """Exact per-step distributions over (process, value tuple) pairs.

    Only valid for configurations whose environment is a FiniteKernel; the
    expansion follows the one-step kernel exactly: process step probabilities
    times environment transition probabilities, with domain clamping applied
    the same way the sampler applies it.
    """
    if not isinstance(c.env, FiniteKernel):
        raise PreconditionError("enumeration needs a finite-support environment kernel")
    space = c.space
    current: dict = {(c.process, c.data.values): 1.0}
    out = [dict(current)]
    for _ in range(steps):
        nxt: dict = {}
        for (proc, values), q in current.items():
            d = DataState(space, values)
            for p, effect, cont in pstep(proc, d, c.defs):
                after = d.update(effect)
                for pe, succ in c.env.support(after.values):
                    clamped, _ = space.clamp_values(succ)
                    key = (cont, tuple(clamped))
                    nxt[key] = nxt.get(key, 0.0) + q * p * pe
        current = nxt
        out.append(dict(current))
    return out


def enumerate_data_marginal(c: Configuration, steps: int) -> list[dict]:
    """Exact per-step distributions over value tuples (processes marginalised)."""
    out = []
    for dist in enumerate_multi_step(c, steps):
        marg: dict = {}
        for (_, values), q in dist.items():
            marg[values] = marg.get(values, 0.0) + q
        out.append(marg)
    return out
