import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from evometric.dataspace import DataSpace, VarSpec
from evometric.environment import FiniteKernel
from evometric.process import Call, Const, If, Interleave, Op, PChoice, Prefix, SyncPar, Var

# property tests draw the same examples on every run and leave no example
# database behind; simulation-backed examples have no per-example deadline
settings.register_profile("evometric", derandomize=True, database=None, deadline=None)
settings.load_profile("evometric")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis also caches the literals of local modules in its home
    # directory (.hypothesis/ by default) while collecting; keep that cache
    # in a temporary directory that lives as long as the test session
    home = tempfile.mkdtemp(prefix="evometric-hypothesis-")
    config.stash[_HYPOTHESIS_HOME] = home
    set_hypothesis_home_dir(home)


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def small_space():
    return DataSpace([
        VarSpec("x", -10.0, 10.0),
        VarSpec("y", 0.0, 1.0),
        VarSpec("z", 0.0, 5.0),
    ])


@pytest.fixture
def toy_space():
    return DataSpace([
        VarSpec("x", 0.0, 3.0, values=(0.0, 1.0, 2.0, 3.0)),
        VarSpec("y", 0.0, 1.0, values=(0.0, 1.0)),
    ])


def _toy_transition(values):
    x, y = values
    return [(0.7, (min(x + 1.0, 3.0), y)), (0.3, (0.0, y))]


def toy_kernel() -> FiniteKernel:
    """x climbs by one (capped at 3) w.p. 0.7 and resets w.p. 0.3; y is the
    program's variable.  Module-level transition keeps the kernel picklable
    for the worker-pool tests."""
    return FiniteKernel(_toy_transition, id="toy-climb")


def toy_process():
    a = PChoice((
        (0.5, Prefix((Const(1.0),), ("y",), Call("A"))),
        (0.5, Prefix((Const(0.0),), ("y",), Call("A"))),
    ))
    return Call("A"), {"A": a}


# ---------------------------------------------------------------------------
# Random valid process generation (seeded, used by normalization properties)
# ---------------------------------------------------------------------------


def random_expr(r: np.random.Generator, names, depth: int):
    if depth <= 0 or r.random() < 0.35:
        if r.random() < 0.5:
            return Var(names[r.integers(len(names))])
        return Const(float(np.round(r.uniform(-3, 3), 3)))
    op = ["+", "-", "*", "min", "max", "abs"][r.integers(6)]
    if op == "abs":
        return Op(op, (random_expr(r, names, depth - 1),))
    return Op(op, (random_expr(r, names, depth - 1), random_expr(r, names, depth - 1)))


def random_guard(r: np.random.Generator, names, depth: int):
    cmp = ["<", "<=", ">", ">="][r.integers(4)]
    return Op(cmp, (random_expr(r, names, depth), random_expr(r, names, depth)))


def random_process(r: np.random.Generator, names, writable, depth: int):
    """A random process writing only variables from ``writable``; always valid
    (weights sum to 1, synchronous operands write-disjoint, recursion guarded
    by a trivial tick loop)."""
    writable = list(writable)
    if depth <= 0 or not writable or r.random() < 0.25:
        k = r.integers(0, min(2, len(writable)) + 1) if writable else 0
        targets = tuple(
            writable[i] for i in r.choice(len(writable), size=k, replace=False)
        ) if k else ()
        exprs = tuple(random_expr(r, names, 1) for _ in targets)
        return Prefix(exprs, targets, Call("Loop"))
    kind = r.integers(4)
    if kind == 0:
        return If(
            random_guard(r, names, 1),
            random_process(r, names, writable, depth - 1),
            random_process(r, names, writable, depth - 1),
        )
    if kind == 1:
        n = int(r.integers(2, 4))
        raw = r.uniform(0.1, 1.0, n)
        w = raw / raw.sum()
        w[-1] = 1.0 - float(w[:-1].sum())
        return PChoice(tuple(
            (float(wi), random_process(r, names, writable, depth - 1)) for wi in w
        ))
    if kind == 2:
        return Interleave(
            random_process(r, names, writable, depth - 1),
            float(np.round(r.uniform(0.1, 0.9), 3)),
            random_process(r, names, writable, depth - 1),
        )
    cut = int(r.integers(0, len(writable) + 1))
    return SyncPar(
        random_process(r, names, writable[:cut], depth - 1),
        random_process(r, names, writable[cut:], depth - 1),
    )


def random_valid_system(r: np.random.Generator, space: DataSpace, depth: int = 3):
    p = random_process(r, space.names, list(space.names), depth)
    return p, {"Loop": Prefix((), (), Call("Loop"))}
