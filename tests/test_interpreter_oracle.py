"""The interpreter's blocks of runs against one run at a time.

``simulate(c, k, base.child(i))`` steps run i alone with ``sim_step`` on
its own scalar stream: a process uniform on a step whose distribution has
more than one triple, then the environment's draws.  The interpreter steps
a block of runs together; row i of ``estimate(..., use_fast_path=False)``
must equal that run bit for bit.  The processes are random systems of
probabilistic choices, interleavings with 0 < p < 1, guards and
synchronous products, so on a step some rows draw a process uniform and
others do not.  A 7-step draw chunk moves each row's stream position
apart across refills and starts refills inside a Philox block.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometric import engine, rng
from evometric.dataspace import DataSpace, VarSpec
from evometric.engine import Configuration, estimate, simulate
from evometric.environment import EnvironmentEvolution, IdentityKernel
from evometric.rng import RandomStream

from conftest import random_valid_system
from test_fast_path_differential import NO_SHRINK

SPACE = DataSpace([
    VarSpec("x", -10.0, 10.0),
    VarSpec("y", 0.0, 1.0),
    VarSpec("z", 0.0, 5.0),
])


class Kick(EnvironmentEvolution):
    """One draw: y is redrawn and x moves by it."""

    id = "kick"
    draws = 1

    def sample_batch(self, values, u):
        out = values.copy(order="K")
        out[:, 0] = values[:, 0] + (u[:, 0] - 0.5)
        out[:, 1] = u[:, 0]
        return out


class Jitter(EnvironmentEvolution):
    """Two draws: x drifts by up to 2 either way, z is redrawn."""

    id = "jitter"
    draws = 2

    def sample_batch(self, values, u):
        out = values.copy(order="K")
        out[:, 0] = values[:, 0] + 4.0 * (u[:, 0] - 0.5)
        out[:, 2] = 5.0 * u[:, 1]
        return out


KERNELS = [IdentityKernel(), Kick(), Jitter()]


@pytest.mark.parametrize("threads", [1, 2])
@given(system=st.integers(0, 2**32 - 1), depth=st.integers(1, 3),
       kernel=st.sampled_from(KERNELS), k=st.integers(0, 30), N=st.integers(1, 70),
       small_blocks=st.booleans(), seed=st.integers(0, 2**31 - 1),
       start=st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 1.0), st.floats(0.0, 5.0)))
@settings(max_examples=40, phases=NO_SHRINK)
def test_each_row_of_the_interpreter_is_its_run_alone(
        threads, system, depth, kernel, k, N, small_blocks, seed, start):
    p, defs = random_valid_system(np.random.default_rng(system), SPACE, depth)
    c = Configuration(p, SPACE.state(list(start)), kernel, defs).validated()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rng, "TAPE_CHUNK_STEPS", 7)
        if small_blocks:
            mp.setattr(engine, "_BLOCK_BYTES", 1)  # blocks of 64 runs
        states = estimate(c, k, N, seed, threads=threads, use_fast_path=False).states
    base = RandomStream.from_seed(seed)
    for i in range(N):
        run = simulate(c, k, base.child(i))
        want = np.array([conf.data.values for conf in run])
        assert states[i].tobytes() == want.tobytes(), i
