"""The vectorized lockstep path against the reference interpreter.

Both case studies ship a numpy simulator of their process term next to it;
after the process effects it steps the configuration's own environment
kernel, the same ``sample_batch`` the interpreter steps, on the whole block.
These properties draw models, attacks, environments whose parameters are
drawn independently of the process's (or the identity kernel, which draws
nothing), initial states at the domain edges, stream offsets and horizons
past the 256-step draw chunk, and require the two paths to agree bit for bit.
"""

from dataclasses import replace

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from evometric.engine import estimate, estimate_penalties
from evometric.environment import IdentityKernel
from evometric.models.engine_system import (
    AttackConfig,
    EngineEnv,
    EngineParams,
    engine_penalties,
    engine_system,
)
from evometric.models.three_tanks import (
    ThreeTanksEnv,
    ThreeTanksParams,
    tanks_configuration,
    tanks_penalties,
)
from evometric.rng import RandomStream

# a failing example is reported as drawn: shrinking reruns the interpreter
# over hundreds of steps per candidate and takes minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)

# short horizons, and horizons that read a second chunk of the draw tape
horizons = st.one_of(st.integers(0, 30), st.integers(257, 280))
# the domain edges of temp, and the controller's threshold and max_temp
edge_temperatures = st.sampled_from([-50.0, -49.5, 99.8, 100.0, 499.5, 500.0])
temperatures = st.one_of(edge_temperatures, st.floats(-50.0, 500.0))


@st.composite
def tanks_params(draw):
    return ThreeTanksParams(
        l_goal=draw(st.floats(2.0, 18.0)),
        delta_l=draw(st.floats(0.1, 2.0)),
        q_step=draw(st.floats(0.0, 3.0)),
        q_med=draw(st.floats(0.0, 6.0)),
        delta_q=draw(st.floats(0.05, 2.0)),
        dt=draw(st.floats(0.01, 0.5)),
        scenario=draw(st.sampled_from([1, 2])),
    )


@st.composite
def tanks_cases(draw):
    params = draw(tanks_params())
    env = draw(st.one_of(tanks_params().map(ThreeTanksEnv), st.just(IdentityKernel())))
    levels = st.one_of(st.sampled_from([0.0, 20.0]), st.floats(0.0, 20.0))
    init = {name: draw(levels) for name in ("l1", "l2", "l3")}
    init.update({name: draw(st.floats(0.0, 6.0)) for name in ("q1", "q2", "q3")})
    c = replace(tanks_configuration(params, init=init), env=env)
    return c, list(tanks_penalties(params).values())


@st.composite
def engine_params(draw):
    max_temp = draw(st.floats(95.0, 105.0))
    return EngineParams(
        max_temp=max_temp,
        stress_incr=draw(st.floats(0.0, 0.5, exclude_min=True)),
        threshold=max_temp - draw(st.floats(0.0, 3.0)),
        clearance=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def engine_cases(draw):
    dual = draw(st.booleans())
    attacks, init = [], {}
    for side in ("L", "R") if dual else ("L",):
        if draw(st.booleans()):
            attacks.append(AttackConfig("act", side, ac=draw(st.floats(1.0, 3.0))))
        fake = draw(st.sampled_from([None, "sen", "saw"]))
        tf = draw(st.floats(0.0, 10.0, exclude_min=True))
        if fake == "sen":
            attacks.append(AttackConfig("sen", side, tf=tf))
        elif fake == "saw":
            attacks.append(AttackConfig("saw", side, tf=tf, awml=1000))
            left = draw(st.integers(0, 300))
            init[f"left_{side}"] = float(left)
            init[f"right_{side}"] = float(left + draw(st.integers(0, 300)))
        init[f"temp_{side}"] = draw(edge_temperatures)
        init[f"cool_{side}"] = draw(st.sampled_from([0.0, 1.0]))
        init[f"speed_{side}"] = draw(st.sampled_from([0.0, 1.0, 2.0]))
        init.update({f"p{k}_{side}": draw(temperatures) for k in range(1, 7)})
    c = engine_system(draw(engine_params()), attacks=tuple(attacks), dual=dual, init=init)
    env = draw(st.one_of(engine_params().map(lambda p: EngineEnv(p, dual)),
                         st.just(IdentityKernel())))
    return replace(c, env=env), list(engine_penalties(dual).values())


def _assert_paths_agree(c, penalties, k, N, seed, run_offset, obs):
    # the fast path must bind, or both calls would run the interpreter
    c.lockstep.start(c, 1, RandomStream.from_seed(seed).key, 0, k)
    fast = estimate(c, k, N, seed, use_fast_path=True)
    slow = estimate(c, k, N, seed, use_fast_path=False)
    assert np.array_equal(fast.states, slow.states)

    args = (c, k, N, seed, penalties, obs)
    fast = estimate_penalties(*args, use_fast_path=True, run_offset=run_offset)
    slow = estimate_penalties(*args, use_fast_path=False, run_offset=run_offset)
    assert np.array_equal(fast, slow)


@given(case=tanks_cases(), k=horizons, N=st.integers(1, 3), seed=st.integers(0, 2**32),
       run_offset=st.integers(1, 10**6), data=st.data())
@settings(max_examples=25, phases=NO_SHRINK)
def test_tanks_fast_path_equals_interpreter(case, k, N, seed, run_offset, data):
    c, penalties = case
    obs = sorted(data.draw(st.sets(st.integers(0, k), min_size=1, max_size=6)))
    _assert_paths_agree(c, penalties, k, N, seed, run_offset, obs)


@given(case=engine_cases(), k=horizons, N=st.integers(1, 3), seed=st.integers(0, 2**32),
       run_offset=st.integers(1, 10**6), data=st.data())
@settings(max_examples=25, phases=NO_SHRINK)
def test_engine_fast_path_equals_interpreter(case, k, N, seed, run_offset, data):
    c, penalties = case
    obs = sorted(data.draw(st.sets(st.integers(0, k), min_size=1, max_size=6)))
    _assert_paths_agree(c, penalties, k, N, seed, run_offset, obs)


def test_swapped_environment_is_the_one_stepped():
    # a configuration whose env was replaced keeps its lockstep; both paths
    # must step the new kernel, not the model's built-in one
    tanks = replace(tanks_configuration(scenario=1),
                    env=ThreeTanksEnv(ThreeTanksParams(scenario=2)))
    engine = replace(engine_system(attacks=(AttackConfig.parse("sen:L:0.4"),)),
                     env=EngineEnv(EngineParams(max_temp=99, threshold=98, stress_incr=0.5)))
    for c, k, rho in ((tanks, 20, tanks_penalties(ThreeTanksParams())["l3"]),
                      (engine, 300, engine_penalties()["stress_L"])):
        _assert_paths_agree(c, [rho], k, 3, 1, 7, [0, k // 2, k])


class FlippedLayoutEngineEnv(EngineEnv):
    """The engine kernel returning a row-major block for a column-major
    input and the other way round."""

    def sample_batch(self, values, u):
        out = super().sample_batch(values, u)
        return np.asarray(out, order="C" if values.flags.f_contiguous else "F")


def test_mixed_block_layouts_match_the_interpreter():
    # the engine lockstep hands the kernel column-major blocks; a kernel may
    # return either layout, and the clamp keeps the one it gets
    c = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),),
                      init={"left_L": 5.0, "right_L": 60.0, "temp_L": 99.8})
    key = RandomStream.from_seed(3).key
    assert c.lockstep.start(c, 3, key, 0, 10).current().flags.f_contiguous
    flipped = replace(c, env=FlippedLayoutEngineEnv(EngineParams(stress_incr=0.3)))
    _assert_paths_agree(flipped, list(engine_penalties().values()), 120, 3, 3, 5, [0, 7, 60, 120])
