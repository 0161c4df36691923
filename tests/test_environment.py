import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometric.dataspace import DataSpace, DataState, VarSpec
from evometric.environment import EnvironmentEvolution, FiniteKernel, IdentityKernel
from evometric.errors import DataValidationError, SimulationError, StructuralError
from evometric.models.engine_system import (
    BOTH,
    LEFT,
    ON,
    RIGHT,
    AttackConfig,
    EngineEnv,
    EngineParams,
    engine_system,
)
from evometric.models.three_tanks import (
    ThreeTanksEnv,
    ThreeTanksParams,
    tanks_configuration,
    tanks_space,
)
from evometric.rng import RandomStream

from conftest import toy_kernel
from test_fast_path_differential import NO_SHRINK


def uniforms(seed: int, n: int, draws: int) -> np.ndarray:
    rng = RandomStream.from_seed(seed)
    return np.array([[rng.uniform01() for _ in range(draws)] for _ in range(n)]).reshape(n, draws)


class TestIdentity:
    def test_returns_state_unchanged(self, small_space):
        d = small_space.state([1.0, 0.5, 2.0])
        assert IdentityKernel().sample(d, RandomStream.from_seed(0)) == d

    def test_draws_nothing(self, small_space):
        rng = RandomStream.from_seed(0)
        IdentityKernel().sample(small_space.state([1.0, 0.5, 2.0]), rng)
        assert rng.uniform01() == RandomStream.from_seed(0).uniform01()


class TestFiniteKernel:
    def test_two_point_frequencies(self, toy_space):
        # binomial oracle: sd = sqrt(p (1-p) / N); assert within 4 sd
        n = 100000
        values = np.tile(toy_space.state([0.0, 0.0]).values, (n, 1))
        out = toy_kernel().sample_batch(values, uniforms(2024, n, 1))
        p_hat = float(np.mean(out[:, 0] == 0.0))
        bound = 4.0 * math.sqrt(0.3 * 0.7 / n)
        assert abs(p_hat - 0.3) <= bound

    def test_cumulative_selection_rule(self, toy_space):
        # support [(0.7, climb), (0.3, reset)]: u <= 0.7 climbs, u > 0.7 resets
        values = np.array([[1.0, 1.0]] * 3)
        u = np.array([[0.7], [np.nextafter(0.7, 1.0)], [1.0]])
        out = toy_kernel().sample_batch(values, u)
        assert out.tolist() == [[2.0, 1.0], [0.0, 1.0], [0.0, 1.0]]

    def test_one_point_support_consumes_its_uniform(self, toy_space):
        k = FiniteKernel(lambda values: [(1.0, values)], id="stay")
        rng = RandomStream.from_seed(3)
        k.sample(toy_space.state([1.0, 0.0]), rng)
        second = RandomStream.from_seed(3)
        second.uniform01()
        assert rng.uniform01() == second.uniform01()

    def test_bad_mass_rejected(self, toy_space):
        bad = FiniteKernel(lambda values: [(0.5, values)], id="bad")
        with pytest.raises(DataValidationError):
            bad.sample(toy_space.state([0, 0]), RandomStream.from_seed(1))

    def test_reproducible(self, toy_space):
        d = toy_space.state([1.0, 0.0])
        k = toy_kernel()
        a = k.sample(d, RandomStream.from_seed(9))
        b = k.sample(d, RandomStream.from_seed(9))
        assert a == b


class TestTanksKernel:
    def test_scenario1_inflow_moments(self):
        # Gaussian-mean oracle: q2 ~ N(3, sqrt(0.5)^2), clamped to [0, 6]
        params = ThreeTanksParams(scenario=1)
        n = 100000
        values = np.tile(tanks_space(params).state([0, 0, 0, 5.0, 5.0, 5.0]).values, (n, 1))
        q2 = ThreeTanksEnv(params).sample_batch(values, uniforms(31, n, 2))[:, 1]
        assert abs(q2.mean() - 3.0) <= 0.01
        assert (q2 >= 0.0).all() and (q2 <= 6.0).all()

    def test_output_clamped_into_domain(self):
        params = ThreeTanksParams(scenario=2)
        env = ThreeTanksEnv(params)
        space = tanks_space(params)
        d = space.state([6.0, 6.0, 0.0, 20.0, 0.0, 0.0])
        out = env.sample(d, RandomStream.from_seed(4))
        for name, spec in zip(space.names, space.vars):
            assert spec.lower <= out[name] <= spec.upper

    def test_wrong_arity_kernel_detected(self, small_space):
        class Short(EnvironmentEvolution):
            id = "short"

            def sample_batch(self, values, u):
                return values[:, :1]

        with pytest.raises(StructuralError):
            Short().sample(small_space.state([0, 0, 0]), RandomStream.from_seed(0))


class TestAdvance:
    def test_kernel_failure_names_the_first_failing_row(self, small_space):
        class FailAbove(EnvironmentEvolution):
            draws = 1

            def sample_batch(self, values, u):
                if (u[:, 0] > 0.5).any():
                    raise ValueError("too high")
                return values.copy()

        values = np.zeros((4, 3))
        u = np.array([[0.1], [0.2], [0.7], [0.9]])
        with pytest.raises(SimulationError) as err:
            FailAbove().advance(values, u, small_space)
        assert err.value.run == 2 and str(err.value) == "too high"
        assert isinstance(err.value.__cause__, ValueError)

    def test_nan_names_the_first_bad_row(self, small_space):
        class NaNWhere(EnvironmentEvolution):
            draws = 1

            def sample_batch(self, values, u):
                out = values.copy()
                out[:, 2] = np.where(u[:, 0] > 0.5, np.nan, out[:, 2])
                return out

        u = np.array([[0.1], [0.6], [0.7]])
        with pytest.raises(SimulationError) as err:
            NaNWhere().advance(np.zeros((3, 3)), u, small_space)
        assert err.value.run == 1 and str(err.value) == "z: NaN is not a value"


# ---------------------------------------------------------------------------
# Every kernel: a block of n rows equals n one-row calls
# ---------------------------------------------------------------------------

ENGINE_SINGLE = EngineEnv(EngineParams())
ENGINE_DUAL = EngineEnv(EngineParams(stress_incr=0.3), dual=True)


def _engine_rows(env):
    space = env.space
    finite = {i: spec.values for i, spec in enumerate(space.vars) if spec.is_finite}
    base = engine_system(dual=env.dual).data.values
    temps = st.one_of(st.sampled_from([-50.0, 99.8, 100.0, 500.0]), st.floats(-50.0, 500.0))
    # counters anywhere, or at and just below their bound, where a step clamps
    counters = st.one_of(st.integers(0, 10**6).map(float),
                         st.sampled_from([1e15, 1e15 - 1.0, 1e15 - 0.5]))

    @st.composite
    def row(draw):
        out = list(base)
        for i, name in enumerate(space.names):
            if i in finite:
                out[i] = draw(st.sampled_from(finite[i]))
            elif name.startswith(("temp_", "p")) and not name.startswith("temp_fake"):
                out[i] = draw(temps)
            elif name.startswith(("stress", "fn", "fp")):
                out[i] = draw(st.floats(0.0, 1.0))
            elif name == "cs" or name.startswith("sc_"):
                out[i] = draw(counters)
        return out
    return row()


KERNELS = [
    (IdentityKernel(), st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)),
    (toy_kernel(), st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                             st.sampled_from([0.0, 1.0])).map(list)),
    (ThreeTanksEnv(ThreeTanksParams(scenario=1)),
     st.lists(st.floats(0.0, 6.0), min_size=3, max_size=3).flatmap(
         lambda q: st.lists(st.floats(0.0, 20.0), min_size=3, max_size=3).map(lambda l: q + l))),
    (ThreeTanksEnv(ThreeTanksParams(scenario=2, dt=0.4)),
     st.lists(st.floats(0.0, 6.0), min_size=3, max_size=3).flatmap(
         lambda q: st.lists(st.floats(0.0, 20.0), min_size=3, max_size=3).map(lambda l: q + l))),
    (ENGINE_SINGLE, _engine_rows(ENGINE_SINGLE)),
    (ENGINE_DUAL, _engine_rows(ENGINE_DUAL)),
]


# uniforms in (0, 1], with the least double the tape makes, 2**-53, and 1
UNIT = st.one_of(st.sampled_from([2.0**-53, 1.0]), st.floats(0.0, 1.0, exclude_min=True))


def _uniforms(data, n: int, draws: int) -> np.ndarray:
    return np.array(data.draw(st.lists(st.lists(UNIT, min_size=draws, max_size=draws),
                                       min_size=n, max_size=n)),
                    dtype=np.float64).reshape(n, draws)


@pytest.mark.parametrize("kernel, rows", KERNELS, ids=lambda x: getattr(x, "id", ""))
@settings(max_examples=30)
@given(data=st.data())
def test_block_equals_one_row_calls(kernel, rows, data):
    values = np.array(data.draw(st.lists(rows, min_size=1, max_size=12)), dtype=np.float64)
    u = _uniforms(data, len(values), kernel.draws)
    before, u_before = values.copy(), u.copy()
    block = kernel.sample_batch(values, u)
    # inputs are not modified: they may be views of a run's block and of the
    # draw tape, or the interpreter's reused buffers
    assert values.tobytes() == before.tobytes()
    assert u.tobytes() == u_before.tobytes()
    for r in range(len(values)):
        one = kernel.sample_batch(values[r:r + 1], u[r:r + 1])
        assert np.array_equal(block[r:r + 1], one, equal_nan=True)
    # a column-major block gives the same bits
    by_column = kernel.sample_batch(np.asfortranarray(values), u)
    assert np.asarray(by_column).tobytes(order="C") == np.asarray(block).tobytes(order="C")


class SignedZeros(EnvironmentEvolution):
    """Writes -0.0 at bounds 0.0, leaves the domain, and negates a finite
    variable (0.0 becomes -0.0, which equals its input and is kept)."""

    id = "signed-zeros"
    draws = 1

    def sample_batch(self, values, u):
        out = values.copy()
        out[:, 0] = values[:, 0] * 40.0 * (u[:, 0] - 0.5)
        out[:, 1] = -0.0 * u[:, 0]
        out[:, 2] = np.where(u[:, 0] > 0.5, 9.0, -0.0)
        out[:, 3] = -values[:, 3]
        return out


SIGNED_SPACE = DataSpace([
    VarSpec("x", -10.0, 10.0),
    VarSpec("y", 0.0, 1.0),
    VarSpec("z", 0.0, 5.0),
    VarSpec("f", 0.0, 2.0, values=(0.0, 1.0, 2.0)),
])

SAMPLED = [
    (SignedZeros(), SIGNED_SPACE,
     st.tuples(st.floats(-10.0, 10.0), st.sampled_from([-0.0, 0.0, 1.0]),
               st.floats(0.0, 5.0), st.sampled_from([0.0, 1.0, 2.0])).map(list)),
    (KERNELS[1][0], DataSpace([VarSpec("x", 0.0, 3.0, values=(0.0, 1.0, 2.0, 3.0)),
                               VarSpec("y", 0.0, 1.0, values=(0.0, 1.0))]), KERNELS[1][1]),
    (KERNELS[2][0], tanks_space(KERNELS[2][0].params), KERNELS[2][1]),
    (KERNELS[3][0], KERNELS[3][0].space, KERNELS[3][1]),
    (ENGINE_SINGLE, ENGINE_SINGLE.space, KERNELS[4][1]),
    (ENGINE_DUAL, ENGINE_DUAL.space, KERNELS[5][1]),
]


@pytest.mark.parametrize("kernel, space, rows", SAMPLED, ids=[
    "signed-zeros--", "toy-climb--", "three-tanks--", "three-tanks-2", "engine-single", "engine--"])
@settings(max_examples=30)
@given(data=st.data())
def test_sample_equals_a_one_row_advance(kernel, space, rows, data):
    row = data.draw(rows)
    seed = data.draw(st.integers(0, 2**32))
    got = kernel.sample(DataState(space, tuple(row)), RandomStream.from_seed(seed))
    u = uniforms(seed, 1, kernel.draws)
    want = kernel.advance(np.array([row], dtype=np.float64), u, space)[0]
    assert np.array(got.values).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Declared clamps: the built-in kernels clamp only what a step can move out
# ---------------------------------------------------------------------------


def _attacked(dual: bool, kind: str):
    attack = {"act": AttackConfig("act", "L", ac=1.8), "sen": AttackConfig("sen", "L", tf=0.4),
              "saw": AttackConfig("saw", "L", tf=0.4, awml=1000)}[kind]
    env = ENGINE_DUAL if dual else ENGINE_SINGLE
    return engine_system(env.params, (attack,), dual=dual), KERNELS[5 if dual else 4][1]


DECLARED = [
    (tanks_configuration(KERNELS[2][0].params), KERNELS[2][1]),
    (tanks_configuration(KERNELS[3][0].params), KERNELS[3][1]),
] + [_attacked(dual, kind) for dual in (False, True) for kind in ("act", "sen", "saw")]


@pytest.mark.parametrize("config, rows", DECLARED, ids=["tanks-1", "tanks-2"] + [
    f"{engines}-{kind}" for engines in ("single", "dual") for kind in ("act", "sen", "saw")])
@settings(max_examples=40, phases=NO_SHRINK)
@given(data=st.data(), order=st.sampled_from("CF"))
def test_a_declared_clamp_equals_the_full_clamp(config, rows, data, order):
    # bit for bit and in layout, on the configuration's own space, which is
    # the kernel's (so the identity test takes the declared path)
    env, space = config.env, config.space
    assert env.clamped is not None and space is env.space
    values = block(data.draw(st.lists(rows, min_size=1, max_size=12)), order)
    u = _uniforms(data, len(values), env.draws)
    got = env.advance(values, u, space)
    want = space.clamp_batch(env.sample_batch(values, u), values)
    flags = lambda a: (a.flags.c_contiguous, a.flags.f_contiguous)
    assert flags(got) == flags(want)
    assert got.tobytes() == want.tobytes()
    for r in range(len(values)):  # a one-row block is a row of the block
        one = env.advance(values[r:r + 1], u[r:r + 1], space)
        assert one.tobytes() == got[r:r + 1].tobytes()


def test_only_the_declaring_kernels_skip_the_full_clamp():
    class Stepped(ThreeTanksEnv):
        def sample_batch(self, values, u):
            return super().sample_batch(values, u)

    class Same(ThreeTanksEnv):
        pass

    assert IdentityKernel().clamped is None and toy_kernel().clamped is None
    assert Stepped(ThreeTanksParams()).clamped is None  # its own step, undeclared
    assert Same(ThreeTanksParams()).clamped == ("l1", "l2", "l3")
    assert ENGINE_SINGLE.clamped == ("temp_L", "sc_L", "cs")
    assert ENGINE_DUAL.clamped == ("temp_L", "sc_L", "temp_R", "sc_R", "cs", "fn", "fp")


def test_another_space_takes_the_full_clamp():
    # narrower levels than the kernel's own: q2 lands outside [0, 2] too
    env = ThreeTanksEnv(ThreeTanksParams())
    other = DataSpace([VarSpec(n, 0.0, 2.0) for n in ("q1", "q2", "q3", "l1", "l2", "l3")])
    values = np.full((4, 6), 1.0)
    u = np.array([[0.1, 0.2], [0.9, 0.4], [1.0, 1.0], [2.0**-53, 0.5]])
    got = env.advance(values, u, other)
    assert got.tobytes() == other.clamp_batch(env.sample_batch(values, u), values).tobytes()
    assert (got[:, 1] <= 2.0).all()


# ---------------------------------------------------------------------------
# The built-in kernels, bit for bit against the formulas they replace
# ---------------------------------------------------------------------------
#
# Both kernels are computed in place, with ``out=``; each value keeps the
# operations, operands and order of these array expressions, so every bit
# of every admissible block is the same.


def tanks_formula(p, values, u):
    q1, q2, q3, l1, l2, l3 = values.T
    z = np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * math.pi * u[:, 1])
    x = p.q_med + p.sigma_q * z if p.scenario == 1 else q2 + z
    x = np.minimum(np.maximum(x, 0.0), p.q_max)
    d12 = l1 - l2
    q12 = np.where(d12 >= 0, 1.0, -1.0) * (p.pipe12 * np.sqrt(np.abs(d12)))
    d23 = l2 - l3
    q23 = np.where(d23 >= 0, 1.0, -1.0) * (p.pipe23 * np.sqrt(np.abs(d23)))
    dt = p.dt
    return np.array((q1, x, q3, l1 + dt * (q1 - q12), l2 + dt * (q12 - q23),
                     l3 + dt * (x + q23 - q3))).T


_DELTA_LOW = np.array([-1.2, 0.1, 0.3, 0.7])
_DELTA_WIDTH = np.array([-0.8, 0.3, 0.7, 1.2]) - _DELTA_LOW


def engine_formula(env, values, u):
    p, index = env.params, env.space.index
    sides = ("L", "R") if env.dual else ("L",)
    out = values.copy(order="K")
    cs = values[:, index("cs")]
    cs1 = cs + 1.0
    for j, s in enumerate(sides):
        ix = {name: index(f"{name}_{s}") for name in
              ("temp", "cool", "speed", "stress", "p1", "sc", "ch_warning", "fn", "fp")}
        interval = np.where(values[:, ix["cool"]] == ON, 0,
                            values[:, ix["speed"]].astype(np.intp) + 1)
        delta = _DELTA_LOW[interval] + _DELTA_WIDTH[interval] * (1.0 - u[:, j])
        temp = values[:, ix["temp"]]
        out[:, ix["temp"]] = temp + delta
        p1 = ix["p1"]
        history = values[:, p1:p1 + 6]
        out[:, p1 + 1:p1 + 6] = history[:, :5]
        out[:, p1] = temp
        hot_rows = np.greater_equal(history.T, p.max_temp, order="C")
        hot = np.add.reduce(hot_rows, axis=0, dtype=np.int8) > 3
        stress = values[:, ix["stress"]]
        out[:, ix["stress"]] = np.where(hot, np.minimum(1.0, stress + p.stress_incr), stress)
        out[:, ix["sc"]] = values[:, ix["sc"]] + hot
        warn = values[:, ix["ch_warning"]]
        fn = values[:, ix["fn"]]
        fp = values[:, ix["fp"]]
        out[:, ix["fn"]] = (cs * fn + np.maximum(0.0, stress - warn)) / cs1
        out[:, ix["fp"]] = (cs * fp + np.maximum(0.0, warn - stress)) / cs1
    if env.dual:
        alarm = values[:, index("ch_alarm")]
        al = ((alarm == LEFT) | (alarm == BOTH)).astype(np.float64)
        ar = ((alarm == RIGHT) | (alarm == BOTH)).astype(np.float64)
        sl = values[:, index("stress_L")]
        sr = values[:, index("stress_R")]
        w = p.clearance
        inc_fn = np.minimum(1.0, w * np.maximum(0.0, sl - al) + w * np.maximum(0.0, sr - ar))
        inc_fp = np.minimum(1.0, w * np.maximum(0.0, al - sl) + w * np.maximum(0.0, ar - sr))
        fn, fp = index("fn"), index("fp")
        out[:, fn] = (cs * values[:, fn] + inc_fn) / cs1
        out[:, fp] = (cs * values[:, fp] + inc_fp) / cs1
    out[:, index("cs")] = cs1
    return out


TINY = 5e-324  # the least subnormal
EDGES = [0.0, -0.0, TINY, -TINY, 2.2250738585072014e-308, -2.2250738585072014e-308]


def admissible(lo: float, hi: float):
    """Floats a column on [lo, hi] can hold: its edges, signed zeros and
    subnormals inside it, but no -0.0 where a bound is +0.0 (the bound wins
    the clamp's tie)."""
    zero_bound = any(b == 0.0 and math.copysign(1.0, b) > 0 for b in (lo, hi))
    edges = [v for v in [lo, hi] + EDGES if lo <= v <= hi
             and not (zero_bound and v == 0.0 and math.copysign(1.0, v) < 0)]
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


def uniform_block(n: int, draws: int):
    unit = st.one_of(st.sampled_from([1.0, TINY, 0.25, 0.5, 0.75]),
                     st.floats(0.0, 1.0, exclude_min=True))
    return st.lists(st.lists(unit, min_size=draws, max_size=draws), min_size=n, max_size=n)


def block(rows, order):
    values = np.array(rows, dtype=np.float64)
    return np.asfortranarray(values) if order == "F" else values


tanks_params = st.builds(
    ThreeTanksParams,
    scenario=st.sampled_from([1, 2]),
    l_min=st.sampled_from([0.0, -5.0, -TINY]),
    delta_q=st.one_of(st.just(0.5), st.floats(1e-3, 4.0)),
    dt=st.one_of(st.sampled_from([0.1, 0.4]), st.floats(1e-3, 1.0)),
)


@settings(max_examples=150)
@given(data=st.data(), params=tanks_params, orders=st.sampled_from(["CC", "CF", "FC", "FF"]))
def test_tanks_kernel_equals_its_formula(data, params, orders):
    q = admissible(0.0, params.q_max)
    level = admissible(params.l_min, params.l_max)
    rows = data.draw(st.lists(st.tuples(q, q, q, level, level, level), min_size=1, max_size=12))
    values = block(rows, orders[0])
    u = block(data.draw(uniform_block(len(rows), 2)), orders[1])
    got = ThreeTanksEnv(params).sample_batch(values, u)
    want = tanks_formula(params, values, u)
    assert got.shape == want.shape
    assert got.tobytes(order="C") == want.tobytes(order="C")


engine_params = st.builds(
    EngineParams,
    max_temp=st.sampled_from([100.0, 99.0]),
    stress_incr=st.one_of(st.sampled_from([0.02, 0.3, 1.0]), st.floats(1e-6, 1.0)),
    threshold=st.just(98.0),
    clearance=st.one_of(st.just(0.7), st.floats(0.0, 1.0)),
)


def _engine_state(env):
    """An admissible engine row, temperatures dense around max_temp."""
    space = env.space
    near = st.sampled_from([env.params.max_temp, np.nextafter(env.params.max_temp, 0.0),
                            -50.0, 500.0, 0.0, -0.0])
    columns = []
    for spec in space.vars:
        name = spec.name
        if spec.is_finite:
            columns.append(st.sampled_from(spec.values))
        elif name.startswith(("temp_", "p")) and not name.startswith("temp_fake"):
            columns.append(st.one_of(near, admissible(spec.lower, spec.upper)))
        elif name == "cs":
            columns.append(st.one_of(st.sampled_from([0.0, 1e6]),
                                     st.integers(0, 10**6).map(float)))
        else:
            columns.append(admissible(spec.lower, min(spec.upper, 1e6)))
    return st.tuples(*columns).map(list)


@pytest.mark.parametrize("dual", [False, True], ids=["single", "dual"])
@settings(max_examples=40, phases=NO_SHRINK)  # shrinking 60-column rows takes minutes
@given(data=st.data(), params=engine_params, orders=st.sampled_from(["CC", "CF", "FC", "FF"]))
def test_engine_kernel_equals_its_formula(dual, data, params, orders):
    env = EngineEnv(params, dual)
    rows = data.draw(st.lists(_engine_state(env), min_size=6, max_size=9))
    # every pair of coolant and speed on each side, in every block
    pairs = list(itertools.product((0.0, 1.0), (0.0, 1.0, 2.0)))
    for r, row in enumerate(rows):
        for shift, side in enumerate(("L", "R") if dual else ("L",)):
            cool, speed = pairs[(r + shift) % len(pairs)]
            row[env.space.index(f"cool_{side}")] = cool
            row[env.space.index(f"speed_{side}")] = speed
    values = block(rows, orders[0])
    u = block(data.draw(uniform_block(len(rows), env.draws)), orders[1])
    got = env.sample_batch(values, u)
    want = engine_formula(env, values, u)
    assert got.shape == want.shape
    assert got.tobytes(order="C") == want.tobytes(order="C")
