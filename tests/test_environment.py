import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometric.dataspace import DataSpace, DataState, VarSpec
from evometric.environment import EnvironmentEvolution, FiniteKernel, IdentityKernel
from evometric.errors import DataValidationError, SimulationError, StructuralError
from evometric.models.engine_system import EngineEnv, EngineParams, engine_system
from evometric.models.three_tanks import ThreeTanksEnv, ThreeTanksParams, tanks_space
from evometric.rng import RandomStream

from conftest import toy_kernel


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
        out[space.index("cs")] = float(draw(st.integers(0, 10**6)))
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


@pytest.mark.parametrize("kernel, rows", KERNELS, ids=lambda x: getattr(x, "id", ""))
@settings(max_examples=30)
@given(data=st.data())
def test_block_equals_one_row_calls(kernel, rows, data):
    values = np.array(data.draw(st.lists(rows, min_size=1, max_size=12)), dtype=np.float64)
    unit = st.floats(0.0, 1.0, exclude_min=True)
    u = np.array(data.draw(st.lists(st.lists(unit, min_size=kernel.draws, max_size=kernel.draws),
                                    min_size=len(values), max_size=len(values))),
                 dtype=np.float64).reshape(len(values), kernel.draws)
    before = values.copy()
    block = kernel.sample_batch(values, u)
    assert np.array_equal(values, before)  # inputs are not modified
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
    (ENGINE_DUAL, ENGINE_DUAL.space, KERNELS[5][1]),
]


@pytest.mark.parametrize("kernel, space, rows", SAMPLED, ids=lambda x: getattr(x, "id", ""))
@settings(max_examples=30)
@given(data=st.data())
def test_sample_equals_a_one_row_advance(kernel, space, rows, data):
    row = data.draw(rows)
    seed = data.draw(st.integers(0, 2**32))
    got = kernel.sample(DataState(space, tuple(row)), RandomStream.from_seed(seed))
    u = uniforms(seed, 1, kernel.draws)
    want = kernel.advance(np.array([row], dtype=np.float64), u, space)[0]
    assert np.array(got.values).tobytes() == want.tobytes()
