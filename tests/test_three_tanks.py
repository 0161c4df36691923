import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from evometric.dataspace import DataState, DataValidationError
from evometric.engine import estimate, sim_step
from evometric.errors import PreconditionError, SimulationError, StructuralError
from evometric.models.three_tanks import (
    ThreeTanksEnv,
    ThreeTanksParams,
    tanks_configuration,
    tanks_manifest,
    tanks_penalties,
    tanks_program,
    tanks_space,
)
from evometric.process import pstep, validate
from evometric.rng import RandomStream

from conftest import start_rows


class TestParams:
    def test_defaults_match_reference_experiment(self):
        p = ThreeTanksParams()
        assert (p.l_goal, p.delta_l, p.q_max, p.q_step) == (10.0, 0.5, 6.0, 1.2)
        assert p.dt == 0.1 and p.q_med == 3.0 and p.delta_q == 0.5

    def test_invariants(self):
        with pytest.raises(DataValidationError):
            ThreeTanksParams(l_goal=25.0)
        with pytest.raises(DataValidationError):
            ThreeTanksParams(q_step=6.0)
        with pytest.raises(DataValidationError):
            ThreeTanksParams(scenario=3)

    @pytest.mark.parametrize("field, value", [
        ("q_med", math.nan), ("delta_q", math.inf), ("dt", math.inf), ("l_max", math.inf),
        ("a", -math.inf), ("g", math.nan)])
    def test_a_non_finite_parameter_is_rejected(self, field, value):
        # the kernel's no-NaN proof rests on finite parameters; dt = inf
        # made l2 NaN at step 0
        with pytest.raises(DataValidationError, match=f"must be finite: {field}"):
            ThreeTanksParams(**{field: value})

    @pytest.mark.parametrize("overrides", [
        dict(a=1e200, a12=1e200), dict(l_min=-1e308, l_max=1e308, l_goal=0.0), dict(g=-1.0)])
    def test_an_unbounded_flow_is_rejected(self, overrides):
        # a flow of inf - inf, or 0 * inf, would make a level NaN
        with pytest.raises(DataValidationError):
            ThreeTanksParams(**overrides)


def env_step(params, values, u) -> np.ndarray:
    """One tanks kernel row on explicit uniforms (u1, u2) of the inflow draw."""
    return ThreeTanksEnv(params).sample_batch(np.array([values], dtype=np.float64),
                                              np.array([u]))[0]


class TestEnvironment:
    # u = (1, u2) makes the Box-Muller normal exactly 0 (log 1 = 0)
    def test_equal_levels_no_flow(self):
        out = env_step(ThreeTanksParams(), [0.0, 0.0, 0.0, 7.0, 7.0, 7.0], (1.0, 0.3))
        assert out[3:].tolist() == [7.0, 7.0, 7.0 + 0.1 * 3.0]

    def test_torricelli_hand_value(self):
        # q12 = 0.75 * 0.5 * sqrt(2 * 9.81 * (12 - 10)) leaves tank 1 over
        # dt = 0.1, and flows back when the levels are swapped
        q12 = 0.375 * math.sqrt(2 * 9.81 * 2.0)
        p = ThreeTanksParams()
        out = env_step(p, [0.0, 0.0, 0.0, 12.0, 10.0, 10.0], (1.0, 0.3))
        assert out[3] == pytest.approx(12.0 - 0.1 * q12, abs=1e-12)
        assert out[4] == pytest.approx(10.0 + 0.1 * q12, abs=1e-12)
        back = env_step(p, [0.0, 0.0, 0.0, 10.0, 12.0, 10.0], (1.0, 0.3))
        assert back[3] == pytest.approx(10.0 + 0.1 * q12, abs=1e-12)

    def test_volume_conservation_without_sources(self):
        # q1 = q3 = q2 = 0, and u2 = 0.5 makes cos(2 pi u2) = -1, so the
        # scenario-2 inflow q2 + z <= 0 clamps to exactly 0: the level sum
        # telescopes
        values = [0.0, 0.0, 0.0, 12.0, 7.0, 3.0]
        out = env_step(ThreeTanksParams(scenario=2), values, (0.3, 0.5))
        assert out[1] == 0.0
        assert sum(out[3:]) == pytest.approx(sum(values[3:]), abs=1e-12)

    def test_scenario1_one_step_mean(self):
        # from the all-zero state one environment step sets l3 = dt * x with
        # x ~ N(3, 0.5) clamped; Gaussian-mean oracle: mean ~ 0.3
        params = ThreeTanksParams(scenario=1)
        n = 100000
        rng = RandomStream.from_seed(77)
        u = np.array([rng.uniform01() for _ in range(2 * n)]).reshape(n, 2)
        out = ThreeTanksEnv(params).sample_batch(np.zeros((n, 6)), u)
        assert abs(out[:, 5].mean() - 0.3) <= 0.005

    def test_environment_leaves_pump_rates(self):
        out = env_step(ThreeTanksParams(scenario=2), [2.0, 1.0, 3.0, 5.0, 5.0, 5.0], (0.4, 0.8))
        assert out[0] == 2.0 and out[2] == 3.0


@dataclass(frozen=True)
class SpillingTanks(ThreeTanksEnv):
    """The tanks kernel, writing NaN into l2 of every row whose first
    uniform exceeds 0.99."""

    def sample_batch(self, values, u):
        out = super().sample_batch(values, u)
        out[:, 4] = np.where(u[:, 0] > 0.99, np.nan, out[:, 4])
        return out


class TestProgram:
    def test_validates_disjoint_write_sets(self):
        params = ThreeTanksParams()
        process, defs = tanks_program(params)
        assert validate(process, defs, tanks_space(params)).ok

    def test_dead_band_is_idle(self):
        params = ThreeTanksParams()
        process, defs = tanks_program(params)
        d = tanks_space(params).state([3.0, 0, 3.0, 10.2, 0.0, 10.0])
        dist = pstep(process, d, defs)
        assert len(dist) == 1
        assert dist.triples[0][1] == ()

    def test_joint_effect_outside_band(self):
        # l1 = 12 > 10.5 and l3 = 8 < 9.5: both pumps step down by q_step
        params = ThreeTanksParams()
        process, defs = tanks_program(params)
        d = tanks_space(params).state([3.0, 0, 3.0, 12.0, 0.0, 8.0])
        dist = pstep(process, d, defs)
        assert dist.triples[0][1] == (("q1", 1.8), ("q3", 1.8))

    def test_variants_build(self):
        for delta in (0.3, 0.7):
            c = tanks_configuration(delta_l=delta)
            assert c.env.params.delta_l == delta


class TestConfiguration:
    def test_initial_state_defaults(self):
        c = tanks_configuration()
        assert dict(zip(c.space.names, c.data.values)) == {
            "q1": 0.0, "q2": 0.0, "q3": 0.0, "l1": 0.0, "l2": 0.0, "l3": 0.0,
        }

    def test_init_overrides(self):
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        assert c.data["l2"] == 5.0

    def test_unknown_override(self):
        with pytest.raises(StructuralError):
            tanks_configuration(init={"l9": 1.0})

    def test_params_and_overrides_exclusive(self):
        with pytest.raises(PreconditionError):
            tanks_configuration(ThreeTanksParams(), scenario=2)

    def test_manifest(self):
        m = tanks_manifest(ThreeTanksParams(scenario=2))
        assert m["params"]["scenario"] == 2
        assert [v["name"] for v in m["variables"]] == ["q1", "q2", "q3", "l1", "l2", "l3"]
        assert "max3" in m["penalties"]


class TestLevelsConverge:
    def test_levels_approach_goal(self):
        # reference behaviour: the controller fills the tanks to l_goal
        for scenario in (1, 2):
            c = tanks_configuration(scenario=scenario)
            E = estimate(c, 150, 200, seed=400 + scenario)
            mean, _ = E.mean_std()
            for var in ("l1", "l2", "l3"):
                j = c.space.index(var)
                assert abs(mean[150, j] - 10.0) < 1.0

    def test_final_level_mostly_near_goal(self):
        # per-run check at the reference simulation's own scale
        c = tanks_configuration(scenario=1)
        E = estimate(c, 150, 400, seed=12)
        l3 = E.states[:, 150, c.space.index("l3")]
        assert ((np.abs(l3 - 10.0) <= 1.0).mean()) >= 0.95


class TestLockstepEquivalence:
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_bit_identical_paths(self, scenario):
        c = tanks_configuration(scenario=scenario, init={"l1": 3, "l2": 1, "l3": 0})
        fast = estimate(c, 80, 16, seed=99, use_fast_path=True)
        slow = estimate(c, 80, 16, seed=99, use_fast_path=False)
        assert np.array_equal(fast.states, slow.states)

    def test_nan_row_reported_alike_on_both_paths(self):
        c = replace(tanks_configuration(), env=SpillingTanks(ThreeTanksParams()))
        start_rows(c.lockstep, c, 1, 4, 200)  # binds
        errors = []
        for fast in (True, False):
            with pytest.raises(SimulationError) as err:
                estimate(c, 200, 6, seed=4, use_fast_path=fast)
            errors.append((err.value.run, err.value.step, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][2].endswith(": l2: NaN is not a value")

    @pytest.mark.parametrize("var, value", [("q1", -0.0), ("l2", 20.5)])
    def test_an_inadmissible_initial_state_runs_on_the_interpreter(self, var, value, caplog):
        # a raw data state skips the clamps: q1 = -0.0 where its lower bound
        # is +0.0, or a level above l_max.  The compiled program declines it
        # before the lockstep shell is asked, and the interpreter serves it
        c = tanks_configuration(init={"l1": 9.0, "l3": 11.0})
        values = list(c.data.values)
        values[c.space.index(var)] = value
        c = c.with_data(DataState(c.space, tuple(values)))
        with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
            fast = estimate(c, 30, 5, seed=7)
        messages = [r.getMessage() for r in caplog.records]
        assert [m for m in messages if "not admissible" in m] == [
            f"process not compiled, running the interpreter: the initial value {value!r} "
            f"of {var!r} is not admissible"]
        assert "interpreter path: 5 runs of 30 steps" in messages
        assert not [m for m in messages if "lockstep" in m]
        slow = estimate(c, 30, 5, seed=7, use_fast_path=False)
        assert fast.states.tobytes() == slow.states.tobytes()

    def test_lockstep_accepts_one_step_continuation(self):
        c = tanks_configuration()
        advanced = sim_step(c, RandomStream.from_seed(1))
        E = estimate(advanced, 5, 4, seed=2, use_fast_path=True)
        F = estimate(advanced, 5, 4, seed=2, use_fast_path=False)
        assert np.array_equal(E.states, F.states)
