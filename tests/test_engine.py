import math

import numpy as np
import pytest

from evometric.engine import (
    Configuration,
    enumerate_data_marginal,
    estimate,
    estimate_penalties,
    sim_step,
    simulate,
)
from evometric.environment import EnvironmentEvolution, IdentityKernel
from evometric.errors import (
    PreconditionError,
    ProcessValidationError,
    SimulationError,
)
from evometric.dataspace import VarPenalty
from evometric.models.three_tanks import (
    ThreeTanksParams,
    tanks_configuration,
    tanks_penalties,
    tanks_program,
)
from evometric.process import Call, Const, PChoice, Prefix, tick
from evometric.rng import RandomStream

from conftest import toy_kernel, toy_process


def loop_defs():
    return {"Loop": tick(Call("Loop"))}


def toy_configuration(toy_space):
    p, defs = toy_process()
    return Configuration(p, toy_space.state([0.0, 0.0]), toy_kernel(), defs).validated()


class FailLate(EnvironmentEvolution):
    """x counts the steps; the kernel raises once it reaches 3."""

    id = "fails"

    def sample_batch(self, values, u):
        if (values[:, 0] >= 3.0).any():
            raise ValueError("boom")
        out = values.copy()
        out[:, 0] += 1.0
        return out


class FailForSome(EnvironmentEvolution):
    """Raises for every row whose uniform exceeds 0.95."""

    id = "flaky"
    draws = 1

    def sample_batch(self, values, u):
        if (u[:, 0] > 0.95).any():
            raise ValueError("diverged")
        return values.copy()


class NaNLate(EnvironmentEvolution):
    """x counts the steps; from x = 3 on, y becomes NaN in every row whose
    uniform exceeds 0.5."""

    id = "nan-late"
    draws = 1

    def sample_batch(self, values, u):
        out = values.copy()
        out[:, 0] += 1.0
        out[:, 1] = np.where((out[:, 0] >= 3.0) & (u[:, 0] > 0.5), np.nan, out[:, 1])
        return out


class TestSimStep:
    def test_dirac_plus_identity_is_deterministic(self, small_space):
        p = Prefix((Const(2.0),), ("x",), Call("Loop"))
        c = Configuration(p, small_space.state([0, 0, 0]), IdentityKernel(), loop_defs())
        nxt = sim_step(c, RandomStream.from_seed(0))
        assert nxt.data["x"] == 2.0
        assert nxt.process == Call("Loop")

    def test_choice_frequency(self, small_space):
        # binomial oracle at 4 sd over 1e5 draws
        a = Prefix((Const(1.0),), ("x",), Call("Loop"))
        b = Prefix((Const(2.0),), ("x",), Call("Loop"))
        c = Configuration(
            PChoice(((0.3, a), (0.7, b))), small_space.state([0, 0, 0]),
            IdentityKernel(), loop_defs(),
        )
        base = RandomStream.from_seed(100)
        n = 100000
        ones = sum(sim_step(c, base.child(i)).data["x"] == 1.0 for i in range(n))
        bound = 4.0 * math.sqrt(0.3 * 0.7 / n)
        assert abs(ones / n - 0.3) <= bound

    def test_tanks_first_step(self):
        # from the all-zero state the controller raises both pump rates to
        # q_step before the environment integrates, so l1 = dt*q_step, l2 = 0,
        # and l3 = dt * (fresh q2 sample) >= 0
        c = tanks_configuration()
        nxt = sim_step(c, RandomStream.from_seed(5))
        p = c.env.params
        assert nxt.data["q1"] == p.q_step
        assert nxt.data["l1"] == pytest.approx(p.dt * p.q_step, abs=0)
        assert nxt.data["l2"] == 0.0
        assert nxt.data["l3"] == pytest.approx(p.dt * nxt.data["q2"], abs=0)
        assert nxt.data["l3"] >= 0.0

    def test_validation_gate(self, small_space):
        p = Prefix((Const(0.0),), ("missing",), Call("Loop"))
        c = Configuration(p, small_space.state([0, 0, 0]), IdentityKernel(), loop_defs())
        with pytest.raises(ProcessValidationError):
            c.validated()


class TestSimulate:
    def test_zero_steps(self, small_space):
        c = Configuration(tick(Call("Loop")), small_space.state([1, 0, 2]),
                          IdentityKernel(), loop_defs())
        traj = simulate(c, 0, RandomStream.from_seed(0))
        assert len(traj) == 1 and traj[0] == c

    def test_tick_loop_keeps_data_constant(self, small_space):
        c = Configuration(Call("Loop"), small_space.state([1, 0.5, 2]),
                          IdentityKernel(), loop_defs())
        traj = simulate(c, 25, RandomStream.from_seed(1))
        assert all(conf.data == c.data for conf in traj)

    def test_error_carries_step_context(self, small_space):
        env = FailLate()
        c = Configuration(Call("Loop"), small_space.state([0, 0, 0]), env, loop_defs())
        with pytest.raises(SimulationError):
            simulate(c, 10, RandomStream.from_seed(0))


class TestEstimate:
    def test_single_run_equals_simulate(self, toy_space):
        c = toy_configuration(toy_space)
        E = estimate(c, 5, 1, seed=11)
        rng = RandomStream.from_seed(11).child(0)
        traj = simulate(c, 5, rng)
        for i, conf in enumerate(traj):
            assert tuple(E.states[0, i, :]) == conf.data.values

    def test_exchange_property(self, toy_space):
        # column i of every step belongs to the trajectory of run i, also
        # across the interpreter's blocks of runs
        c = toy_configuration(toy_space)
        E = estimate(c, 6, 300, seed=13)
        base = RandomStream.from_seed(13)
        for run in (0, 3, 6, 255, 256, 299):
            traj = simulate(c, 6, base.child(run))
            for i, conf in enumerate(traj):
                assert tuple(E.states[run, i, :]) == conf.data.values

    def test_deterministic_model_has_zero_variance(self, small_space):
        p = Prefix((Const(1.5),), ("x",), Call("Loop"))
        c = Configuration(p, small_space.state([0, 0, 0]), IdentityKernel(), loop_defs())
        E = estimate(c, 4, 20, seed=3)
        _, std = E.mean_std()
        assert np.all(std == 0.0)

    def test_thread_count_invariance(self, toy_space):
        c = toy_configuration(toy_space)
        a = estimate(c, 5, 12, seed=21, threads=1)
        b = estimate(c, 5, 12, seed=21, threads=3)
        assert np.array_equal(a.states, b.states)

    def test_seed_invariance_across_calls(self, toy_space):
        c = toy_configuration(toy_space)
        a = estimate(c, 5, 12, seed=34)
        b = estimate(c, 5, 12, seed=34)
        assert np.array_equal(a.states, b.states)

    def test_run_failure_aborts_with_context(self, small_space):
        c = Configuration(Call("Loop"), small_space.state([0, 0, 0]), FailForSome(), loop_defs())
        with pytest.raises(SimulationError) as err:
            estimate(c, 30, 40, seed=5)
        assert err.value.run is not None

    def test_bad_arguments(self, toy_space):
        c = toy_configuration(toy_space)
        rho = VarPenalty("x", id="x")
        with pytest.raises(PreconditionError):
            estimate(c, 3, 0, seed=1)
        with pytest.raises(PreconditionError):
            estimate(c, -1, 2, seed=1)
        with pytest.raises(PreconditionError):
            estimate_penalties(c, 3, 0, 1, [rho], [3])
        with pytest.raises(PreconditionError):
            estimate_penalties(c, -1, 2, 1, [rho], [])
        with pytest.raises(PreconditionError):
            estimate_penalties(c, 3, 2, 1, [rho], [2, 2])

    def test_both_estimators_report_a_failing_run_alike(self, small_space):
        env = FailLate()
        c = Configuration(Call("Loop"), small_space.state([0, 0, 0]), env, loop_defs())
        rho = VarPenalty("y", id="y")
        for run in (lambda: estimate(c, 10, 2, seed=1),
                    lambda: estimate_penalties(c, 10, 2, 1, [rho], [10])):
            with pytest.raises(SimulationError) as err:
                run()
            assert (err.value.run, err.value.step) == (0, 3)
            assert str(err.value) == "run 0: step 3: boom"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nan_row_names_the_first_failing_run(self, small_space, threads):
        # a run draws one uniform per step (the tick is a Dirac); the first
        # step with x = 3 is step 2, where the first run whose uniform
        # exceeds 0.5 fails
        c = Configuration(Call("Loop"), small_space.state([0, 0, 0]), NaNLate(), loop_defs())
        N, seed = 40, 6
        base = RandomStream.from_seed(seed)
        draws = [[base.child(r).uniform01() for _ in range(30)] for r in range(N)]
        step = next(i for i in range(2, 30) if any(d[i] > 0.5 for d in draws))
        run = next(r for r in range(N) if draws[r][step] > 0.5)
        rho = VarPenalty("x", id="x")
        for call in (lambda: estimate(c, 30, N, seed, threads=threads),
                     lambda: estimate_penalties(c, 30, N, seed, [rho], [30], threads=threads)):
            with pytest.raises(SimulationError) as err:
                call()
            assert (err.value.run, err.value.step) == (run, step)
            assert str(err.value) == f"run {run}: step {step}: y: NaN is not a value"


class TestEstimatePenalties:
    def test_matches_full_estimate(self, toy_space):
        c = toy_configuration(toy_space)
        rho = VarPenalty("x", id="x")
        obs = [0, 2, 5]
        pen = estimate_penalties(c, 5, 9, 17, [rho], obs)
        E = estimate(c, 5, 9, 17)
        for j, t in enumerate(obs):
            expect = np.clip(E.states[:, t, 0], 0.0, 1.0)
            assert np.array_equal(pen[0][:, j], expect)

    def test_run_offset_shifts_streams(self, toy_space):
        c = toy_configuration(toy_space)
        rho = VarPenalty("x", id="x")
        a = estimate_penalties(c, 4, 6, 23, [rho], [4], run_offset=0)
        b = estimate_penalties(c, 4, 4, 23, [rho], [4], run_offset=2)
        assert np.array_equal(a[0][2:, :], b[0])

    def test_thread_count_invariance(self, toy_space):
        c = toy_configuration(toy_space)
        rho = VarPenalty("x", id="x")
        a = estimate_penalties(c, 5, 12, 29, [rho], [0, 3, 5], threads=1, run_offset=4)
        b = estimate_penalties(c, 5, 12, 29, [rho], [0, 3, 5], threads=3, run_offset=4)
        assert np.array_equal(a, b)


class TestDeclinedFastPath:
    def test_foreign_process_falls_back_to_the_interpreter(self):
        # the tank lockstep attached to a controller it was not built for
        # declines, and both estimators run the interpreter instead
        c = tanks_configuration()
        other, defs = tanks_program(ThreeTanksParams(delta_l=0.7))
        foreign = Configuration(other, c.data, c.env, defs, c.lockstep)
        fast = estimate(foreign, 12, 5, seed=3, use_fast_path=True)
        slow = estimate(foreign, 12, 5, seed=3, use_fast_path=False)
        assert np.array_equal(fast.states, slow.states)
        rho = tanks_penalties(c.env.params)["l3"]
        fast = estimate_penalties(foreign, 12, 5, 3, [rho], [0, 6, 12], use_fast_path=True)
        slow = estimate_penalties(foreign, 12, 5, 3, [rho], [0, 6, 12], use_fast_path=False)
        assert np.array_equal(fast, slow)


class TestEnumerationOracle:
    def test_two_step_marginal_matches_hand_expansion(self, toy_space):
        # x: 0 -> {1 w.p. .7, 0 w.p. .3} -> {2: .49, 1: .21, 0: .3}
        # y is overwritten by the coin each step: {0: .5, 1: .5}, independent
        c = toy_configuration(toy_space)
        dists = enumerate_data_marginal(c, 2)
        two = dists[2]
        expect = {}
        for x, px in ((2.0, 0.49), (1.0, 0.21), (0.0, 0.30)):
            for y in (0.0, 1.0):
                expect[(x, y)] = px * 0.5
        assert set(two) == set(expect)
        for k, v in expect.items():
            assert two[k] == pytest.approx(v, abs=1e-12)

    def test_mass_is_one_each_step(self, toy_space):
        c = toy_configuration(toy_space)
        for dist in enumerate_data_marginal(c, 4):
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_requires_finite_kernel(self, small_space):
        c = Configuration(Call("Loop"), small_space.state([0, 0, 0]),
                          IdentityKernel(), loop_defs())
        with pytest.raises(PreconditionError):
            enumerate_data_marginal(c, 1)


class TestWeakConvergenceSmoke:
    def test_error_shrinks_with_samples(self, toy_space):
        c = toy_configuration(toy_space)
        exact = enumerate_data_marginal(c, 2)
        sizes = (100, 1000, 10000)
        err = {n: [] for n in sizes}
        for seed in range(20):
            for n in sizes:
                E = estimate(c, 2, n, seed=1000 + seed)
                worst = 0.0
                for step in (1, 2):
                    vals = [tuple(row) for row in E.states[:, step, :]]
                    for state, p in exact[step].items():
                        freq = vals.count(state) / n
                        worst = max(worst, abs(freq - p))
                err[n].append(worst)
        means = [np.mean(err[n]) for n in sizes]
        assert means[0] >= means[1] >= means[2]


class TestCsvExports:
    def test_sample_csv_shape(self, toy_space, tmp_path):
        c = toy_configuration(toy_space)
        E = estimate(c, 3, 5, seed=8)
        path = tmp_path / "samples.csv"
        E.to_csv(path, meta={"run": "test"})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "run,step,x,y"
        assert len(lines) == 2 + 5 * 4

    def test_summary_csv_shape(self, toy_space, tmp_path):
        c = toy_configuration(toy_space)
        E = estimate(c, 3, 5, seed=8)
        path = tmp_path / "summary.csv"
        E.summary_to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,variable,mean,std"
        assert len(lines) == 1 + 4 * 2
