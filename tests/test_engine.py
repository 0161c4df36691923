import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from evometric import engine
from evometric.engine import (
    Configuration,
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
from evometric.process import Call, Const, Op, PChoice, Prefix, Var, tick
from evometric.rng import RandomStream

from conftest import toy_kernel, toy_process
from enumeration import enumerate_data_marginal


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


class NaNRare(EnvironmentEvolution):
    """y becomes NaN in every row whose uniform exceeds 0.97."""

    id = "nan-rare"
    draws = 1

    def sample_batch(self, values, u):
        out = values.copy()
        out[:, 1] = np.where(u[:, 0] > 0.97, np.nan, out[:, 1])
        return out


class ZFromUniform(EnvironmentEvolution):
    """z becomes 5 times the row's first uniform; y becomes NaN when the
    second exceeds 0.99."""

    id = "z-uniform"
    draws = 2

    def sample_batch(self, values, u):
        out = values.copy()
        out[:, 2] = 5.0 * u[:, 0]
        out[:, 1] = np.where(u[:, 1] > 0.99, np.nan, out[:, 1])
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

    # The three failure reports below run on the compiled program (their
    # processes are Diracs) and, in their *_on_the_interpreter twins, on the
    # interpreter; both must name the same run, step and message.

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nan_row_names_the_first_failing_run(self, small_space, threads):
        self.check_nan_row_names_the_first_failing_run(small_space, threads, True)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_nan_row_names_the_first_failing_run_on_the_interpreter(self, small_space, threads):
        self.check_nan_row_names_the_first_failing_run(small_space, threads, False)

    def check_nan_row_names_the_first_failing_run(self, small_space, threads, fast):
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
        for call in (lambda: estimate(c, 30, N, seed, threads=threads, use_fast_path=fast),
                     lambda: estimate_penalties(c, 30, N, seed, [rho], [30], threads=threads,
                                                use_fast_path=fast)):
            with pytest.raises(SimulationError) as err:
                call()
            assert (err.value.run, err.value.step) == (run, step)
            assert str(err.value) == f"run {run}: step {step}: y: NaN is not a value"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_report_does_not_depend_on_the_blocks(self, small_space, threads):
        self.check_failure_report_does_not_depend_on_the_blocks(small_space, threads, True)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_report_does_not_depend_on_the_blocks_on_the_interpreter(
            self, small_space, threads):
        self.check_failure_report_does_not_depend_on_the_blocks(small_space, threads, False)

    def check_failure_report_does_not_depend_on_the_blocks(self, small_space, threads, fast):
        # at threads=2 the interpreter splits the runs into two blocks; the
        # failure reported is still the least (step, run), here in the
        # second block at step 0
        c = Configuration(Call("Loop"), small_space.state([0, 0, 0]), NaNRare(), loop_defs())
        N, seed = 40, 2
        base = RandomStream.from_seed(seed)
        draws = [[base.child(r).uniform01() for _ in range(30)] for r in range(N)]
        step, run = min((i, r) for r in range(N) for i in range(30) if draws[r][i] > 0.97)
        assert (run, step) == (23, 0)
        rho = VarPenalty("x", id="x")
        for call in (lambda: estimate(c, 30, N, seed, threads=threads, use_fast_path=fast),
                     lambda: estimate_penalties(c, 30, N, seed, [rho], [30], threads=threads,
                                                use_fast_path=fast)):
            with pytest.raises(SimulationError) as err:
                call()
            assert (err.value.run, err.value.step) == (run, step)

    def test_process_failure_after_an_environment_failure_of_an_earlier_run(self, small_space):
        self.check_process_failure_after_an_environment_failure(small_space, True)

    def test_process_failure_after_an_environment_failure_on_the_interpreter(self, small_space):
        self.check_process_failure_after_an_environment_failure(small_space, False)

    def check_process_failure_after_an_environment_failure(self, small_space, fast):
        # the process sqrt(4.5 - z) fails when the last step set z = 5 * u0
        # above 4.5; the environment writes a NaN y when u1 > 0.99.  At step
        # 1 the environment of run 10 fails and so do the processes of later
        # runs: run 10 is reported, in one block or in several
        body = Prefix((Op("sqrt", (Op("-", (Const(4.5), Var("z"))),)),), ("x",), Call("P"))
        c = Configuration(Call("P"), small_space.state([0, 0, 0]), ZFromUniform(), {"P": body})
        N, k, seed = 40, 20, 14
        base = RandomStream.from_seed(seed)
        failures = []
        for r in range(N):
            rng, z = base.child(r), 0.0
            for i in range(k):
                if z > 4.5:
                    failures.append((i, r, "process"))
                    break
                u0, u1 = rng.uniform01(), rng.uniform01()
                if u1 > 0.99:
                    failures.append((i, r, "environment"))
                    break
                z = 5.0 * u0
        step, run, kind = min(failures)
        assert (step, run, kind) == (1, 10, "environment")
        assert (1, 25, "process") in failures
        for threads in (1, 2, 3):
            with pytest.raises(SimulationError) as err:
                estimate(c, k, N, seed, threads=threads, use_fast_path=fast)
            assert (err.value.run, err.value.step) == (run, step)
            assert str(err.value) == f"run {run}: step {step}: y: NaN is not a value"
        # from run 12 on, the least failure is that of the process of run 25
        assert min(f for f in failures if f[1] >= 12) == (1, 25, "process")
        step, run = 1, 25
        with pytest.raises(SimulationError) as err:
            estimate_penalties(c, k, N - 12, seed, [VarPenalty("x", id="x")], [k],
                               use_fast_path=fast, run_offset=12)
        assert (err.value.run, err.value.step) == (run, step)
        assert str(err.value).startswith(f"run {run}: step {step}: sqrt of negative value")


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


class TestStepMajorPenalties:
    """Every path fills the (P, N, T) result step-major: the N penalties of
    one step are adjacent, and the values are the same bits on each path."""

    def test_each_step_is_contiguous_on_every_path(self, caplog):
        caplog.set_level(logging.DEBUG, logger="evometric.engine")
        c = tanks_configuration(init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
        pens = tanks_penalties(c.env.params)
        rhos, obs = [pens["l3"], pens["l1"]], [0, 3, 8, 12]
        other = c.data.update([("l3", 6.0)])
        calls = {
            "lockstep": lambda: estimate_penalties(c, 12, 7, 41, rhos, obs),
            "compiled": lambda: estimate_penalties(replace(c, lockstep=None), 12, 7, 41,
                                                   rhos, obs),
            "interpreter": lambda: estimate_penalties(c, 12, 7, 41, rhos, obs,
                                                      use_fast_path=False),
            "interpreter, 2 workers": lambda: estimate_penalties(
                c, 12, 7, 41, rhos, obs, threads=2, use_fast_path=False),
            "lockstep, 2 segments": lambda: estimate_penalties(
                c, 12, 10, None, rhos, obs, segments=[(c.data, 41, 7), (other, 43, 3)]),
        }
        outs = {}
        for name, call in calls.items():
            caplog.clear()
            outs[name] = call()
            served = [r.getMessage() for r in caplog.records if " path: " in r.getMessage()]
            assert served[0].split(" path")[0] == name.split(",")[0], served
            assert served[0].endswith("in 2 segments") == name.endswith("segments"), served
        shared = outs.pop("lockstep, 2 segments")
        outs["segments"] = shared[:, :7]
        for name, out in outs.items():
            assert out.shape == (2, 7, 4), name
            assert out.strides[1] == 8, name
            assert out.tobytes() == outs["lockstep"].tobytes(), name
        assert shared.strides[1] == 8
        alone = estimate_penalties(c.with_data(other), 12, 3, 43, rhos, obs)
        assert shared[:, 7:].tobytes() == alone.tobytes()


class TestPenaltyConsumer:
    """With a consumer, ``estimate_penalties`` hands each observation
    time's (P, N) penalties over once, in order, and returns None: they are
    the columns of the array the call returns without one, on every path."""

    @pytest.mark.parametrize("name", [
        "lockstep", "compiled", "interpreter", "interpreter, 2 workers", "2 segments",
        "lockstep in blocks", "2 segments in blocks"])
    def test_rows_are_the_columns_of_the_array(self, name, monkeypatch):
        c = tanks_configuration(init={"l1": 5.0, "l2": 5.0, "l3": 5.0})
        if name == "compiled":
            c = replace(c, lockstep=None)
        pens = tanks_penalties(c.env.params)
        rhos, obs = [pens["l3"], pens["l1"]], [0, 3, 8, 12]
        N = 100 if name.endswith("blocks") else 10
        if name.endswith("blocks"):
            monkeypatch.setattr(engine, "_BLOCK_BYTES", 1)  # blocks of 64 runs
        other = c.data.update([("l3", 6.0)])
        kwargs = {"threads": 2 if name.endswith("workers") else 1,
                  "use_fast_path": not name.startswith("interpreter")}
        if "segments" in name:
            kwargs["segments"] = [(c.data, 41, N - 3), (other, 43, 3)]

        rows = []
        assert estimate_penalties(c, 12, N, 41, rhos, obs, **kwargs,
                                  consumer=lambda j, row: rows.append((j, row.copy()))) is None
        out = estimate_penalties(c, 12, N, 41, rhos, obs, **kwargs)
        assert [j for j, _ in rows] == list(range(len(obs)))
        assert all(row.shape == (2, N) for _, row in rows)
        held = np.stack([row for _, row in rows], axis=-1)
        assert held.tobytes() == np.ascontiguousarray(out).tobytes()


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
