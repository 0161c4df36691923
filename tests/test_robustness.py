import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evometric import engine, robustness
from evometric.dataspace import DataSpace, GoalPenalty, VarSpec
from evometric.engine import Configuration, estimate_penalties
from evometric.environment import IdentityKernel
from evometric.errors import PreconditionError, ShortfallError, SimulationError
from evometric.metric import (
    _W_CHUNK,
    ObservationTimes,
    compute_w_sorted,
    constant_discount,
    distance,
    exponential_discount,
    suffix_maxima,
)
from evometric.models.engine_system import (
    AttackConfig,
    SawWindowSampler,
    engine_penalties,
    engine_system,
)
from evometric.models.three_tanks import tanks_configuration, tanks_penalties
from evometric.process import Call, Const, Op, Prefix, Var
from evometric.robustness import (
    PerturbationSampler,
    RobustnessSpec,
    UniformResampler,
    estimate_adaptability,
    estimate_reliability,
    estimate_robustness,
)
from evometric.rng import RandomStream

# resamples no variable, so every candidate is the base state
IDENTITY = UniformResampler(())


def decay_system():
    """Deterministic toy: x steps toward 0 by 1 each step; rho = x / 10."""
    space = DataSpace([VarSpec("x", 0.0, 10.0)])
    proc = Prefix((Op("max", (Const(0.0), Op("-", (Var("x"), Const(1.0))))),),
                  ("x",), Call("Decay"))
    defs = {"Decay": proc}
    rho = GoalPenalty("x", 0.0, 0.0, 10.0, id="x-gap")
    c = Configuration(Call("Decay"), space.state([0.0]), IdentityKernel(), defs)
    return c.validated(), rho


def assert_xi_non_increasing(report):
    xs = list(report.xi)
    assert all(a >= b - 1e-12 for a, b in zip(xs, xs[1:]))


def ball_adaptability(sampler, eta1, M, budget, seed):
    """Adaptability of the tanks from l1 = l2 = l3 = 5 under the l3 penalty.

    Its initial filter accepts the ball rho(d') <= rho(d_s) + eta1 around
    rho^l3(d_s) = 0.5."""
    c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
    rho = tanks_penalties(c.env.params)["l3"]
    report = estimate_adaptability(rho, 0, eta1, c, sampler, ObservationTimes.range(1),
                                   N=4, ell=1, seed=seed, M=M, budget=budget)
    return c, report


def redraw(c, sampler, seed, attempt):
    """The candidate of one attempt: the sampler on stream (seed, 1, attempt)."""
    return sampler.sample(c.data, RandomStream.from_seed(seed).child(1).child(attempt))


class TestSamplePerturbations:
    def test_vacuous_bound_accepts_first_m(self):
        _, rep = ball_adaptability(UniformResampler(None), 0.99, M=10, budget=10, seed=3)
        assert (rep.accepted, rep.attempts, rep.rejected) == (10, 10, 0)
        assert rep.accepted_attempts == list(range(10))

    def test_identity_sampler_returns_base_copies(self):
        c, rep = ball_adaptability(IDENTITY, 0.0, M=5, budget=5, seed=3)
        assert rep.accepted_attempts == list(range(5))
        assert all(redraw(c, IDENTITY, 3, a) == c.data for a in rep.accepted_attempts)

    def test_ball_membership(self):
        # eta1 = 0.3 accepts exactly rho(d') <= 0.8, i.e. l3 in [2, 18]
        sampler = UniformResampler(None)
        c, rep = ball_adaptability(sampler, 0.3, M=40, budget=500, seed=8)
        assert rep.accepted == 40 and rep.rejected > 0
        for attempt in range(rep.attempts):
            inside = 2.0 <= redraw(c, sampler, 8, attempt)["l3"] <= 18.0
            assert inside == (attempt in rep.accepted_attempts)

    def test_shortfall_carries_counts(self):
        # eta1 = 0 accepts only rho(d') <= 0.5, p ~ 1/2 per draw, but the
        # budget is tiny
        with pytest.raises(ShortfallError) as err:
            ball_adaptability(UniformResampler(("l3",)), 0.0, M=50, budget=55, seed=9)
        assert err.value.accepted < 50
        assert err.value.requested == 50
        assert err.value.attempts == 55

    def test_sizes_are_checked_before_any_draw(self):
        c, rho = decay_system()
        for N, ell, message in ((5, 0, "scale factor must be a positive integer, got 0"),
                                (0, 1, "sample count must be >= 1, got 0")):
            with pytest.raises(PreconditionError) as err:
                estimate_reliability(rho, 0.9, c, Broken(), ObservationTimes.range(3),
                                     N=N, ell=ell, seed=1, M=1)
            assert str(err.value) == message

    def test_budget_precondition(self):
        with pytest.raises(PreconditionError):
            ball_adaptability(IDENTITY, 0.1, M=5, budget=3, seed=1)

    @pytest.mark.parametrize("M, budget", [(2.5, 12), (2, 2.5)], ids=["M", "budget"])
    def test_a_count_that_is_not_an_integer_is_refused(self, M, budget):
        # M = 2.5 was never reached, so every attempt of the budget ran
        with pytest.raises(PreconditionError, match="must be an integer, got 2.5"):
            ball_adaptability(IDENTITY, 0.1, M=M, budget=budget, seed=1)


class TestDeterministicDecay:
    def test_known_suffix_curve(self):
        # variation x=3 decays to the base orbit (x=0) in 3 steps; with the
        # dirac dynamics the pointwise distance at tau is (3 - tau)/10 for
        # tau <= 3 and 0 afterwards, so xi_tau = max over the suffix
        c, rho = decay_system()
        obs = ObservationTimes.range(10)
        sampler = UniformResampler(("x",))
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 0), tau_tilde=0,
                              eta1=0.31, eta2=0.5, M=1, filter_mode="initial")

        class Fixed(UniformResampler):
            def sample(self, base, rng):
                return base.update([("x", 3.0)])

        rep = estimate_robustness(spec, c, Fixed(), obs, N=5, ell=1, seed=4)
        for tau in obs:
            expect = max(0.0, (3 - tau) / 10.0) if tau <= 3 else 0.0
            assert rep.xi_at(tau) == pytest.approx(expect, abs=1e-12)
        assert_xi_non_increasing(rep)

    def test_m_equals_one_is_single_curve(self):
        c, rho = decay_system()
        obs = ObservationTimes.range(5)
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 0), tau_tilde=0,
                              eta1=0.9, eta2=0.5, M=1, filter_mode="initial")
        rep = estimate_robustness(spec, c, UniformResampler(("x",)), obs, N=3, ell=1, seed=6)
        assert rep.accepted == 1
        assert tuple(rep.xi) == rep.variation_curves[0]


class TestEstimators:
    def test_reports_deterministic(self):
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(30)
        a = estimate_adaptability(rho, 10, 0.3, c, UniformResampler(None), obs,
                                  N=40, ell=2, seed=77, M=5)
        b = estimate_adaptability(rho, 10, 0.3, c, UniformResampler(None), obs,
                                  N=40, ell=2, seed=77, M=5)
        assert a.to_json_dict() == b.to_json_dict()
        assert_xi_non_increasing(a)

    def test_monotone_in_eta1(self):
        # same seeds and attempt-indexed candidate streams: a larger ball
        # accepts a superset of the smaller ball's candidates over any common
        # attempt prefix, with identical per-candidate curves, so enlarging
        # eta1 can only raise xi
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(25)
        small = estimate_adaptability(rho, 5, 0.1, c, UniformResampler(None), obs,
                                      N=30, ell=2, seed=55, M=6, budget=400)
        big = estimate_adaptability(rho, 5, 0.35, c, UniformResampler(None), obs,
                                    N=30, ell=2, seed=55, M=10, budget=400)
        horizon = max(big.accepted_attempts)
        for a in small.accepted_attempts:
            if a <= horizon:
                assert a in big.accepted_attempts
        small_map = dict(zip(small.accepted_attempts, small.variation_curves))
        big_map = dict(zip(big.accepted_attempts, big.variation_curves))
        shared = set(small_map) & set(big_map)
        assert shared
        for a in shared:
            assert small_map[a] == big_map[a]
        for t in range(len(obs)):
            small_shared_max = max(small_map[a][t] for a in shared)
            assert small_shared_max <= big.xi[t] + 1e-12

    def test_reliability_is_adaptability_at_first_observation(self):
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(20)
        a = estimate_adaptability(rho, 0, 0.3, c, UniformResampler(None), obs,
                                  N=25, ell=2, seed=91, M=4)
        r = estimate_reliability(rho, 0.3, c, UniformResampler(None), obs,
                                 N=25, ell=2, seed=91, M=4)
        assert a.xi == r.xi
        assert a.accepted_attempts == r.accepted_attempts

    def test_identity_sampler_sits_at_noise_floor(self):
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(30)
        rep = estimate_adaptability(rho, 10, 0.0, c, IDENTITY, obs,
                                    N=100, ell=2, seed=17, M=5)
        # oracle: self-distance at the same sample sizes bounds the noise
        floor = max(
            distance(c, c, rho, constant_discount(), obs, N=100, ell=2, seed=900 + i).value
            for i in range(5)
        )
        assert rep.xi_at(0) <= 3.0 * floor + 1e-6

    def test_verdict_shape(self):
        c, rho = decay_system()
        obs = ObservationTimes.range(4)
        rep = estimate_reliability(rho, 0.9, c, IDENTITY, obs,
                                   N=3, ell=1, seed=1, eta2=0.1, M=2)
        v = rep.verdict(0, 0.1)
        assert v["satisfied"] is True
        assert "evidence" in v["label"]

    def test_spec_validation(self):
        c, rho = decay_system()
        obs = ObservationTimes.range(4)
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 9), tau_tilde=2,
                              eta1=0.1, eta2=0.1, M=1)
        with pytest.raises(PreconditionError):
            spec.check_against(obs)  # interval exceeds the horizon
        with pytest.raises(PreconditionError):
            RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 0), tau_tilde=0,
                           eta1=1.2, eta2=0.1, M=1)

    def test_evolution_filter_mode(self):
        # filter over a window after step 0 exercises the simulated filter
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        pens = tanks_penalties(c.env.params)
        spec = RobustnessSpec(rho=pens["l3"], rho_target=pens["mean_l1_l2"],
                              interval=(0, 10), tau_tilde=5, eta1=0.35, eta2=0.3,
                              M=3, filter_mode="evolution")
        obs = ObservationTimes.range(20)
        rep = estimate_robustness(spec, c, UniformResampler(None), obs,
                                  N=30, ell=2, seed=41, budget=200)
        assert rep.accepted == 3
        assert rep.spec_echo["rho_target"] == "mean_l1_l2"

    def test_csv_and_json(self, tmp_path):
        c, rho = decay_system()
        obs = ObservationTimes.range(3)
        rep = estimate_reliability(rho, 0.9, c, IDENTITY, obs,
                                   N=2, ell=1, seed=1, M=1)
        path = tmp_path / "rob.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == "tau_tilde,xi"
        assert len(lines) == 2 + len(obs)
        data = rep.to_json_dict()
        assert data["accepted"] == 1


def folded_by_hand(spec, c, sampler, obs, N, ell, seed, budget):
    """xi, curves and accepted attempts of a spec whose filter needs no
    simulation, folded one column at a time from estimate_penalties called
    with both penalties (constant discount 1)."""
    stream = RandomStream.from_seed(seed)
    both = [spec.rho, spec.rho_target]
    base = estimate_penalties(c, obs.horizon, N, stream.child(0), both, list(obs))
    curves, attempts = [], []
    for attempt in range(budget):
        cand = sampler.sample(c.data, stream.child(1).child(attempt))
        if max(spec.rho(0, cand) - spec.rho(0, c.data), 0.0) > spec.eta1:
            continue
        pen = estimate_penalties(c.with_data(cand), obs.horizon, N * ell,
                                 stream.child(2).child(attempt), both, list(obs))
        pointwise = [float(compute_w_sorted(base[1][:, j:j + 1], pen[1][:, j:j + 1])[0])
                     for j in range(len(obs))]
        curves.append(tuple(suffix_maxima(pointwise)))
        attempts.append(attempt)
        if len(curves) == spec.M:
            break
    return tuple(max(column) for column in zip(*curves)), curves, attempts


class TestOnlyTheTargetPenaltyIsSimulated:
    @pytest.fixture
    def penalty_counts(self, monkeypatch):
        counts = []

        def counting(c, k, N, seed, penalties, *args, **kwargs):
            counts.append(len(penalties))
            return estimate_penalties(c, k, N, seed, penalties, *args, **kwargs)
        monkeypatch.setattr(robustness, "estimate_penalties", counting)
        return counts

    def test_trivial_window_equals_the_hand_fold(self, penalty_counts):
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        pens = tanks_penalties(c.env.params)
        spec = RobustnessSpec(rho=pens["l3"], rho_target=pens["l1"], interval=(0, 0),
                              tau_tilde=5, eta1=0.3, eta2=0.3, M=3)
        obs = ObservationTimes.range(20)
        sampler = UniformResampler(("l2", "l3"))
        rep = estimate_robustness(spec, c, sampler, obs, N=30, ell=2, seed=8, budget=60)
        xi, curves, attempts = folded_by_hand(spec, c, sampler, obs, 30, 2, 8, 60)
        assert (rep.xi, rep.variation_curves, rep.accepted_attempts) == (xi, curves, attempts)
        assert penalty_counts == [1] * len(attempts)  # the base shares the first call

    def test_adaptability_equals_the_hand_fold(self, penalty_counts):
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(20)
        sampler = UniformResampler(("q1", "l2", "l3"))
        rep = estimate_adaptability(rho, 5, 0.3, c, sampler, obs, N=30, ell=3, seed=9,
                                    M=3, budget=60)
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 0), tau_tilde=5,
                              eta1=0.3, eta2=0.0, M=3, filter_mode="initial")
        xi, curves, attempts = folded_by_hand(spec, c, sampler, obs, 30, 3, 9, 60)
        assert (rep.xi, rep.variation_curves, rep.accepted_attempts) == (xi, curves, attempts)
        assert penalty_counts == [1] * len(attempts)  # the base shares the first call


def estimated_in_order(spec, c, sampler, obs, N, ell, seed, budget, discount, progress):
    """The estimator written as one estimate after another: the base first,
    then each candidate that passes the initial filter, each through its
    own estimate_penalties call with both penalties, folded as
    ``folded_by_hand`` folds them.  Returns the report's fields, or the
    ShortfallError's counts."""
    stream = RandomStream.from_seed(seed)
    k, both = obs.horizon, [spec.rho, spec.rho_target]
    lo, hi = spec.interval
    window = [j for j, t in enumerate(obs) if lo <= t <= hi]
    simulated = spec.filter_mode == "evolution" and [obs.steps[j] for j in window] != [0]
    base = estimate_penalties(c, k, N, stream.child(0), both, list(obs))
    curves, accepted_attempts, rejected = [], [], 0
    for attempt in range(budget):
        cand = sampler.sample(c.data, stream.child(1).child(attempt))
        progress(len(curves), attempt + 1, spec.M)
        if not simulated:
            d0 = max(spec.rho(0, cand) - spec.rho(0, c.data), 0.0)
            if spec.filter_mode == "evolution":
                d0 *= discount(0)
            if d0 > spec.eta1:
                rejected += 1
                continue
        pen = estimate_penalties(c.with_data(cand), k, N * ell,
                                 stream.child(2).child(attempt), both, list(obs))
        if simulated:
            w = compute_w_sorted(base[0][:, window], pen[0][:, window]).tolist()
            if max(discount(obs.steps[j]) * wj for j, wj in zip(window, w)) > spec.eta1:
                rejected += 1
                continue
        w = compute_w_sorted(base[1], pen[1]).tolist()
        curves.append(tuple(suffix_maxima([discount(t) * wj for t, wj in zip(obs, w)])))
        accepted_attempts.append(attempt)
        if len(curves) == spec.M:
            break
    if len(curves) < spec.M:
        return ("shortfall", len(curves), attempt + 1)
    xi = tuple(max(column) for column in zip(*curves))
    return (xi, curves, accepted_attempts, len(curves), rejected, attempt + 1)


def fields_of(run):
    try:
        rep = run()
    except ShortfallError as err:
        return ("shortfall", err.accepted, err.attempts)
    return (rep.xi, rep.variation_curves, rep.accepted_attempts, rep.accepted,
            rep.rejected, rep.attempts)


def engine_saw():
    c = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),))
    pens = engine_penalties(False, awml=1000)
    return c, pens["window_L"], pens["fn_L"], SawWindowSampler("L", 20)


TANK_VARS = ("q1", "q2", "q3", "l1", "l2", "l3")


@st.composite
def robustness_questions(draw):
    """A model on one of the three fast paths (tanks twin, tanks compiled,
    engine twin), its penalties and sampler, and a filter of each kind."""
    model = draw(st.sampled_from(["tanks", "tanks-compiled", "engine"]))
    if model == "engine":
        c, rho, target, sampler = engine_saw()
    else:
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        if model == "tanks-compiled":
            c = replace(c, lockstep=None)
        pens = tanks_penalties(c.env.params)
        rho, target = pens["l3"], pens[draw(st.sampled_from(["l1", "mean_l1_l2"]))]
        names = draw(st.lists(st.sampled_from(TANK_VARS), min_size=1, max_size=3, unique=True))
        sampler = UniformResampler(tuple(names))
    k = draw(st.integers(1, 6))
    obs = ObservationTimes.range(k)
    mode = draw(st.sampled_from(["initial", "window-0", "wider"]))
    interval = (0, draw(st.integers(1, k))) if mode == "wider" else (0, 0)
    M = draw(st.integers(1, 3))
    spec = RobustnessSpec(rho=rho, rho_target=target, interval=interval, tau_tilde=0,
                          eta1=draw(st.floats(0.0, 0.5)), eta2=0.5, M=M,
                          filter_mode="initial" if mode == "initial" else "evolution")
    discount = draw(st.sampled_from([constant_discount(), exponential_discount(0.9)]))
    return spec, c, sampler, obs, discount, draw(st.integers(M, M + 8))


class TestSharedBaseBlock:
    """A base of fewer than _SHARED_BASE_RUNS runs is simulated in the first
    simulated candidate's estimate; the report and the progress calls must
    be those of the base estimated first."""

    @given(question=robustness_questions(),
           N=st.sampled_from([1, 5, robustness._SHARED_BASE_RUNS - 1,
                              robustness._SHARED_BASE_RUNS]),
           ell=st.integers(1, 2), seed=st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_estimates_in_order(self, question, N, ell, seed):
        spec, c, sampler, obs, discount, budget = question
        calls, want_calls = [], []
        got = fields_of(lambda: estimate_robustness(
            spec, c, sampler, obs, N, ell, seed, discount=discount, budget=budget,
            progress=lambda *a: calls.append(a)))
        want = estimated_in_order(spec, c, sampler, obs, N, ell, seed, budget, discount,
                                  lambda *a: want_calls.append(a))
        assert got == want
        assert calls == want_calls

    @pytest.mark.parametrize("N", [robustness._SHARED_BASE_RUNS - 1,
                                   robustness._SHARED_BASE_RUNS])
    def test_a_base_of_256_runs_or_more_is_estimated_alone(self, monkeypatch, N):
        calls = []

        def counting(c, k, N, seed, penalties, *args, **kwargs):
            calls.append((N, len(kwargs["segments"])))
            return estimate_penalties(c, k, N, seed, penalties, *args, **kwargs)
        monkeypatch.setattr(robustness, "estimate_penalties", counting)
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        estimate_adaptability(rho, 0, 0.9, c, IDENTITY, ObservationTimes.range(2),
                              N=N, ell=1, seed=3, M=2)
        if N < robustness._SHARED_BASE_RUNS:
            assert calls == [(2 * N, 2), (N, 1)]
        else:
            assert calls == [(N, 1)] * 3


    def test_the_kept_base_does_not_alias_the_shared_block(self, monkeypatch):
        """The base simulated in the first candidate's block is kept as a
        (N, T) step-major block of its own, which every fold reads and no
        candidate's buffer shares."""
        folds = []

        def recording(omega, nu):
            folds.append((omega, nu))
            return compute_w_sorted(omega, nu)
        monkeypatch.setattr(robustness, "compute_w_sorted", recording)
        c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(40)  # two chunks of columns per candidate
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 0), tau_tilde=0,
                              eta1=0.9, eta2=0.0, M=3, filter_mode="initial")
        rep = estimate_robustness(spec, c, IDENTITY, obs, 6, 2, 3)
        assert len(folds) == 3 * 2
        kept = folds[0][0].base
        assert kept.shape == (1, 41, 6)  # (P, T, N) in memory: (P, N, T) step-major
        for omega, nu in folds:
            assert omega.base is kept
            assert omega.shape[0] == 6 and omega.strides[0] == 8
            assert nu.shape[0] == 12 and nu.strides[0] == 8
            assert not any(np.shares_memory(omega, other) for _, other in folds)
        assert [o.tobytes() for o, _ in folds[:2]] * 3 == [o.tobytes() for o, _ in folds]
        want = estimated_in_order(spec, c, IDENTITY, obs, 6, 2, 3, 3, constant_discount(),
                                  lambda *a: None)
        assert fields_of(lambda: rep) == want


def streamed_question(path, k, mode, hi, eta1, M, N, ell, small_blocks):
    """A tanks question on one execution path: the filter and target
    penalties, a filter window (0, hi), and blocks of the normal size or of
    64 runs, which splits a candidate of more runs into several blocks."""
    c = tanks_configuration(init={"l1": 5, "l2": 5, "l3": 5})
    if path == "compiled":
        c = replace(c, lockstep=None)
    pens = tanks_penalties(c.env.params)
    spec = RobustnessSpec(rho=pens["l3"], rho_target=pens["l1"], interval=(0, hi),
                          tau_tilde=0, eta1=eta1, eta2=0.5, M=M, filter_mode=mode)
    return (spec, c, UniformResampler(("l2", "l3")), ObservationTimes.range(k), N, ell,
            path, small_blocks)


@st.composite
def streamed_questions(draw):
    """Questions over up to 70 steps, so the filter window and the horizon
    may straddle a _W_CHUNK boundary; the interpreter's are smaller."""
    path = draw(st.sampled_from(["lockstep", "compiled", "interpreter",
                                 "interpreter, 2 workers"]))
    interpreted = path.startswith("interpreter")
    k = draw(st.integers(1, 40 if interpreted else 70))
    return streamed_question(
        path, k, draw(st.sampled_from(["initial", "evolution"])), draw(st.integers(0, k)),
        draw(st.floats(0.0, 0.5)), draw(st.integers(1, 3)),
        draw(st.sampled_from([1, 5] if interpreted else [1, 5, 40])),
        draw(st.integers(1, 2)), draw(st.booleans()))


class TestStreamedFold:
    """Each candidate's W is folded a chunk of steps at a time while it is
    simulated: the reports are those of the estimates materialised first,
    on every path, and no candidate's penalties are held."""

    @given(question=streamed_questions(), seed=st.integers(0, 2**31))
    @example(question=streamed_question("lockstep", 70, "evolution", 40, 0.5, 3, 40, 2, True),
             seed=1)  # a candidate of two blocks, a window over two chunks
    @example(question=streamed_question("compiled", 65, "evolution", 33, 0.5, 2, 5, 2, False),
             seed=2)
    @example(question=streamed_question("interpreter, 2 workers", 40, "evolution", 35, 0.5,
                                        2, 5, 2, False), seed=3)
    @example(question=streamed_question("interpreter", 40, "evolution", 35, 0.5, 2, 5, 2,
                                        False), seed=4)  # streamed over two chunks
    @settings(max_examples=80, deadline=None)
    def test_equals_the_materialised_estimates(self, question, seed):
        spec, c, sampler, obs, N, ell, path, small_blocks = question
        budget = spec.M + 4
        with pytest.MonkeyPatch.context() as mp:
            if small_blocks:
                mp.setattr(engine, "_BLOCK_BYTES", 1)  # blocks of 64 runs
            got = fields_of(lambda: estimate_robustness(
                spec, c, sampler, obs, N, ell, seed, budget=budget,
                threads=2 if path.endswith("2 workers") else 1,
                use_fast_path=not path.startswith("interpreter")))
        want = estimated_in_order(spec, c, sampler, obs, N, ell, seed, budget,
                                  constant_discount(), lambda *a: None)
        assert got == want

    def test_a_rejected_candidate_folds_no_more_of_its_target(self, monkeypatch):
        """The filter window ends in the first chunk: each candidate folds
        it once, and only an accepted one folds its target, in three
        chunks of the 71 observation times."""
        folds = []

        def recording(omega, nu):
            folds.append(omega.shape[1])
            return compute_w_sorted(omega, nu)
        monkeypatch.setattr(robustness, "compute_w_sorted", recording)
        spec, c, sampler, obs, *_ = streamed_question("lockstep", 70, "evolution", 5, 0.01,
                                                       2, 5, 2, False)
        got = fields_of(lambda: estimate_robustness(spec, c, sampler, obs, 5, 2, 4, budget=12))
        accepted, attempts = got[1:] if got[0] == "shortfall" else (got[3], got[5])
        assert 0 < accepted < attempts
        assert sorted(folds) == sorted([6] * attempts + [_W_CHUNK, _W_CHUNK, 7] * accepted)

    def test_only_the_base_and_one_chunk_are_held(self):
        """A tracemalloc bound on a call with a shared base, a wider window,
        three accepted candidates and a rejected one: the base, one chunk
        buffer and the report's lists of floats, far less than one
        candidate's (2, l*N, T) penalties."""
        c, rho = decay_system()
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, 10), tau_tilde=0,
                              eta1=0.2, eta2=0.5, M=3)
        N, ell, k = 20, 5, 3000

        def run(k):
            return estimate_robustness(spec, c, UniformResampler(("x",)),
                                       ObservationTimes.range(k), N, ell, seed=4, budget=30)
        run(40)  # imports and compiles outside the measurement
        tracemalloc.start()
        try:
            rep = run(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rep.accepted, rep.rejected) == (3, 1)
        T = k + 1
        base, chunk = 2 * N * T * 8, 2 * _W_CHUNK * ell * N * 8
        floats = (spec.M + 3) * T * 32  # curves, pointwise, suffix and xi lists
        candidate = 2 * ell * N * T * 8
        bound = base + chunk + floats + 2**19
        assert bound < candidate / 2
        assert peak < bound, (peak, bound)


class Values(PerturbationSampler):
    """The n-th candidate is the base with x set to the n-th of ``xs``, or
    to the last one."""

    def __init__(self, *xs):
        self.xs = list(xs)

    def sample(self, base, rng):
        return base.update([("x", self.xs.pop(0) if len(self.xs) > 1 else self.xs[0])])


class Picky(GoalPenalty):
    """A goal penalty that raises at one step on a block of more than
    ``rows`` rows, recording the size of each block it refused."""

    def __init__(self, *args, step, rows, **kwargs):
        super().__init__(*args, **kwargs)
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "failed", [])

    def score_batch(self, step, values, space):
        if step == self.step and len(values) > self.rows:
            self.failed.append(len(values))
            raise ValueError("a block of too many rows")
        return super().score_batch(step, values, space)


class Broken(PerturbationSampler):
    def sample(self, base, rng):
        raise ValueError("no candidate")


def failing_system(lockstep_free=True, limit=5.5):
    """x counts the steps up from its initial value; the process takes
    sqrt(limit - x), which fails at the first step where x exceeds the
    limit, so at the default 5.5 a run from x = 0 fails at step 6 and one
    from x = 3 at step 3."""
    space = DataSpace([VarSpec("x", 0.0, 100.0), VarSpec("y", 0.0, 100.0)])
    proc = Prefix((Op("+", (Var("x"), Const(1.0))),
                   Op("sqrt", (Op("-", (Const(limit), Var("x"))),))),
                  ("x", "y"), Call("Count"))
    c = Configuration(Call("Count"), space.state([0.0, 0.0]), IdentityKernel(),
                      {"Count": proc}).validated()
    rho = GoalPenalty("x", 0.0, 0.0, 100.0, id="x-gap")
    return c, rho


def raised(run):
    with pytest.raises(Exception) as err:
        run()
    e = err.value
    return type(e), str(e), getattr(e, "run", None), getattr(e, "step", None)


class TestFailuresOfASharedBlock:
    """Each failure is the one the base estimated first raises."""

    def adaptability(self, sampler, k, M=1, budget=None, fast=True):
        c, rho = failing_system()
        return lambda: estimate_adaptability(
            rho, 0, 0.9, c, sampler, ObservationTimes.range(k), N=10, ell=2, seed=5,
            M=M, budget=budget, use_fast_path=fast)

    def base_failure(self, k):
        c, rho = failing_system()
        return raised(lambda: estimate_penalties(
            c, k, 10, RandomStream.from_seed(5).child(0), [rho], list(range(k + 1))))

    @pytest.mark.parametrize("fast", [True, False])
    def test_the_base_fails_later_than_the_candidate(self, fast):
        want = self.base_failure(8)
        assert want[3] == 6 and "sqrt" in want[1]
        assert raised(self.adaptability(Values(3.0), 8, fast=fast)) == want

    def test_the_candidate_fails_alone(self):
        got = raised(self.adaptability(Values(3.0), 4))
        assert got[0] is SimulationError and (got[2], got[3]) == (0, 3)

    def test_the_sampler_raises_while_the_base_would_fail(self):
        assert raised(self.adaptability(Broken(), 8)) == self.base_failure(8)
        assert raised(self.adaptability(Broken(), 4)) == (ValueError, "no candidate", None,
                                                          None)

    def test_a_failure_after_a_folded_chunk(self, monkeypatch):
        """Both runs fail past the first chunk of steps, the candidate's
        earlier: the base's failure is raised, after a chunk was folded."""
        folds = []

        def recording(omega, nu):
            folds.append(omega.shape[1])
            return compute_w_sorted(omega, nu)
        monkeypatch.setattr(robustness, "compute_w_sorted", recording)
        c, rho = failing_system(limit=40.5)
        k = 2 * _W_CHUNK + 3
        want = raised(lambda: estimate_penalties(
            c, k, 10, RandomStream.from_seed(5).child(0), [rho], list(range(k + 1))))
        assert want[3] == 41
        for fast in (True, False):
            folds.clear()
            got = raised(lambda: estimate_adaptability(
                rho, 0, 0.9, c, Values(3.0), ObservationTimes.range(k), N=10, ell=2,
                seed=5, M=1, use_fast_path=fast))
            assert got == want
            assert folds == [_W_CHUNK]

    def test_a_shared_block_that_fails_alone_starts_the_fold_over(self):
        """A penalty that fails only on a block of more rows than a
        candidate's, at a step past the first chunk: the shared block fails
        after a chunk was folded, the segments run alone, and the report is
        that of the estimates in order."""
        c, _ = decay_system()
        k = 2 * _W_CHUNK + 3
        rho = Picky("x", 0.0, 0.0, 10.0, id="picky", step=_W_CHUNK + 5, rows=2 * 5)
        spec = RobustnessSpec(rho=rho, rho_target=rho, interval=(0, _W_CHUNK + 2),
                              tau_tilde=0, eta1=0.5, eta2=0.5, M=2)
        sampler = UniformResampler(("x",))
        got = fields_of(lambda: estimate_robustness(spec, c, sampler,
                                                    ObservationTimes.range(k), 5, 2, 9))
        want = estimated_in_order(spec, c, sampler, ObservationTimes.range(k), 5, 2, 9, 40,
                                  constant_discount(), lambda *a: None)
        assert got == want and got[3] == 2
        assert rho.failed == [3 * 5]  # the shared block, once

    def test_a_shortfall_raises_once_the_accepted_candidates_ran(self):
        # x = 1 passes the filter and runs cleanly, x = 95 is rejected
        got = raised(self.adaptability(Values(1.0, 95.0), 4, M=2, budget=3))
        assert got == (ShortfallError, "accepted only 1 of 2 variations in 3 attempts",
                       None, None)
        # x = 4 is accepted and fails at step 2, before the shortfall
        got = raised(self.adaptability(Values(4.0, 95.0), 4, M=2, budget=3))
        assert got[0] is SimulationError and (got[2], got[3]) == (0, 2)
        # with no candidate accepted, the base still fails first
        assert raised(self.adaptability(Values(95.0), 8, M=2, budget=4)) == \
            self.base_failure(8)
