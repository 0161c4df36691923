import pytest

from evometric import robustness
from evometric.dataspace import DataSpace, GoalPenalty, VarSpec
from evometric.engine import Configuration, estimate_penalties
from evometric.environment import IdentityKernel
from evometric.errors import PreconditionError, ShortfallError
from evometric.metric import (
    ObservationTimes,
    compute_w_sorted,
    constant_discount,
    distance,
    suffix_maxima,
)
from evometric.models.three_tanks import tanks_configuration, tanks_penalties
from evometric.process import Call, Const, Op, Prefix, Var
from evometric.robustness import (
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

    def test_budget_precondition(self):
        with pytest.raises(PreconditionError):
            ball_adaptability(IDENTITY, 0.1, M=5, budget=3, seed=1)


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
        assert penalty_counts == [1] * (1 + len(attempts))

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
        assert penalty_counts == [1] * (1 + len(attempts))
