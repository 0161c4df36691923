import math

import numpy as np
import pytest

from evometric.dataspace import DataValidationError
from evometric.engine import estimate, estimate_penalties
from evometric.errors import PreconditionError
from evometric.models.registry import build_model
from evometric.models.engine_system import (
    AttackConfig,
    EngineEnv,
    EngineParams,
    SawWindowSampler,
    engine_manifest,
    engine_penalties,
    engine_space,
    engine_system,
)
from evometric.process import validate
from evometric.rng import RandomStream


def kernel_step(env, overrides, u=0.5):
    """One kernel row from the default initial state with ``overrides``,
    every side drawing the uniform ``u``."""
    values = dict(zip(env.space.names, engine_system(dual=env.dual).data.values))
    values.update(overrides)
    vec = np.array([[values[n] for n in env.space.names]])
    out = env.sample_batch(vec, np.full((1, env.draws), u))
    return dict(zip(env.space.names, out[0].tolist()))


class TestSpace:
    def test_single_engine_variables(self):
        space = engine_space(False)
        assert "temp_L" in space.names and "ch_speed_R_to_L" in space.names
        assert "ch_alarm" not in space.names

    def test_dual_engine_variables(self):
        space = engine_space(True)
        for name in ("temp_R", "fn", "fp", "ch_alarm"):
            assert name in space.names

    def test_manifest_encodings(self):
        m = engine_manifest(EngineParams(), dual=True)
        assert m["encodings"]["speed"] == {"slow": 0, "half": 1, "full": 2}
        assert m["initial_state"]["temp_L"] == 95.0


class TestParams:
    @pytest.mark.parametrize("field, value", [
        ("stress_incr", math.inf), ("max_temp", math.nan), ("clearance", math.inf),
        ("threshold", -math.inf)])
    def test_a_non_finite_parameter_is_rejected(self, field, value):
        # max_temp = nan also slipped past threshold > max_temp
        with pytest.raises(DataValidationError, match=f"must be finite: {field}"):
            EngineParams(**{field: value})


class TestAttackConfig:
    def test_parse(self):
        a = AttackConfig.parse("act:L:1.8")
        assert (a.kind, a.side, a.ac) == ("act", "L", 1.8)
        s = AttackConfig.parse("saw:R:0.6:1000")
        assert (s.tf, s.awml) == (0.6, 1000)

    def test_validation(self):
        with pytest.raises(DataValidationError):
            AttackConfig("act", "L", ac=5.0)
        with pytest.raises(DataValidationError):
            AttackConfig("sen", "L")
        with pytest.raises(DataValidationError):
            AttackConfig.parse("saw:L:0.4")

    @pytest.mark.parametrize("text", ["sen:L:12", "sen:L:10.01", "saw:L:12:1000", "sen:L:0"])
    def test_offset_outside_temp_fake_domain_rejected(self, text):
        # temp_fake lies in [-10, 10]; a larger offset would make the fast
        # path write a value the interpreter clamps
        with pytest.raises(DataValidationError):
            AttackConfig.parse(text)
        with pytest.raises(DataValidationError):
            build_model("engine", {"attacks": [text]})

    def test_offset_at_domain_edge_accepted(self):
        c = build_model("engine", {"attacks": ["sen:L:10"]})
        fast = estimate(c, 60, 4, seed=5, use_fast_path=True)
        slow = estimate(c, 60, 4, seed=5, use_fast_path=False)
        assert np.array_equal(fast.states, slow.states)
        assert (fast.states[:, 1:, c.space.index("temp_fake_L")] == -10.0).all()

    def test_duplicate_kind_side_rejected(self):
        with pytest.raises(PreconditionError):
            engine_system(attacks=(AttackConfig.parse("act:L:1.8"),
                                   AttackConfig.parse("act:L:2.0")))

    def test_write_conflicting_attacks_rejected(self):
        with pytest.raises(PreconditionError):
            engine_system(attacks=(AttackConfig.parse("sen:L:0.4"),
                                   AttackConfig.parse("saw:L:0.4:1000")))

    def test_side_r_needs_dual(self):
        with pytest.raises(PreconditionError):
            engine_system(attacks=(AttackConfig.parse("sen:R:0.4"),))


class TestKernel:
    def test_history_shift(self):
        env = EngineEnv(EngineParams())
        ps = {f"p{k}_L": 90.0 + k for k in range(1, 7)}
        out = kernel_step(env, {"temp_L": 99.0, **ps})
        assert out["p1_L"] == 99.0
        for k in range(2, 7):
            assert out[f"p{k}_L"] == 90.0 + (k - 1)

    def test_history_shift_per_side(self):
        env = EngineEnv(EngineParams(), dual=True)
        ps = {f"p{k}_{s}": k + (10.0 if s == "R" else 0.0) for k in range(1, 7) for s in "LR"}
        out = kernel_step(env, {"temp_L": 50.0, "temp_R": 60.0, **ps})
        assert [out[f"p{k}_L"] for k in range(1, 7)] == [50.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert [out[f"p{k}_R"] for k in range(1, 7)] == [60.0, 11.0, 12.0, 13.0, 14.0, 15.0]

    def test_cooling_delta_interval(self):
        # delta = low + width * (1 - u): u = 1 gives the low end, u -> 0 the
        # high end, u = 0.5 the middle
        # (from temp 0, so that the new temp is the delta itself)
        env = EngineEnv(EngineParams())
        for u, delta in ((1.0, -1.2), (0.5, -1.0), (2.0**-53, -0.8)):
            out = kernel_step(env, {"cool_L": 1.0, "temp_L": 0.0}, u)
            assert out["temp_L"] == pytest.approx(delta, abs=1e-12)
            assert -1.2 <= out["temp_L"] <= -0.8

    def test_heating_intervals_by_speed(self):
        env = EngineEnv(EngineParams())
        for speed, lo, hi in ((0.0, 0.1, 0.3), (1.0, 0.3, 0.7), (2.0, 0.7, 1.2)):
            low = kernel_step(env, {"speed_L": speed, "temp_L": 95.0}, 1.0)
            mid = kernel_step(env, {"speed_L": speed, "temp_L": 95.0}, 0.5)
            assert low["temp_L"] == 95.0 + lo
            assert mid["temp_L"] == pytest.approx(95.0 + (lo + hi) / 2, abs=1e-12)

    def test_stress_saturates_at_one(self):
        env = EngineEnv(EngineParams())
        hot = {f"p{k}_L": 101.0 for k in range(1, 7)}
        out = kernel_step(env, {"stress_L": 1.0, **hot})
        assert out["stress_L"] == 1.0
        assert out["sc_L"] == 1.0
        near = kernel_step(env, {"stress_L": 0.99, **hot})
        assert near["stress_L"] == 1.0

    def test_stress_needs_more_than_three(self):
        env = EngineEnv(EngineParams())
        three = {f"p{k}_L": 101.0 for k in range(1, 4)}
        out = kernel_step(env, {"stress_L": 0.0, **three})
        assert out["stress_L"] == 0.0
        four = {f"p{k}_L": 101.0 for k in range(1, 5)}
        out = kernel_step(env, {"stress_L": 0.0, **four})
        assert out["stress_L"] == pytest.approx(0.02)

    def test_fn_fp_first_step_hand_values(self):
        # tau = 0 (cs = 0): fn(1) = max(0, stress - warning) = 0.5, fp(1) = 0
        env = EngineEnv(EngineParams())
        out = kernel_step(env, {"stress_L": 0.5, "ch_warning_L": 0.0})
        assert out["fn_L"] == 0.5
        assert out["fp_L"] == 0.0
        assert out["cs"] == 1.0

    def test_perfect_detector_keeps_fn_fp_zero(self):
        env = EngineEnv(EngineParams())
        for level in (0.0, 1.0):
            out = kernel_step(env, {"stress_L": level, "ch_warning_L": level,
                                    "cs": 10.0, "fn_L": 0.0, "fp_L": 0.0})
            assert out["fn_L"] == 0.0 and out["fp_L"] == 0.0

    def test_system_level_fn_capped(self):
        # stress 1 on both sides with no alarm: min(1, 0.7 + 0.7) = 1
        env = EngineEnv(EngineParams(), dual=True)
        out = kernel_step(env, {"stress_L": 1.0, "stress_R": 1.0, "ch_alarm": 0.0,
                                "cs": 0.0})
        assert out["fn"] == 1.0
        assert out["fp"] == 0.0

    def test_alarm_decoding(self):
        env = EngineEnv(EngineParams(), dual=True)
        # alarm = left only: fp charges the left clearance 0.7
        out = kernel_step(env, {"stress_L": 0.0, "stress_R": 0.0, "ch_alarm": 1.0,
                                "cs": 0.0})
        assert out["fp"] == pytest.approx(0.7)
        out = kernel_step(env, {"stress_L": 0.0, "stress_R": 0.0, "ch_alarm": 3.0,
                                "cs": 0.0})
        assert out["fp"] == 1.0


class TestRuns:
    def test_fn_fp_stay_in_unit_interval(self):
        c = engine_system(attacks=(AttackConfig.parse("sen:L:0.6"),))
        E = estimate(c, 400, 10, seed=6)
        for var in ("fn_L", "fp_L", "stress_L"):
            col = E.states[:, :, c.space.index(var)]
            assert (col >= 0.0).all() and (col <= 1.0).all()

    def test_genuine_engine_accumulates_no_stress(self):
        c = engine_system()
        E = estimate(c, 2000, 30, seed=14)
        stress = E.states[:, -1, c.space.index("stress_L")]
        assert stress.mean() < 0.1

    def test_sen_attack_overstresses(self):
        c = engine_system(attacks=(AttackConfig.parse("sen:L:0.4"),))
        E = estimate(c, 2000, 30, seed=14)
        stress = E.states[:, :, c.space.index("stress_L")]
        assert stress[:, -1].mean() > stress[:, 1000].mean() > 0.0

    def test_act_attack_never_fires_ids_while_acting(self):
        # the attack acts (writes cool <- off) when idle and temp < max - AC,
        # or when holding and temp < max; its state is the rightmost operand
        # of the process term.  Both conditions are disjoint from the
        # detector's temp > max, so no acting step may write a hot warning.
        # The walk must reach hold, or the check would skip the state that
        # acts up to max.
        from evometric.engine import sim_step
        from evometric.process import pstep

        c = engine_system(attacks=(AttackConfig.parse("act:L:1.8"),))
        limits = {"Att_Act_L": 100.0 - 1.8, "Att_Act_hold_L": 100.0}
        rng = RandomStream.from_seed(3)
        cur = c
        holds = 0
        for _ in range(1500):
            dist = pstep(cur.process, cur.data, cur.defs)
            effect = dist.triples[0][1]
            writes = dict(effect)
            state = cur.process.right.name
            holds += state == "Att_Act_hold_L"
            if cur.data["temp_L"] < limits[state]:
                assert writes["cool_L"] == 0.0
                assert writes.get("ch_warning_L") != 1.0
            cur = sim_step(cur, rng)
        assert holds > 0

    def test_saw_attack_window_controls_tampering(self):
        c = engine_system(attacks=(AttackConfig.parse("saw:L:0.5:1000"),),
                          init={"left_L": 10.0, "right_L": 40.0})
        E = estimate(c, 80, 5, seed=21)
        fake = E.states[:, :, c.space.index("temp_fake_L")]
        # inside the window (cs in [10, 40]); state at step t has cs = t
        assert (fake[:, 12:41] == -0.5).all()
        assert (fake[:, 50:] == 0.0).all()

    def test_window_penalty_and_sampler(self):
        c = engine_system(attacks=(AttackConfig.parse("saw:L:0.4:1000"),))
        rho = engine_penalties(False, awml=1000)["window_L"]
        sampler = SawWindowSampler("L", 1000)
        rng = RandomStream.from_seed(2)
        for i in range(50):
            cand = sampler.sample(c.data, rng.child(i))
            aw = cand["right_L"]
            assert 0 <= aw <= 1000 and aw == int(aw)
            assert rho(0, cand) == pytest.approx(aw / 1000.0)

    @pytest.mark.parametrize("awml, message", [
        (-5, "saw window length must be >= 0, got -5"),
        (2.5, "saw window length must be an integer, got 2.5"),
    ], ids=["negative", "fraction"])
    def test_a_window_length_that_is_no_count_is_refused(self, awml, message):
        with pytest.raises(PreconditionError, match=message):
            SawWindowSampler("L", awml)


class TestValidationGate:
    def test_act_attack_overlap_is_the_only_issue(self):
        c = engine_system(attacks=(AttackConfig.parse("act:L:1.8"),))
        report = validate(c.process, c.defs, c.space)
        assert not report.ok
        assert {issue.kind for issue in report.issues} == {"write-overlap"}

    def test_clean_attacks_fully_valid(self):
        c = engine_system(attacks=(AttackConfig.parse("sen:L:0.4"),))
        assert validate(c.process, c.defs, c.space).ok

    def test_dual_system_valid(self):
        c = engine_system(dual=True)
        assert validate(c.process, c.defs, c.space).ok


class TestLockstepEquivalence:
    @pytest.mark.parametrize("attacks,dual", [
        ((), False),
        (("act:L:1.8",), False),
        (("sen:L:0.4",), False),
        (("saw:L:0.6:1000",), False),
        ((), True),
        (("act:L:1.8", "sen:R:0.7"), True),
    ])
    def test_bit_identical_paths(self, attacks, dual):
        c = engine_system(
            attacks=tuple(AttackConfig.parse(a) for a in attacks),
            dual=dual,
            init={"left_L": 0.0, "right_L": 25.0} if any("saw" in a for a in attacks) else None,
        )
        fast = estimate(c, 70, 9, seed=31, use_fast_path=True)
        slow = estimate(c, 70, 9, seed=31, use_fast_path=False)
        assert np.array_equal(fast.states, slow.states)

    def test_temperature_clamped_at_domain_floor(self):
        # cooling from -49.5 would leave the domain [-50, 500] of temp; both
        # paths clamp, and the clamped value enters the history p1..p6
        c = engine_system(init={"temp_L": -49.5, "cool_L": 1.0})
        fast = estimate(c, 3, 2, seed=5, use_fast_path=True)
        slow = estimate(c, 3, 2, seed=5, use_fast_path=False)
        assert np.array_equal(fast.states, slow.states)
        assert (fast.states[:, 1, c.space.index("temp_L")] == -50.0).all()
        assert (fast.states[:, 2, c.space.index("p1_L")] == -50.0).all()

    def test_penalty_streaming_matches(self):
        c = engine_system(attacks=(AttackConfig.parse("sen:L:0.4"),))
        rho = engine_penalties(False)["fn_L"]
        obs = list(range(0, 60, 5))
        fast = estimate_penalties(c, 60, 8, 77, [rho], obs, use_fast_path=True)
        slow = estimate_penalties(c, 60, 8, 77, [rho], obs, use_fast_path=False)
        assert np.array_equal(fast, slow)
