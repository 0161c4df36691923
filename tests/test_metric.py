import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from evometric.dataspace import DataSpace, PenaltyFunction, VarPenalty, VarSpec
from evometric.engine import Configuration
from evometric.environment import IdentityKernel
from evometric.errors import PreconditionError, StructuralError
from evometric.metric import (
    _W_CHUNK,
    ObservationTimes,
    compute_w_sorted,
    constant_discount,
    distance,
    exponential_discount,
    report_from_pointwise,
    suffix_maxima,
)
from evometric.models.three_tanks import tanks_configuration, tanks_penalties
from evometric.process import Call, tick


def unit_space():
    return DataSpace([VarSpec("u", 0.0, 1.0)])


def assignment_oracle(omega: np.ndarray, nu: np.ndarray) -> float:
    """Exact optimal transport between equal-size uniform empiricals with
    ground cost max(nu_j - omega_i, 0).  Uniform marginals of equal size make
    the optimal coupling a permutation (Birkhoff), so the Hungarian algorithm
    is exact."""
    cost = np.maximum(nu[None, :] - omega[:, None], 0.0)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


def w1(omega, nu) -> float:
    """The estimate between two 1-D sample sets, as a one-column block."""
    return float(compute_w_sorted(np.asarray(omega)[:, None], np.asarray(nu)[:, None])[0])


def data_state_metric(rho, d1, d2) -> float:
    """The evolution metric at step 0 between two idle configurations that
    start in d1 and d2: their step-0 distributions are Dirac, so this is the
    ground hemimetric max(rho(d2) - rho(d1), 0)."""
    def idle(d):
        return Configuration(Call("L"), d, IdentityKernel(), {"L": tick(Call("L"))})

    return distance(idle(d1), idle(d2), rho, constant_discount(), ObservationTimes((0,)),
                    N=1, ell=1, seed=0).value


class ConstPenalty(PenaltyFunction):
    id = "const"

    def score_batch(self, step, values, space):
        return np.full(len(values), 0.42)


class TestObservationTimes:
    def test_parse_forms(self):
        assert ObservationTimes.parse("0..5").steps == (0, 1, 2, 3, 4, 5)
        assert ObservationTimes.parse("0..10..5").steps == (0, 5, 10)
        assert ObservationTimes.parse("1,4,9").steps == (1, 4, 9)

    @given(st.one_of(
        st.sets(st.integers(0, 60), min_size=1, max_size=8).map(sorted),
        st.builds(lambda a, n, s: range(a, a + n * s + 1, s),
                  st.integers(0, 20), st.integers(0, 6), st.integers(1, 7))))
    @settings(max_examples=200)
    def test_text_parses_back_to_the_same_steps(self, steps):
        obs = ObservationTimes(tuple(steps))
        assert ObservationTimes.parse(str(obs)) == obs

    def test_text_forms(self):
        assert str(ObservationTimes.range(150)) == "0..150"
        assert str(ObservationTimes.parse("0..20..5")) == "0..20..5"
        assert str(ObservationTimes.parse("0,3,20")) == "0,3,20"
        assert str(ObservationTimes((7,))) == "7"

    def test_validation(self):
        with pytest.raises(PreconditionError):
            ObservationTimes(())
        with pytest.raises(PreconditionError):
            ObservationTimes((3, 3))
        with pytest.raises(PreconditionError):
            ObservationTimes((-1, 2))

    @pytest.mark.parametrize("steps", [(math.nan,), (0, math.inf), (0, 2.5)],
                             ids=["nan", "infinite", "fraction"])
    def test_a_time_that_is_not_an_integer_is_refused(self, steps):
        with pytest.raises(PreconditionError, match="observation time must be an integer"):
            ObservationTimes(steps)


class TestDiscounts:
    def test_constant(self):
        lam = constant_discount()
        assert lam(0) == 1.0 and lam(1000) == 1.0

    def test_exponential_non_increasing(self):
        lam = exponential_discount(0.95)
        vals = [lam(t) for t in range(50)]
        assert all(0 < v <= 1 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            exponential_discount(1.5)
        with pytest.raises(PreconditionError):
            constant_discount(0.0)


class TestDataStateMetric:
    def test_identity(self):
        rho = VarPenalty("u")
        d = unit_space().state([0.4])
        assert data_state_metric(rho, d, d) == 0.0

    def test_asymmetry(self):
        rho = VarPenalty("u")
        d1 = unit_space().state([0.2])
        d2 = unit_space().state([0.5])
        assert data_state_metric(rho, d1, d2) == pytest.approx(0.3)
        assert data_state_metric(rho, d2, d1) == 0.0

    def test_constant_penalty(self):
        space = unit_space()
        rho = ConstPenalty()
        d1, d2 = space.state([0.3]), space.state([0.7])
        assert data_state_metric(rho, d1, d2) == 0.0
        assert data_state_metric(rho, d2, d1) == 0.0

    def test_hemimetric_axioms_random(self):
        r = np.random.Generator(np.random.PCG64(5))
        space = unit_space()
        rho = VarPenalty("u")
        for _ in range(500):
            d1, d2, d3 = (space.state([r.uniform(0, 1)]) for _ in range(3))
            m12 = data_state_metric(rho, d1, d2)
            m13 = data_state_metric(rho, d1, d3)
            m32 = data_state_metric(rho, d3, d2)
            assert 0.0 <= m12 <= 1.0
            assert m12 <= m13 + m32 + 1e-15

class TestDataStateMetricMismatch:
    def test_real_mismatch(self):
        rho = VarPenalty("u")
        a = DataSpace([VarSpec("u", 0.0, 1.0)]).state([0.1])
        b = DataSpace([VarSpec("u", 0.0, 2.0)]).state([0.1])
        with pytest.raises(StructuralError):
            data_state_metric(rho, a, b)


class TestComputeW:
    def test_hand_example_equal_sizes(self):
        # (max(.2-.1,0) + max(.4-.3,0)) / 2 = 0.1
        assert w1([0.1, 0.3], [0.2, 0.4]) == pytest.approx(0.1)

    def test_hand_example_scale_two(self):
        # ceil(h/2) indexing: (0 + 0.1 + 0.1 + 0.3) / 4 = 0.125
        w = w1([0.1, 0.3], [0.0, 0.2, 0.4, 0.6])
        assert w == pytest.approx(0.125)

    def test_permutation_of_same_samples_is_zero(self):
        omega = np.array([0.7, 0.1, 0.4])
        nu = np.array([0.4, 0.7, 0.1])
        assert w1(omega, nu) == 0.0

    def test_permutation_invariance(self):
        r = np.random.Generator(np.random.PCG64(8))
        omega = r.uniform(0, 1, 10)
        nu = r.uniform(0, 1, 30)
        w = w1(omega, nu)
        for _ in range(5):
            assert w1(r.permutation(omega), r.permutation(nu)) == w

    def test_size_mismatch(self):
        with pytest.raises(StructuralError):
            compute_w_sorted(np.zeros((2, 1)), np.zeros((3, 1)))
        with pytest.raises(StructuralError):
            compute_w_sorted(np.zeros((2, 3)), np.zeros((4, 2)))
        with pytest.raises(StructuralError):
            compute_w_sorted(np.zeros((2, 1)), np.zeros(2))
        with pytest.raises(StructuralError):
            compute_w_sorted(np.zeros(2), np.zeros(2))

    def test_matches_assignment_oracle(self):
        r = np.random.Generator(np.random.PCG64(12))
        for _ in range(40):
            n = int(r.integers(1, 9))
            omega = r.uniform(0, 1, n)
            nu = r.uniform(0, 1, n)
            assert w1(omega, nu) == pytest.approx(
                assignment_oracle(omega, nu), abs=1e-9
            )


# penalty-like samples: many ties, both signed zeros, the ends of [0, 1]
SAMPLE_VALUES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0]), st.floats(0.0, 1.0)),
    min_size=1, max_size=6,
)


@settings(max_examples=60)
@given(n=st.integers(1, 12), ell=st.sampled_from([1, 3, 10]),
       m=st.sampled_from([1, 2, _W_CHUNK - 1, _W_CHUNK, _W_CHUNK + 1, 2 * _W_CHUNK + 3]),
       pool=SAMPLE_VALUES, seed=st.integers(0, 2**32), by_column=st.booleans())
def test_block_equals_column_calls_bit_for_bit(n, ell, m, pool, seed, by_column):
    r = np.random.default_rng(seed)
    omega = r.choice(np.array(pool), size=(n, m))
    nu = r.choice(np.array(pool), size=(n * ell, m))
    if by_column:
        omega, nu = np.asfortranarray(omega), np.asfortranarray(nu)
    before = omega.copy(), nu.copy()
    block = compute_w_sorted(omega, nu)
    assert np.array_equal(omega, before[0]) and np.array_equal(nu, before[1])
    columns = np.array([compute_w_sorted(omega[:, j:j + 1], nu[:, j:j + 1])[0]
                        for j in range(m)])
    assert block.shape == (m,)
    assert block.tobytes() == columns.tobytes()


def repeat_reference(omega, nu) -> np.ndarray:
    """The estimate per column with the first side's sorted samples
    materialised ell times each, so that run i of the second side meets
    sample i // ell."""
    ell = len(nu) // len(omega)
    om = np.sort(omega.T, axis=1)
    nv = np.sort(nu.T, axis=1)
    return np.maximum(nv - np.repeat(om, ell, axis=1), 0.0).mean(axis=1)


@settings(max_examples=60)
@given(n=st.integers(1, 12), ell=st.sampled_from([1, 2, 3, 10]),
       m=st.sampled_from([1, 2, _W_CHUNK, _W_CHUNK + 1, 2 * _W_CHUNK + 3]),
       pool=SAMPLE_VALUES, seed=st.integers(0, 2**32))
def test_pairing_equals_a_repeated_first_side_bit_for_bit(n, ell, m, pool, seed):
    r = np.random.default_rng(seed)
    omega = r.choice(np.array(pool), size=(n, m))
    nu = r.choice(np.array(pool), size=(n * ell, m))
    assert compute_w_sorted(omega, nu).tobytes() == repeat_reference(omega, nu).tobytes()


@settings(max_examples=60)
@given(n=st.integers(1, 12), ell=st.sampled_from([1, 3, 10]),
       m=st.sampled_from([1, 2, _W_CHUNK, _W_CHUNK + 1, 2 * _W_CHUNK + 3]),
       extra=st.integers(0, 3), pool=SAMPLE_VALUES, seed=st.integers(0, 2**32))
def test_step_major_blocks_equal_c_ordered_ones_bit_for_bit(n, ell, m, extra, pool, seed):
    """The blocks estimate_penalties returns are step-major, and robustness
    folds row slices of one such (P, N + lN, T) block; the estimate must not
    depend on the layout, nor write to either input."""
    r = np.random.default_rng(seed)
    omega = r.choice(np.array(pool), size=(n, m))
    nu = r.choice(np.array(pool), size=(n * ell, m))
    block = r.random((1 + extra, m, n + n * ell)).transpose(0, 2, 1)
    block[-1, :n], block[-1, n:] = omega, nu
    step_major = block[-1, :n], block[-1, n:]
    assert step_major[0].strides[0] == step_major[1].strides[0] == 8
    before = block.tobytes()
    got = compute_w_sorted(*step_major)
    assert block.tobytes() == before
    assert got.tobytes() == compute_w_sorted(omega, nu).tobytes()
    assert omega.tobytes() == block[-1, :n].tobytes()
    assert nu.tobytes() == block[-1, n:].tobytes()


class TestDistance:
    def test_same_configuration_same_seed_lineage_is_zero(self):
        c = tanks_configuration()
        rho = tanks_penalties(c.env.params)["l3"]
        obs = ObservationTimes.range(20)
        rep = distance(c, c, rho, constant_discount(), obs, N=50, ell=1, seed=(7, 7))
        assert rep.value == 0.0

    def test_single_observation_time(self):
        c1 = tanks_configuration(scenario=1)
        c2 = tanks_configuration(scenario=2)
        rho = tanks_penalties(c1.env.params)["l3"]
        obs = ObservationTimes((40,))
        rep = distance(c1, c2, rho, constant_discount(), obs, N=60, ell=2, seed=5)
        assert rep.value == rep.pointwise[0]
        assert rep.argmax == 40

    def test_scale_must_be_positive_integer(self):
        c = tanks_configuration()
        rho = tanks_penalties(c.env.params)["l3"]
        with pytest.raises(PreconditionError):
            distance(c, c, rho, constant_discount(), ObservationTimes((1,)), 10, 0, 1)


class TestReports:
    def test_discount_monotonicity(self):
        obs = ObservationTimes.range(5)
        curve = [0.1, 0.5, 0.3, 0.2, 0.4, 0.1]
        strong = report_from_pointwise(obs, curve, constant_discount(), {})
        weak = report_from_pointwise(obs, curve, exponential_discount(0.5), {})
        assert weak.value <= strong.value

    def test_argmax_invariant_under_scaling(self):
        obs = ObservationTimes.range(5)
        curve = [0.1, 0.5, 0.3, 0.2, 0.45, 0.1]
        a = report_from_pointwise(obs, curve, constant_discount(1.0), {})
        b = report_from_pointwise(obs, curve, constant_discount(0.25), {})
        assert a.argmax == b.argmax
        assert b.value == pytest.approx(0.25 * a.value)

    def test_suffix_value_equals_bruteforce(self):
        obs = ObservationTimes.range(6)
        curve = [0.3, 0.1, 0.6, 0.2, 0.05, 0.4, 0.0]
        rep = report_from_pointwise(obs, curve, constant_discount(), {})
        suffix = suffix_maxima(rep.discounted)
        for i, tau in enumerate(obs):
            brute = max(v for t, v in zip(obs, curve) if t >= tau)
            assert suffix[i] == pytest.approx(brute)

    def test_suffix_maxima_helper(self):
        assert suffix_maxima([1.0, 3.0, 2.0]) == [3.0, 3.0, 2.0]

    def test_json_and_csv(self, tmp_path):
        obs = ObservationTimes.range(2)
        rep = report_from_pointwise(obs, [0.0, 0.2, 0.1], constant_discount(), {"penalty": "p"})
        data = rep.to_json_dict()
        assert data["value"] == pytest.approx(0.2)
        assert data["argmax"] == 1
        path = tmp_path / "m.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[1] == "tau,w,discounted_w"
        assert len(lines) == 5
