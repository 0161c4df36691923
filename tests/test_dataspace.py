import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometric.dataspace import (
    ConvexPenalty,
    DataSpace,
    GoalPenalty,
    MaxPenalty,
    RatioPenalty,
    VarPenalty,
    VarSpec,
)
from evometric.errors import DataValidationError, PreconditionError, StructuralError

TANKS_VARS = [
    VarSpec("q1", 0.0, 6.0), VarSpec("q2", 0.0, 6.0), VarSpec("q3", 0.0, 6.0),
    VarSpec("l1", 0.0, 20.0), VarSpec("l2", 0.0, 20.0), VarSpec("l3", 0.0, 20.0),
]


def tanks_space():
    return DataSpace(TANKS_VARS)


def rho_l(i):
    return GoalPenalty(f"l{i}", 10.0, 0.0, 20.0)


class TestVarSpec:
    def test_bounds_must_order(self):
        with pytest.raises(DataValidationError):
            VarSpec("x", 2.0, 1.0)

    def test_finite_set_must_be_in_bounds(self):
        with pytest.raises(DataValidationError):
            VarSpec("x", 0.0, 1.0, values=(0.0, 2.0))
        with pytest.raises(DataValidationError):
            VarSpec("x", 0.0, 1.0, values=())

    def test_finite_clamp_snaps_to_nearest(self):
        v = VarSpec("s", 0.0, 2.0, values=(0.0, 1.0, 2.0))
        assert v.clamp(0.9) == 1.0
        assert v.clamp(1.6) == 2.0
        assert v.clamp(-3.0) == 0.0

    def test_a_bound_wins_a_tie(self):
        # as np.maximum and np.minimum in DataSpace.clamp_batch
        assert math.copysign(1.0, VarSpec("x", 0.0, 1.0).clamp(-0.0)) == 1.0
        assert math.copysign(1.0, VarSpec("x", -1.0, -0.0).clamp(0.0)) == -1.0
        assert math.copysign(1.0, VarSpec("x", -1.0, 1.0).clamp(-0.0)) == -1.0


class TestMakeDataState:
    """``DataSpace.state`` on a vector of values."""

    def test_initial_tanks_state(self):
        d = tanks_space().state([0, 0, 0, 0, 0, 0])
        assert d["l1"] == 0.0 and d["q3"] == 0.0

    def test_clamps_and_counts(self):
        space = tanks_space()
        before = space.clamp_events
        d = space.state([0, 0, 0, 25.0, 0, 0])
        assert d["l1"] == 20.0
        assert space.clamp_events == before + 1

    def test_empty_space(self):
        d = DataSpace([]).state([])
        assert len(d.values) == 0

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            tanks_space().state([1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(DataValidationError):
            tanks_space().state([0, 0, 0, math.nan, 0, 0])

    def test_read_back_identity_on_in_domain_values(self):
        space = tanks_space()
        r = np.random.Generator(np.random.PCG64(7))
        for _ in range(50):
            vals = [r.uniform(v.lower, v.upper) for v in space.vars]
            d = space.state(vals)
            assert list(d.values) == vals


MIXED = DataSpace([
    VarSpec("c", -2.5, 7.0),
    VarSpec("f", 0.0, 1.0, values=(0.1, 0.2, 0.35, 1.0)),
    VarSpec("g", -3.0, 3.0, values=(-3.0, 0.0, 3.0)),
    VarSpec("d", 0.0, 1e15),
])


def _interesting(spec: VarSpec):
    """Values at and around the bounds and the finite-set midpoints."""
    points = [spec.lower, spec.upper, -0.0]
    if spec.is_finite:
        points += list(spec.values)
        points += [(a + b) / 2 for a, b in zip(spec.values, spec.values[1:])]
    near = [np.nextafter(p, s) for p in points for s in (-math.inf, math.inf)]
    return st.one_of(st.sampled_from(points + near),
                     st.floats(spec.lower - 5.0, spec.upper + 5.0),
                     st.sampled_from([-math.inf, math.inf]))


class TestClampBatch:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_equals_clamp_values_row_by_row(self, data):
        row = st.tuples(*(_interesting(spec) for spec in MIXED.vars)).map(list)
        values = np.array(data.draw(st.lists(row, min_size=1, max_size=8)), dtype=np.float64)
        expect = [MIXED.clamp_values(r)[0] for r in values.tolist()]
        # bytes, so that the sign of a clamped zero is compared too
        assert MIXED.clamp_batch(values).tobytes() == np.array(expect).tobytes()
        # an admissible input block: finite columns equal to it are kept,
        # the others are snapped as before
        inputs = np.array(expect)
        keep = data.draw(st.lists(st.booleans(), min_size=4, max_size=4))
        mixed = np.where(keep, inputs, values)
        expect = [MIXED.clamp_values(r)[0] for r in mixed.tolist()]
        assert MIXED.clamp_batch(mixed, inputs).tolist() == expect

    @settings(max_examples=200)
    @given(data=st.data())
    def test_one_row_and_column_major_blocks_clamp_alike(self, data):
        # bit for bit, so a -0.0 clamped to a bound 0.0 must agree too; a
        # row is compared with a one-row block, since whether a finite
        # column is snapped depends on every row of the block
        row = st.tuples(*(_interesting(spec) for spec in MIXED.vars)).map(list)
        values = np.array(data.draw(st.lists(row, min_size=1, max_size=8)), dtype=np.float64)
        inputs = np.array([MIXED.clamp_values(r)[0] for r in values.tolist()])
        keep = data.draw(st.lists(st.booleans(), min_size=4, max_size=4))
        values = np.where(keep, inputs, values)
        block = MIXED.clamp_batch(values, inputs)
        by_column = MIXED.clamp_batch(np.asfortranarray(values), inputs)
        assert by_column.flags.f_contiguous
        assert by_column.tobytes(order="C") == block.tobytes()
        for r in range(len(values)):
            one = MIXED.clamp_row(values[r].tolist(), inputs[r].tolist())
            row_block = MIXED.clamp_batch(values[r:r + 1], inputs[r:r + 1])
            assert np.array(one).tobytes() == row_block.tobytes()

    @settings(max_examples=200)
    @given(data=st.data())
    def test_block_equals_its_rows_clamped_one_at_a_time(self, data):
        # bit for bit: whether an entry is snapped must not depend on the
        # other rows of its block, so a -0.0 next to its input 0.0 in a
        # finite column stays -0.0 beside a row that is snapped
        row = st.tuples(*(_interesting(spec) for spec in MIXED.vars)).map(list)
        values = np.array(data.draw(st.lists(row, min_size=1, max_size=8)), dtype=np.float64)
        inputs = np.array([MIXED.clamp_values(r)[0] for r in values.tolist()])
        entries = st.lists(st.sampled_from(["drawn", "input", "signed zero"]),
                           min_size=values.size, max_size=values.size)
        kind = np.array(data.draw(entries)).reshape(values.shape)
        values = np.where(kind == "input", inputs, values)
        values = np.where((kind == "signed zero") & (inputs == 0.0), -0.0, values)
        rows = np.array([MIXED.clamp_row(v, i) for v, i in zip(values.tolist(), inputs.tolist())])
        for block in (values, np.asfortranarray(values)):
            assert MIXED.clamp_batch(block, inputs).tobytes(order="C") == rows.tobytes()

    @given(n=st.integers(1, 6), row=st.integers(0, 5), col=st.integers(0, 3))
    def test_nan_names_the_first_bad_row(self, n, row, col):
        values = np.zeros((n, 4))
        row = min(row, n - 1)
        values[row, col] = math.nan
        values[n - 1, 0] = math.nan  # a later bad row does not mask the first
        with pytest.raises(DataValidationError) as err:
            MIXED.clamp_batch(values)
        assert err.value.row == row
        bad = MIXED.names[0 if row == n - 1 else col]
        assert str(err.value) == f"{bad}: NaN is not a value"
        with pytest.raises(DataValidationError):
            MIXED.clamp_values(values[row].tolist())
        with pytest.raises(DataValidationError) as err:
            MIXED.clamp_row(values[row].tolist(), [0.0, 0.1, 0.0, 0.0])
        assert str(err.value) == f"{MIXED.names[0 if row == n - 1 else col]}: NaN is not a value"

    def test_does_not_count_clamp_events(self):
        before = MIXED.clamp_events
        MIXED.clamp_batch(np.array([[100.0, 0.5, 2.0, -1.0]]))
        assert MIXED.clamp_events == before


class TestUpdate:
    def test_single_assignment(self):
        d = tanks_space().state({"q1": 3, "q2": 0, "q3": 0, "l1": 0, "l2": 0, "l3": 0})
        d2 = d.update([("q1", 1.8)])
        assert d2["q1"] == 1.8
        assert all(d2[n] == d[n] for n in d.space.names if n != "q1")

    def test_empty_update_is_identity(self):
        d = tanks_space().state([1, 2, 3, 4, 5, 6])
        assert d.update([]) is d

    def test_sequential_override(self):
        # oracle: applying the two singleton updates in order
        d = tanks_space().state([3, 0, 0, 0, 0, 0])
        stepwise = d.update([("q1", 1.0)]).update([("q1", 2.0)])
        combined = d.update([("q1", 1.0), ("q1", 2.0)])
        assert combined == stepwise
        assert combined["q1"] == 2.0

    def test_update_is_persistent(self):
        d = tanks_space().state([3, 0, 0, 0, 0, 0])
        snapshot = tuple(d.values)
        d.update([("q1", 5.0)])
        assert tuple(d.values) == snapshot

    def test_unknown_name(self):
        d = tanks_space().state([0] * 6)
        with pytest.raises(StructuralError):
            d.update([("nope", 1.0)])


class TestPenalties:
    def test_goal_penalty_at_goal(self):
        d = tanks_space().state([0, 0, 0, 0, 0, 10.0])
        assert rho_l(3)(0, d) == 0.0

    def test_goal_penalty_at_floor(self):
        # |0-10| / max(20-10, 10-0) = 1.0
        d = tanks_space().state([0, 0, 0, 0, 0, 0.0])
        assert rho_l(3)(5, d) == 1.0

    def test_max_penalty(self):
        # levels 10, 15, 10 -> max(0, 0.5, 0) = 0.5
        d = tanks_space().state([0, 0, 0, 10.0, 15.0, 10.0])
        rho = MaxPenalty((rho_l(1), rho_l(2), rho_l(3)))
        assert rho(0, d) == 0.5

    def test_negative_step_rejected(self):
        d = tanks_space().state([0] * 6)
        with pytest.raises(PreconditionError):
            rho_l(1)(-1, d)

    def test_convex_weights_validated(self):
        with pytest.raises(DataValidationError):
            ConvexPenalty(((0.5, rho_l(1)), (0.6, rho_l(2))))
        with pytest.raises(DataValidationError):
            ConvexPenalty(((math.nan, rho_l(1)), (1.0, rho_l(2))))

    def test_convex_combination_value(self):
        d = tanks_space().state([0, 0, 0, 0.0, 10.0, 0])
        rho = ConvexPenalty(((0.5, rho_l(1)), (0.5, rho_l(2))))
        assert rho(0, d) == 0.5

    def test_ratio_penalty_zero_denominator(self):
        space = DataSpace([VarSpec("n", 0, 100), VarSpec("d", 0, 100)])
        rho = RatioPenalty("n", "d")
        assert rho(0, space.state([5, 0])) == 0.0
        assert rho(0, space.state([5, 10])) == 0.5

    @given(
        l1=st.floats(0, 20), l2=st.floats(0, 20), l3=st.floats(0, 20),
        step=st.integers(0, 1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_penalty_always_in_unit_interval(self, l1, l2, l3, step):
        d = tanks_space().state([0, 0, 0, l1, l2, l3])
        for rho in (rho_l(1), MaxPenalty((rho_l(1), rho_l(2), rho_l(3))),
                    ConvexPenalty(((0.25, rho_l(1)), (0.75, rho_l(3))))):
            v = rho(step, d)
            assert 0.0 <= v <= 1.0

    def test_overshooting_penalty_is_clamped(self):
        space = DataSpace([VarSpec("u", 0.0, 10.0)])
        rho = VarPenalty("u")
        assert rho(0, space.state([7.0])) == 1.0


class TestSerialization:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataValidationError):
            DataSpace([VarSpec("a", 0, 1), VarSpec("a", 0, 1)])
