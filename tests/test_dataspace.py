import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evometric import compiled
from evometric.dataspace import (
    ConvexPenalty,
    DataSpace,
    GoalPenalty,
    MaxPenalty,
    PenaltyFunction,
    RatioPenalty,
    VarPenalty,
    VarSpec,
)
from evometric.engine import Configuration, estimate_penalties
from evometric.environment import IdentityKernel
from evometric.errors import DataValidationError, PreconditionError, StructuralError
from evometric.models.engine_system import WindowPenalty
from evometric.process import Call, tick

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


CONTINUOUS = DataSpace([
    VarSpec("a", 0.0, 10.0), VarSpec("b", -1.0, -0.0), VarSpec("z", -1.0, 1.0),
])


def clamped_one_by_one(space, values):
    """``DataSpace.clamp_values`` written as a loop of ``VarSpec.clamp``."""
    out, clamps = [], 0
    for spec, v in zip(space.vars, values):
        w = spec.clamp(float(v))
        if w != v:
            clamps += 1
        out.append(w)
    space.clamp_events += clamps
    return out, clamps


def outcome(space, clamp, values):
    """Bits of the clamped row, its clamp count and the change of
    ``clamp_events``, or the error raised."""
    before = space.clamp_events
    try:
        out, clamps = clamp(space, values)
    except Exception as exc:
        return type(exc), str(exc), space.clamp_events - before
    return (np.array(out, dtype=np.float64).tobytes(), clamps, type(clamps),
            space.clamp_events - before)


class TestClampValues:
    """The row is compared with its bounds once, and only the entries that
    need it are clamped one by one: the values, errors and counts are
    those of ``VarSpec.clamp`` on every entry."""

    @settings(max_examples=300)
    @given(values=st.data(), space=st.sampled_from([MIXED, CONTINUOUS]),
           form=st.sampled_from(["list", "array", "numpy scalars", "ints"]))
    @example(values=[-0.0, -0.5, 0.5], space=CONTINUOUS, form="list")  # -0.0 at 0.0
    @example(values=[0.5, 0.0, 0.5], space=CONTINUOUS, form="array")  # 0.0 at -0.0
    @example(values=[0.5, -0.5, math.nan], space=CONTINUOUS, form="list")
    def test_equals_clamp_entry_by_entry(self, values, space, form):
        if not isinstance(values, list):
            entries = (st.one_of(_interesting(spec), st.floats(spec.lower, spec.upper),
                                 st.just(math.nan)) for spec in space.vars)
            values = values.draw(st.tuples(*entries).map(list))
        if form == "array":
            values = np.array(values, dtype=np.float64)
        elif form == "numpy scalars":
            values = list(np.array(values, dtype=np.float64))
        elif form == "ints":
            values = [int(v) if math.isfinite(v) else v for v in values]
        want = outcome(space, clamped_one_by_one, values)
        assert outcome(space, DataSpace.clamp_values, values) == want


def _clamp_entries(space, values, inputs) -> list:
    """A row computed from the admissible row ``inputs``, clamped one entry
    at a time: into the bounds, max then min, and a finite-set entry that
    differs from its input then snapped by :meth:`VarSpec.clamp`."""
    out = []
    for spec, v, old in zip(space.vars, values, inputs):
        v = min(spec.upper, max(spec.lower, v))
        out.append(spec.clamp(v) if v != old and spec.is_finite else v)
    return out


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
        # one-row block is compared with its row clamped entry by entry
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
            one = _clamp_entries(MIXED, values[r].tolist(), inputs[r].tolist())
            row_block = MIXED.clamp_batch(values[r:r + 1], inputs[r:r + 1])
            assert np.array([one]).tobytes() == row_block.tobytes()

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
        rows = np.concatenate([MIXED.clamp_batch(values[r:r + 1], inputs[r:r + 1])
                               for r in range(len(values))])
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
        with pytest.raises(DataValidationError) as err:  # a one-row block
            MIXED.clamp_batch(values[row:row + 1], np.array([[0.0, 0.1, 0.0, 0.0]]))
        assert err.value.row == 0 and str(err.value) == f"{bad}: NaN is not a value"

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

    def test_ratio_penalty_tiny_denominator_is_one_without_a_warning(self):
        space = DataSpace([VarSpec("n", 0.0, 300.0), VarSpec("d", 0.0, 1.0)])
        rho = RatioPenalty("n", "d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the ratio overflows to inf
            assert rho(0, space.state([300.0, 5e-324])) == 1.0

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


# signed ranges, so that -0.0 is admissible next to a negative bound
SIGNED = DataSpace([
    VarSpec("a", -1.0, 2.0),
    VarSpec("b", -2.0, 1.0),
    VarSpec("c", 0.0, 20.0),
    VarSpec("n", 0.0, 300.0),
])
BUILT_IN = (
    GoalPenalty("c", 10.0, 0.0, 20.0),
    GoalPenalty("a", 0.5, -1.0, 2.0),
    VarPenalty("a"),
    VarPenalty("b"),
    RatioPenalty("a", "b"),
    RatioPenalty("n", "c"),
    WindowPenalty("b", "a", 2),
    WindowPenalty("c", "n", 100),
    MaxPenalty((VarPenalty("b"), GoalPenalty("c", 10.0, 0.0, 20.0))),
    ConvexPenalty(((0.3, VarPenalty("a")), (0.7, RatioPenalty("a", "b")))),
)


def _admissible(spec: VarSpec):
    """Admissible values: the bounds, signed zeros inside the domain, and
    any value between the bounds."""
    points = [spec.lower, spec.upper, 0.0, 1.0] + ([-0.0] if spec.lower < 0.0 else [])
    return st.one_of(st.sampled_from([p for p in points if spec.lower <= p <= spec.upper]),
                     st.floats(spec.lower, spec.upper))


class NaNPenalty(PenaltyFunction):
    id = "nan"

    def score_batch(self, step, values, space):
        return np.where(values[:, 0] > 0.5, np.nan, values[:, 0])


@dataclass(frozen=True)
class Column(PenaltyFunction):
    """A custom part that scores one column as it is, so a score can lie
    below 0 or above 1, or be -0.0 or NaN."""

    var: str
    id: str = "column"

    def score_batch(self, step, values, space):
        return values[:, space.index(self.var)]


RAW = DataSpace([VarSpec(v, -2.0, 2.0) for v in "xyz"])
RAW_SCORE = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -0.5, 1.5, 5e-324, math.nan]),
                      st.floats(-2.0, 2.0))


class TestPenaltyPaths:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_a_composite_folds_its_parts_own_batches(self, data):
        # bit for bit: Max is the clipped np.maximum.reduce of its parts'
        # eval_batch, Convex the clipped weighted sum from zeros; a NaN
        # names the first part and row that hold it, as the parts do
        n = data.draw(st.integers(1, 5))
        block = np.array(data.draw(st.lists(st.tuples(*[RAW_SCORE] * 3),
                                            min_size=n, max_size=n)))
        # a part is a column, or a composite of two (its NaN is its own)
        cols = data.draw(st.lists(st.sampled_from(["x", "y", "z", "xy", "zx"]),
                                  min_size=1, max_size=4))
        parts = tuple(Column(v, id=f"part{i}[{v}]") if len(v) == 1 else
                      MaxPenalty(tuple(Column(u, id=f"part{i}[{u}]") for u in v))
                      for i, v in enumerate(cols))
        counts = data.draw(st.lists(st.integers(0, 3), min_size=len(parts),
                                    max_size=len(parts)).filter(any))
        weights = [c / sum(counts) for c in counts]
        composites = (MaxPenalty(parts), ConvexPenalty(tuple(zip(weights, parts))))
        try:
            own = [p.eval_batch(0, block, RAW) for p in parts]
        except DataValidationError as exc:
            for rho in composites:
                with pytest.raises(DataValidationError) as err:
                    rho.eval_batch(0, block, RAW)
                assert (str(err.value), err.value.row) == (str(exc), exc.row)
            return
        mixed = np.zeros(n)
        for w, scores in zip(weights, own):
            mixed += w * scores
        for rho, want in zip(composites, (np.maximum.reduce(own), mixed)):
            got = rho.eval_batch(0, block, RAW)
            assert got.tobytes() == np.clip(want, 0.0, 1.0).tobytes(), rho.id

    @settings(max_examples=300)
    @given(data=st.data(), step=st.integers(0, 1000))
    def test_a_call_equals_its_row_of_the_batch(self, data, step):
        # bit for bit: a call on one state and its row of a block agree in
        # the sign of a zero too (VarPenalty of -0.0, RatioPenalty 0 / -1)
        row = st.tuples(*(_admissible(spec) for spec in SIGNED.vars))
        states = [SIGNED.state(list(r)) for r in data.draw(st.lists(row, min_size=1, max_size=6))]
        block = np.array([d.values for d in states])
        for rho in BUILT_IN:
            batch = rho.eval_batch(step, block, SIGNED)
            calls = np.array([rho(step, d) for d in states])
            assert calls.tobytes() == batch.tobytes(), rho.id
            assert ((batch >= 0.0) & (batch <= 1.0)).all()

    def test_a_call_keeps_the_sign_of_a_zero_score(self):
        for rho, d in ((VarPenalty("a"), SIGNED.state([-0.0, 0.0, 0.0, 0.0])),
                       (RatioPenalty("a", "b"), SIGNED.state([0.0, -1.0, 0.0, 0.0]))):
            assert math.copysign(1.0, rho(0, d)) == -1.0
            assert rho(0, d) == rho.eval_batch(0, np.array([d.values]), SIGNED)[0] == 0.0

    def test_a_nan_penalty_raises_alike_on_every_path(self):
        space = DataSpace([VarSpec("x", 0.0, 1.0)])
        d = space.state([0.75])
        c = Configuration(Call("L"), d, IdentityKernel(), {"L": tick(Call("L"))})
        compiled.program(c)  # the fast path is the compiled program
        rho = NaNPenalty()
        calls = [lambda: rho(3, d),
                 lambda: rho.eval_batch(3, np.array([[0.25], [0.75]]), space)]
        for fast, threads in ((True, 1), (False, 1), (False, 2)):
            calls.append(lambda fast=fast, threads=threads: estimate_penalties(
                c, 4, 6, 9, [VarPenalty("x"), rho], [0, 3], threads, use_fast_path=fast))
        for call in calls:
            with pytest.raises(DataValidationError) as err:
                call()
            assert type(err.value) is DataValidationError
            assert str(err.value) == "penalty nan evaluated to NaN"
        with pytest.raises(DataValidationError) as err:
            rho.eval_batch(0, np.array([[0.25], [0.75], [0.9]]), space)
        assert err.value.row == 1


class TestSerialization:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataValidationError):
            DataSpace([VarSpec("a", 0, 1), VarSpec("a", 0, 1)])
