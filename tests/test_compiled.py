"""The compiled program of a process against the reference interpreter.

The oracle draws guarded-recursive systems: two to four definitions that
call each other after a prefix, data-guarded ``If``, a synchronous root
whose operands may write the same variable (as an attack composed on the
right does), Dirac and non-Dirac choices and interleavings, writes that
leave the domain or land on a finite-set midpoint or on -0.0, and rare rows
whose evaluation raises.  ``estimate`` and ``estimate_penalties`` must give
the same bits on the compiled path as on the interpreter, add the same
clamp events, or raise the same (run, step, message).
"""

import logging
import math
import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evometric import compiled, engine
from evometric.dataspace import DataSpace, DataState, GoalPenalty, VarPenalty, VarSpec
from evometric.engine import Configuration, estimate, estimate_penalties
from evometric.environment import EnvironmentEvolution, FiniteKernel, IdentityKernel
from evometric.errors import EvoMetricError, PreconditionError, SimulationError
from evometric.metric import ObservationTimes, constant_discount, distance
from evometric.models.engine_system import (
    AttackConfig, EngineParams, engine_penalties, engine_system,
)
from evometric.models.three_tanks import (
    ThreeTanksParams, tanks_configuration, tanks_penalties, tanks_program,
)
from evometric.process import (
    _ARITIES, Call, Const, If, Interleave, Op, PChoice, Prefix, SyncPar, Var, _eval, tick,
)
from evometric.process_text import format_definitions, parse_definitions

from conftest import start_rows
from enumeration import enumerate_data_marginal
from test_fast_path_differential import NO_SHRINK

SPACE = DataSpace([
    VarSpec("x", -4.0, 4.0),
    VarSpec("y", 0.0, 10.0),
    VarSpec("f", -1.0, 2.0, values=(-1.0, 0.0, 0.5, 2.0)),
    VarSpec("s", 0.0, 1.0, values=(0.0, 1.0)),
])
NAMES = SPACE.names


class Drift(EnvironmentEvolution):
    """x drifts by up to 1.5 either way, y is redrawn, and a zero in the
    finite column f turns into -0.0."""

    id = "drift"
    draws = 2

    def sample_batch(self, values, u):
        out = values.copy(order="K")
        out[:, 0] = values[:, 0] + 3.0 * (u[:, 0] - 0.5)
        out[:, 1] = 10.0 * u[:, 1]
        out[:, 2] = np.where(values[:, 2] == 0.0, -0.0, values[:, 2])
        return out


def _toggle_s(values):
    flipped = values[:3] + (1.0 - values[3],)
    return [(0.7, values), (0.3, flipped)]


ENVIRONMENTS = [IdentityKernel(), Drift(), FiniteKernel(_toggle_s, id="toggle-s")]

# constants at and around the domain edges, the finite-set midpoints, -0.0
CONSTANTS = [0.0, -0.0, 1.0, 0.5, 0.25, 1.25, -0.5, 2.0, -1.0, 4.0, -4.5, 11.0, 1e300]


def _rare(common, rare):
    """``rare`` about one time in twenty, else ``common``."""
    return st.integers(0, 19).flatmap(lambda i: rare if i == 0 else common)


def _numeric(sub):
    binary = st.builds(lambda op, a, b: Op(op, (a, b)),
                       st.sampled_from(["+", "-", "*", "min", "max"]), sub, sub)
    unary = st.builds(lambda op, a: Op(op, (a,)), st.sampled_from(["abs", "neg"]), sub)
    # a division or a sqrt that cannot raise, and rarely one that can
    safe = st.one_of(
        st.builds(lambda a, b: Op("/", (a, Op("+", (Op("abs", (b,)), Const(0.5))))), sub, sub),
        st.builds(lambda a: Op("sqrt", (Op("abs", (a,)),)), sub),
    )
    unsafe = st.one_of(st.builds(lambda a, b: Op("/", (a, b)), sub, sub),
                       st.builds(lambda a: Op("sqrt", (a,)), sub))
    return st.one_of(binary, unary, _rare(safe, unsafe))


leaves = st.one_of(st.sampled_from([Var(n) for n in NAMES]),
                   st.sampled_from(CONSTANTS).map(Const),
                   st.floats(-6.0, 12.0).map(Const))
numbers = st.recursive(leaves, _numeric, max_leaves=4)


def _boolean(sub):
    return st.one_of(st.builds(lambda op, a, b: Op(op, (a, b)),
                               st.sampled_from(["and", "or"]), sub, sub),
                     st.builds(lambda a: Op("not", (a,)), sub))


comparisons = st.builds(lambda op, a, b: Op(op, (a, b)),
                        st.sampled_from(["<", "<=", "=", ">", ">="]), numbers, numbers)
# a 0/1 variable is a boolean too; rarely a number that need not be 0 or 1
booleans = st.recursive(
    st.one_of(_rare(comparisons, numbers), st.just(Var("s"))), _boolean, max_leaves=3)
values = st.one_of(numbers, booleans,
                   st.builds(lambda c, a, b: Op("ite", (c, a, b)), booleans, numbers, numbers))


@st.composite
def prefixes(draw, call: int):
    targets = draw(st.lists(st.sampled_from(NAMES), max_size=3))
    if draw(st.integers(0, 29)) == 0:
        targets.append("ghost")  # an unknown variable fails every row writing it
    exprs = tuple(draw(values) for _ in targets)
    return Prefix(exprs, tuple(targets), Call(f"D{call}"))


@st.composite
def bodies(draw, calls, depth):
    """A definition body: a tree of guards ending in prefixes that call one
    of the definitions ``calls``.  Flags whether it compiles: every step it
    can take is a Dirac, on the arms of an ``If`` the data never take too.
    A fork's continuation turns on two or three guards."""
    kinds = ["prefix"] * 3 + ["if"] * 2 + ["choice"] + ["fork"] * 2 * (depth == 2)
    kind = draw(st.sampled_from(kinds) if depth else st.just("prefix"))
    if kind == "prefix":
        return draw(prefixes(draw(st.sampled_from(calls)))), True
    if kind == "fork":
        order = draw(st.permutations(calls))
        a, b, c, d = (draw(prefixes(order[j % len(order)])) for j in range(4))
        return If(draw(booleans), If(draw(booleans), a, b), If(draw(booleans), c, d)), True
    a, dirac_a = draw(bodies(calls, depth - 1))
    b, dirac_b = draw(bodies(calls, depth - 1))
    if kind == "if":
        return If(draw(booleans), a, b), dirac_a and dirac_b
    w = draw(st.sampled_from([1.0, 1.0, 0.0, 0.4]))
    return PChoice(((w, a), (1.0 - w, b))), (dirac_a if w == 1.0 else dirac_b) and w != 0.4


@st.composite
def roots(draw, n_defs):
    call = st.integers(0, n_defs - 1).map(lambda i: Call(f"D{i}"))
    kind = draw(st.sampled_from(["call", "sync", "sync", "sync3", "interleave"]))
    if kind == "call":
        return draw(call), True
    if kind == "sync":
        return SyncPar(draw(call), draw(call)), True
    if kind == "sync3":
        return SyncPar(SyncPar(draw(call), draw(call)), draw(call)), True
    p = draw(st.sampled_from([1.0, 0.0, 0.5]))
    return Interleave(draw(call), p, draw(call)), p != 0.5


@st.composite
def systems(draw, space=SPACE, environments=ENVIRONMENTS):
    # "own": one definition that calls itself, so the one control term keeps
    # its id; "shared": a root body that calls it too, so both terms move on
    # to the same id
    shape = draw(st.sampled_from(["any"] * 6 + ["own", "shared"]))
    n_defs = draw(st.integers(2, 4)) if shape == "any" else 1
    calls = list(range(n_defs))
    defs, dirac = {}, True
    for i in range(n_defs):
        defs[f"D{i}"], ok = draw(bodies(calls, 2))
        dirac = dirac and ok
    if shape == "any":
        root, ok = draw(roots(n_defs))
    else:
        root, ok = (Call("D0"), True) if shape == "own" else draw(bodies(calls, 2))
    c = Configuration(root, draw(data_states(space)), draw(st.sampled_from(environments)), defs)
    return c, dirac and ok


def data_states(space=SPACE):
    return st.tuples(*(st.sampled_from([spec.lower, spec.upper, 0.0, -0.0, 0.5])
                       for spec in space.vars)).map(space.state)


def _outcome(call, count_clamps, space=SPACE):
    """The bits of the result, or the failure; with the clamp events the
    call added when ``count_clamps`` (workers count theirs elsewhere)."""
    before = space.clamp_events
    try:
        result = call()
    except SimulationError as exc:
        got = ("failed", exc.run, exc.step, str(exc))
    else:
        got = np.asarray(getattr(result, "states", result)).tobytes()
    return got, space.clamp_events - before if count_clamps else None


@given(system=systems(), k=st.integers(0, 8), N=st.integers(1, 6),
       seed=st.integers(0, 2**32), threads=st.sampled_from([1, 1, 1, 2]), data=st.data())
@settings(max_examples=100, phases=NO_SHRINK)
def test_compiled_path_equals_interpreter(system, k, N, seed, threads, data):
    c, dirac = system
    if dirac:
        compiled.program(c)  # the fast path must compile, or both calls interpret
    # at threads=2 the interpreter splits the runs into two blocks
    one = threads == 1
    fast = _outcome(lambda: estimate(c, k, N, seed, use_fast_path=True), one)
    slow = _outcome(lambda: estimate(c, k, N, seed, threads=threads, use_fast_path=False), one)
    assert fast == slow

    obs = sorted(data.draw(st.sets(st.integers(0, k), min_size=1, max_size=4)))
    pens = [VarPenalty("s", id="s"), GoalPenalty("x", 0.0, -4.0, 4.0)]
    # 1-3 segments, each its own data state, seed and runs
    segments = data.draw(st.lists(
        st.tuples(data_states(c.space), st.integers(0, 2**32), st.integers(1, 6)),
        min_size=1, max_size=3))
    args = (c, k, sum(n for *_, n in segments), None, pens, obs)
    fast = _outcome(lambda: estimate_penalties(*args, segments=segments), one)
    slow = _outcome(lambda: estimate_penalties(*args, threads=threads, use_fast_path=False,
                                               segments=segments), one)
    assert fast == slow


def _refuse_pstep(*args, **kwargs):
    raise AssertionError("the interpreter stepped a process")


@pytest.mark.parametrize("threads", [1, 2])
def test_text_tank_model_equals_its_twin_without_the_interpreter(threads, monkeypatch):
    # the text-format controller has no lockstep: the compiled program runs
    # it, never the interpreter, and matches the built-in twin bit for bit
    monkeypatch.setattr(engine, "pstep", _refuse_pstep)
    ref1, ref2 = tanks_configuration(scenario=1), tanks_configuration(scenario=2)
    defs, main = parse_definitions(format_definitions(ref1.defs, ref1.process))
    c1 = Configuration(main, ref1.data, ref1.env, defs).validated()
    c2 = Configuration(main, ref2.data, ref2.env, defs).validated()
    rho = tanks_penalties(ref1.env.params)["l3"]
    obs = ObservationTimes.range(60)
    text = distance(c1, c2, rho, constant_discount(), obs, 20, 3, 8, threads=threads)
    twin = distance(ref1, ref2, rho, constant_discount(), obs, 20, 3, 8, threads=threads)
    assert np.array(text.pointwise).tobytes() == np.array(twin.pointwise).tobytes()
    E = estimate(c1, 40, 30, 5, threads=threads)
    F = estimate(ref1, 40, 30, 5, threads=threads)
    assert E.states.tobytes() == F.states.tobytes()


def _loop():
    return {"Loop": tick(Call("Loop"))}


def _chain(n):
    return {f"D{i}": tick(Call(f"D{i + 1}")) for i in range(n)} | {f"D{n}": tick(Call("D0"))}


def _toggles(n):
    # n components that each stay or move on, by the data: 2**n outcomes
    defs = {f"T{i}": If(Op(">", (Var("x"), Const(float(i)))), tick(Call(f"T{i}")),
                        tick(Call(f"U{i}"))) for i in range(n)}
    defs |= {f"U{i}": tick(Call(f"T{i}")) for i in range(n)}
    root = Call("T0")
    for i in range(1, n):
        root = SyncPar(root, Call(f"T{i}"))
    return root, defs


def _ladder(n):
    # one term whose continuation turns on n guards, one rung at a time
    body = tick(Call("T"))
    for j in reversed(range(n)):
        body = If(Op(">", (Var("x"), Const(j / n))), tick(Call(f"L{j}")), body)
    return Call("T"), {"T": body} | {f"L{j}": tick(Call("T")) for j in range(n)}


a = Prefix((Const(1.0),), ("x",), Call("Loop"))
b = Prefix((Const(2.0),), ("x",), Call("Loop"))


@pytest.mark.parametrize("process, defs, reason", [
    (PChoice(((0.5, a), (0.5, b))), _loop(), "2 branches of non-zero weight"),
    (Interleave(a, 0.3, b), _loop(), "interleaving moves either side"),
    (Prefix((), (), Call("Ghost")), _loop(), "'Ghost' is undefined"),
    (Call("A"), {"A": If(Var("s"), Call("A"), tick(Call("A")))}, "not guarded"),
    (Prefix((Const(1),), ("x",), Call("Loop")), _loop(), "constant 1 is not a float"),
    (Call("D0"), _chain(compiled._MAX_TERMS), "more than 4096 control terms"),
    (*_toggles(13), "more than 4096 outcomes"),
    (*_ladder(64), "need more than 1048576 table entries"),
], ids=["choice", "interleaving", "undefined", "unguarded", "int-constant", "table", "outcomes",
        "next-ids"])
def test_declines_with_a_reason(process, defs, reason):
    c = Configuration(process, SPACE.state([0.0, 0.0, 0.0, 0.0]), IdentityKernel(), defs)
    with pytest.raises(PreconditionError, match=reason):
        compiled.program(c)


def test_dirac_forms_of_choice_and_interleaving_compile():
    for process, defs in ((PChoice(((1.0, a), (0.0, b))), _loop()),
                          (Interleave(a, 1.0, b), _loop()), (Interleave(a, 0.0, b), _loop()),
                          (Call("D0"), _chain(compiled._MAX_TERMS - 1))):  # a full table
        c = Configuration(process, SPACE.state([0.0, 0.0, 0.0, 0.0]), IdentityKernel(), defs)
        compiled.program(c)


def test_many_terms_that_write_apart_share_one_step():
    # 300 terms, each writing its own constant and moving on or back by the
    # data: the one lowered step holds a select for each, and Drift spreads
    # the rows over many of them
    n = 300
    defs = {f"D{i}": If(Op(">", (Var("x"), Const(0.0))),
                        Prefix((Const(i / 30.0),), ("y",), Call(f"D{(i + 1) % n}")),
                        tick(Call("D0"))) for i in range(n)}
    c = Configuration(Call("D0"), SPACE.state([0.0, 0.0, 0.0, 0.0]), Drift(), defs)
    # y is column 1: its value is named p1 until it is written
    assert compiled.program(c).source.count("p1 = where(") == n
    fast = _outcome(lambda: estimate(c, 40, 20, 3, use_fast_path=True), True)
    slow = _outcome(lambda: estimate(c, 40, 20, 3, use_fast_path=False), True)
    assert fast == slow


# -- the step writes into the run's own block ----------------------------------

OWN = DataSpace([VarSpec("a", 0.0, 10.0), VarSpec("b", 0.0, 10.0), VarSpec("c", 0.0, 20.0)])


class Redraw(EnvironmentEvolution):
    """a is redrawn in [2, 4]; b and c are kept."""

    id = "redraw-a"
    draws = 1

    def sample_batch(self, values, u):
        out = values.copy(order="K")
        out[:, 0] = 2.0 + 2.0 * u[:, 0]
        return out


class ReadOnly(Redraw):
    """``Redraw``, returned as a read-only view, as ``np.broadcast_to``
    makes one; without ``clamped``, the clamp makes the run's block."""

    id = "redraw-a-read-only"

    def sample_batch(self, values, u):
        out = super().sample_batch(values, u)
        return np.broadcast_to(out, out.shape)


def _own_paths_agree(defs, env, seed=5):
    """Both estimators on both paths, from P: the same bits and clamp
    events, or the same failure; returns the interpreter's ``estimate``
    outcome."""
    c = Configuration(Call("P"), OWN.state([5.0, 1.0, 0.0]), env, defs)
    compiled.program(c)
    k, N = 12, 9
    pens = [GoalPenalty("a", 0.0, 0.0, 10.0), GoalPenalty("b", 10.0, 0.0, 10.0)]
    outcomes = []
    for call in (lambda fast: estimate(c, k, N, seed, use_fast_path=fast),
                 lambda fast: estimate_penalties(c, k, N, seed, pens, range(k + 1),
                                                 use_fast_path=fast)):
        fast, slow = (_outcome(partial(call, f), True, OWN) for f in (True, False))
        assert fast == slow
        outcomes.append(slow)
    return outcomes[0]


def test_a_swap_of_two_columns_reads_both_before_writing_either():
    defs = {"P": Prefix((Var("b"), Var("a")), ("a", "b"), Call("P"))}
    assert isinstance(_own_paths_agree(defs, Redraw())[0], bytes)
    c = Configuration(Call("P"), OWN.state([5.0, 1.0, 0.0]), Redraw(), defs)
    assert compiled.program(c).source.count(".copy()") == 2


def test_a_write_reads_the_pre_step_value_of_another_written_column():
    # each value reads a column the step also writes, in a prefix and
    # across a synchronous composition, under a guard on a written column
    defs = {"P": SyncPar(Call("L"), Call("R")),
            "L": If(Op(">", (Var("a"), Const(3.0))),
                    Prefix((Op("+", (Var("b"), Const(1.0))),), ("a",), Call("L")),
                    Prefix((Op("/", (Var("b"), Const(2.0))), Op("-", (Var("c"), Var("a")))),
                           ("a", "c"), Call("L"))),
            "R": Prefix((Op("*", (Var("a"), Const(2.0))), Var("a")), ("b", "c"), Call("R"))}
    assert isinstance(_own_paths_agree(defs, Redraw())[0], bytes)


def test_a_failing_step_hands_over_the_untouched_block():
    # a - 1 is written where sqrt(a - 3) reads a: on the written block every
    # row would fail and row 0 would be named; 10 a is clamped at 20, and
    # the rows before the failing one count their clamps
    body = Prefix((Op("-", (Var("a"), Const(1.0))), Op("sqrt", (Op("-", (Var("a"), Const(3.0))),)),
                   Op("*", (Const(10.0), Var("a")))), ("a", "b", "c"), Call("P"))
    got = _own_paths_agree({"P": body}, Redraw(), seed=4)
    assert got == (("failed", 2, 1, "run 2: step 1: sqrt of negative value -0.970284 in "
                    "'sqrt(a - 3)'"), 11)


def test_a_read_only_kernel_result_is_not_the_block_written():
    body = Prefix((Var("b"), Op("min", (Op("+", (Var("a"), Const(1.0))), Const(10.0)))),
                  ("a", "b"), Call("P"))
    assert isinstance(_own_paths_agree({"P": body}, ReadOnly())[0], bytes)


# -- the built-in kernels step the run's block in place -------------------------


def _overflowing(model):
    """A built-in configuration whose first kernel step overflows on every
    row, with a penalty and the numpy operation that overflows: the dual
    engine's fn increment at a clearance without a range check, or a tank
    level at a dt the parameter checks admit."""
    if model == "engine":
        c = engine_system(EngineParams(clearance=1.5e308), dual=True,
                          init={"stress_L": 1.0, "stress_R": 1.0})
        return c, engine_penalties(True)["fn"], "add"
    c = tanks_configuration(dt=1e308, init={"l2": 20.0})
    return c, tanks_penalties(c.env.params)["l1"], "multiply"


@pytest.mark.parametrize("model", ["engine", "tanks"])
def test_an_in_place_kernel_step_that_raises_is_reported_as_the_interpreter_reports_it(model):
    # under the suite's error::RuntimeWarning filter the overflow raises; the
    # kernel writes last, so the run takes the step again through advance on
    # its untouched block, whose one-row re-run names the row
    c, pen, op = _overflowing(model)
    assert c.env._steps_in_place(c.space)
    calls = [partial(estimate_penalties, c, 5, 4, 3, [pen], range(6), use_fast_path=fast)
             for fast in (True, False)]
    fast, slow = (_outcome(call, True, c.space) for call in calls)
    assert fast == slow
    assert fast[0] == ("failed", 0, 0, f"run 0: step 0: overflow encountered in {op}")
    for order in "CF":
        block = np.array([c.data.values] * 3, order=order)
        before = block.tobytes()
        with pytest.raises(RuntimeWarning, match=f"overflow encountered in {op}"):
            c.env.sample_into(block, np.full((3, c.env.draws), 0.5))
        assert block.tobytes() == before


@pytest.mark.parametrize("model", ["engine-saw", "tanks"])
def test_a_built_in_run_steps_one_block_in_place(model):
    if model == "tanks":
        c = tanks_configuration(scenario=2)
    else:
        c = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),))
        c = c.with_data(c.data.update([("left_L", 5.0), ("right_L", 300.0)]))
    k = 201
    run = start_rows(compiled.program(c), c, 1100, 7, k)
    block = run.current()
    assert run.step() is block  # the first step also fills the draw tape for every step
    tracemalloc.start()
    try:
        for _ in range(k - 1):
            assert run.step() is block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # no block, nor a copy of one, is allocated per step (the tank kernel's
    # scratch of six vectors is as large as its six-column block)
    if model == "engine-saw":
        assert peak < block.nbytes == 1100 * 23 * 8


def _step_to(call, f=0.5):
    # Drift redraws y but keeps f, so f tells the steps taken apart
    return Prefix((Const(f),), ("f",), Call(call))


x_above = lambda v: Op(">", (Var("x"), Const(v)))
NEXT_ID_SHAPES = {
    # A's continuation turns on three guards and B's on a fourth
    "guards": (Call("A"), {
        "A": If(x_above(0.0), If(Op("<", (Var("y"), Const(5.0))), _step_to("A"), _step_to("B")),
                If(Var("s"), _step_to("B", 2.0), tick(Call("A")))),
        "B": If(x_above(1.0), _step_to("A", 3.0), tick(Call("B")))}),
    # the root and A both move on to A
    "shared": (If(x_above(0.0), _step_to("A"), tick(Call("A"))),
               {"A": If(x_above(1.0), _step_to("A", 2.0), tick(Call("A")))}),
    # A is the one term, and keeps its id
    "own": (Call("A"), {"A": If(x_above(0.0), _step_to("A"), tick(Call("A")))}),
    # 16 of 17 terms read a guard of their own (S16 moves on to S0 either
    # way): 17 * 2**16 entries do not fit in the table, so one is private
    "private": (Call("S0"), {f"S{i}": If(
        x_above(i / 1024 - 3.9),
        _step_to(f"S{(i + 1) % 17}", SPACE.vars[2].values[i % 4]),
        tick(Call("S0"))) for i in range(17)}),
}


@pytest.mark.parametrize("shape, bits, private, nxt", [
    ("guards", 4, 0, "nxt = N"), ("shared", 0, 0, "nxt = full("), ("own", 0, 0, "nxt = ctrl"),
    ("private", 16, 1, "nxt = N")])
def test_the_next_control_ids_take_one_gather_or_none(shape, bits, private, nxt):
    process, defs = NEXT_ID_SHAPES[shape]
    c = Configuration(process, SPACE.state([0.0, 0.0, 0.0, 1.0]), Drift(), defs)
    source = compiled.program(c).source
    assert source.count("nxt = ") == 1 and nxt in source, source
    assert source.count("i += ") == bits and source.count(".take(i)") == (bits > 0), source
    assert source.count(".take(ctrl) * ") == private, source
    fast = _outcome(lambda: estimate(c, 30, 20, 3, use_fast_path=True), True)
    slow = _outcome(lambda: estimate(c, 30, 20, 3, use_fast_path=False), True)
    assert fast == slow


def test_a_changed_input_gets_its_own_program():
    # programs are found by the identity of the process, definitions and
    # space of a recent call; a change that moves a bit must still miss
    def after_one_step(c, col):
        block = start_rows(compiled.program(c), c, 1, 3, 1).step()
        return np.signbit(block[0, SPACE.index(col)])

    def writes(zero, col="x"):  # x, in [-4, 4], keeps the sign of a zero
        return Prefix((Const(zero),), (col,), Call("Loop"))

    defs = {"Loop": writes(0.0)}
    c = Configuration(Call("Loop"), SPACE.state([1.0, 5.0, 0.0, 0.0]), IdentityKernel(), defs)
    assert compiled.program(c) is compiled.program(c)
    assert not after_one_step(c, "x")
    defs["Loop"] = writes(-0.0)  # in place
    assert after_one_step(c, "x")
    # processes that differ from the one before only in the sign of a zero
    for zero in (0.0, -0.0, 0.0):
        assert after_one_step(replace(c, process=writes(zero)), "x") == np.signbit(zero)
    # y's lower bound 0.0 clamps -0.0 to 0.0, a bound -0.0 to itself, and a
    # space that differs only there is == to SPACE
    c = replace(c, process=writes(-0.0, "y"))
    assert not after_one_step(c, "y")
    signed = DataSpace([replace(v, lower=-0.0) if v.name == "y" else v for v in SPACE.vars])
    assert signed == SPACE
    assert after_one_step(replace(c, data=DataState(signed, c.data.values)), "y")
    # an exact copy of the space misses the identity lookup, not the cache
    copy = DataSpace(SPACE.vars)
    assert compiled.program(replace(c, data=DataState(copy, c.data.values))) is \
        compiled.program(c)


def test_a_decline_is_logged_with_its_reason(caplog):
    c = Configuration(PChoice(((0.5, a), (0.5, b))), SPACE.state([0.0, 0.0, 0.0, 0.0]),
                      IdentityKernel(), _loop())
    with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
        estimate(c, 3, 2, seed=1)
    assert "2 branches of non-zero weight" in caplog.text
    assert "running the interpreter" in caplog.text


SEN_L = (AttackConfig.parse("sen:L:0.4"),)
# built-in configurations, their lockstep shell attached, whose process or
# definitions are not the ones their model builds
FOREIGN = {
    "swapped-tanks": lambda: replace(
        tanks_configuration(), process=SyncPar(Call("Tanks_out"), Call("Tanks_in"))),
    "tank-controller": lambda: replace(
        tanks_configuration(),
        **dict(zip(("process", "defs"), tanks_program(ThreeTanksParams(delta_l=0.7))))),
    "inlined-engine": lambda: (lambda c: replace(
        c, process=SyncPar(c.defs["Eng_L"], c.process.right)))(engine_system(attacks=SEN_L)),
    "engine-definitions": lambda: replace(
        engine_system(attacks=SEN_L),
        defs=engine_system(EngineParams(threshold=99.0), attacks=SEN_L).defs),
}


@pytest.mark.parametrize("name", FOREIGN)
def test_a_shell_runs_the_compiled_program_of_any_configuration(name, caplog):
    # a shell checks nothing: it starts the compiled program of the
    # configuration it is given, with the bits of the interpreter and of the
    # compiled path without a shell
    c = FOREIGN[name]()
    rho = VarPenalty(c.space.names[0])

    def both(c, **kwargs):
        return (estimate(c, 30, 6, seed=13, **kwargs).states.tobytes(),
                estimate_penalties(c, 30, 6, 17, [rho], [0, 10, 30], **kwargs).tobytes())

    with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
        fast = both(c)
    messages = [r.getMessage() for r in caplog.records]
    assert [m for m in messages if " path: " in m] == ["lockstep path: 6 runs of 30 steps"] * 2
    assert not [m for m in messages if "interpreter" in m]
    assert fast == both(c, use_fast_path=False) == both(replace(c, lockstep=None))


def test_a_shell_runs_segments_whose_configuration_state_is_not_admissible(caplog):
    # the call's segments are admissible and the configuration's own state
    # (q1 = -0.0 at the lower bound +0.0) is not read: the shell runs them
    c = tanks_configuration(init={"l1": 5.0})
    c = c.with_data(DataState(c.space, (-0.0,) + c.data.values[1:]))
    rho = tanks_penalties(c.env.params)["l1"]
    ok = c.data.update([("q1", 0.0)])
    segments = [(ok, 41, 4), (ok.update([("l2", 6.0)]), 43, 3)]

    def rows(**kwargs):
        return estimate_penalties(c, 6, 7, None, [rho], [0, 3, 6], segments=segments,
                                  **kwargs).tobytes()

    with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
        fast = rows()
    assert [r.getMessage() for r in caplog.records if " path: " in r.getMessage()] == [
        "lockstep path: 7 runs of 6 steps in 2 segments"]
    assert fast == rows(use_fast_path=False)


# -- the range analysis ------------------------------------------------------


def _negzero(v):
    return v == 0.0 and np.signbit(v)


# admissible rows of SPACE: -0.0 only where no bound is +0.0 (x, and f
# whose set holds 0), finite variables on their sets
admissible_rows = st.tuples(
    st.one_of(st.floats(-4.0, 4.0), st.sampled_from([-4.0, 4.0, 0.0, -0.0, 1e-300, -1e-300])),
    st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 10.0])),
    st.sampled_from([-1.0, 0.0, -0.0, 0.5, 2.0]),
    st.sampled_from([0.0, 1.0]),
)


# every operator over variables and constants, dense in signed zeros and
# non-finite values
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -4.5, 1e300, 5e-324, math.inf, -math.inf, math.nan]
ranged = st.recursive(
    st.one_of(st.sampled_from([Var("x"), Var("f"), Var("y"), Var("s")]),
              st.sampled_from(EDGES).map(Const), st.floats(-6.0, 12.0).map(Const)),
    lambda sub: st.builds(lambda op, args: Op(op, args[:_ARITIES[op]]),
                          st.sampled_from(sorted(_ARITIES)), st.tuples(sub, sub, sub)),
    max_leaves=5)
# at -0.0 on the first row, and at every edge value of x on the others
EDGE_ROWS = [(-0.0, 0.0, -0.0, 0.0)] + [(x, 10.0, 0.0, 1.0) for x in (0.0, -4.0, 4.0, 1e-300)]


def _op(name, *args):
    return Op(name, tuple(Var(a) if isinstance(a, str) else Const(a) for a in args))


@example(e=_op("-", "x", "y"), rows=EDGE_ROWS)  # the bounds of a difference cross
@example(e=_op("+", "x", -0.0), rows=EDGE_ROWS)  # -0.0 + -0.0 is -0.0
@example(e=_op("-", "x", 0.0), rows=EDGE_ROWS)  # -0.0 - 0.0 is -0.0
@example(e=_op("max", -1.0, "f"), rows=EDGE_ROWS)  # the -0.0 of f beats -1
@example(e=_op("*", "x", math.inf), rows=EDGE_ROWS)  # 0 * inf is NaN
@example(e=_op("/", "x", 1e300), rows=EDGE_ROWS)  # an underflow to -0.0
@given(e=st.one_of(ranged, values),
       rows=st.lists(admissible_rows, min_size=1, max_size=8).map(lambda r: EDGE_ROWS[:1] + r))
@settings(max_examples=400, phases=NO_SHRINK)
def test_the_range_of_an_expression_holds_on_admissible_rows(e, rows):
    comp = compiled._Compiler({}, SPACE)
    ins = comp.instrs[comp._instr(e)]
    for row in rows:
        assert all(compiled._admissible(spec, v) for spec, v in zip(SPACE.vars, row))
        try:
            v = float(_eval(e, row, SPACE))
        except EvoMetricError:
            assert ins.fails, f"{e} raises on {row}"
            continue
        if v != v:
            assert ins.nan, f"{e} is NaN on {row}"
            continue
        assert ins.lo <= v <= ins.hi, f"{e} = {v!r} on {row}, outside [{ins.lo}, {ins.hi}]"
        assert ins.vals is None or v in ins.vals, f"{e} = {v!r} on {row}, not in {ins.vals}"
        assert ins.negzero or not _negzero(v), f"{e} is -0.0 on {row}"


def test_a_write_that_can_be_negative_zero_keeps_its_clamp_at_a_zero_bound():
    # max(x, 0) lies in y's domain [0, 10] but is -0.0 where x is (Python's
    # max keeps its first argument on a tie); y's lower bound 0.0 turns that
    # into +0.0 without counting a clamp
    c = Configuration(Prefix((Op("max", (Var("x"), Const(0.0))),), ("y",), Call("Loop")),
                      SPACE.state([-0.0, 5.0, 0.0, 0.0]), IdentityKernel(), _loop())
    prog = compiled.program(c)
    assert prog.source.count("clamp(") == 1
    before = SPACE.clamp_events
    block = start_rows(prog, c, 2, 3, 1).step()
    assert block[:, 1].tobytes() == np.zeros(2).tobytes()
    assert SPACE.clamp_events == before


def test_an_inadmissible_initial_state_is_declined():
    c = Configuration(tick(Call("Loop")), SPACE.state([0.0, 0.0, 0.0, 0.0]), IdentityKernel(),
                      _loop())
    c = replace(c, data=DataState(SPACE, (0.0, -0.0, 0.0, 0.0)))
    with pytest.raises(PreconditionError, match="initial value -0.0 of 'y' is not admissible"):
        compiled.program(c)


@pytest.mark.parametrize("model", ["tanks", "engine-saw"])
def test_the_built_in_terms_lower_without_clamps_or_checks(model):
    if model == "tanks":
        ref = tanks_configuration(scenario=2)
    else:
        ref = engine_system(attacks=(AttackConfig.parse("saw:L:0.6:1000"),))
        ref = ref.with_data(ref.data.update([("left_L", 5.0), ("right_L", 300.0)]))
    source = compiled.program(Configuration(ref.process, ref.data, ref.env, ref.defs)).source
    # no clamp, NaN check, failing-row bookkeeping, floating-point error
    # state or copy: the step writes its columns into the run's block
    for code in ("clamp(", "isnan(", "fail |=", "errstate", ".copy("):
        assert code not in source, source


# -- finite models against exact enumeration ---------------------------------

FINITE = DataSpace([
    VarSpec("x", -4.0, 4.0, values=(-4.0, -1.0, 0.0, 2.5, 4.0)),
    VarSpec("y", 0.0, 10.0, values=(0.0, 3.0, 10.0)),
    VarSpec("f", -1.0, 2.0, values=(-1.0, 0.0, 0.5, 2.0)),
    VarSpec("s", 0.0, 1.0, values=(0.0, 1.0)),
])


def _redraw_y(values):
    return [(0.5, values), (0.25, values[:1] + (0.0,) + values[2:]),
            (0.25, values[:1] + (10.0,) + values[2:])]


FINITE_KERNELS = [FiniteKernel(_toggle_s, id="toggle-s"), FiniteKernel(_redraw_y, id="redraw-y")]
MARGINAL_RUNS = 2000


def _marginals(states):
    """Per step, the share of runs in each value tuple."""
    out = []
    for step in np.moveaxis(states, 1, 0):
        shares: dict = {}
        for row in step.tolist():
            shares[tuple(row)] = shares.get(tuple(row), 0.0) + 1.0 / len(step)
        out.append(shares)
    return out


def _assert_close(sampled, exact, n):
    # five standard errors per value tuple, seeds fixed: a tuple the
    # enumeration does not reach is never sampled
    for got, want in zip(sampled, exact):
        for state in set(got) | set(want):
            p, q = want.get(state, 0.0), got.get(state, 0.0)
            assert abs(q - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n) + 1e-9, (state, q, p)


@given(system=systems(FINITE, FINITE_KERNELS), k=st.integers(1, 3))
@settings(max_examples=12, phases=NO_SHRINK)
def test_finite_marginals_equal_the_exact_enumeration(system, k):
    c, dirac = system
    try:
        exact = enumerate_data_marginal(c, k)
    except EvoMetricError:  # some reachable row fails: nothing to compare
        return
    interp = estimate(c, k, MARGINAL_RUNS, seed=2024, use_fast_path=False)
    _assert_close(_marginals(interp.states), exact, MARGINAL_RUNS)
    if dirac:
        fast = estimate(c, k, MARGINAL_RUNS, seed=2024)
        assert fast.states.tobytes() == interp.states.tobytes()


# -- the path taken ------------------------------------------------------------


@pytest.mark.parametrize("path", ["lockstep", "compiled", "interpreter"])
def test_each_call_logs_the_path_that_served_it(path, caplog):
    c = tanks_configuration()
    if path == "compiled":
        c = replace(c, lockstep=None)
    with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
        estimate(c, 5, 3, seed=2, use_fast_path=path != "interpreter")
    served = [r.getMessage() for r in caplog.records if "path:" in r.getMessage()]
    assert served == [f"{path} path: 3 runs of 5 steps"]
