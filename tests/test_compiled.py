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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evometric import compiled, engine
from evometric.dataspace import DataSpace, GoalPenalty, VarPenalty, VarSpec
from evometric.engine import Configuration, estimate, estimate_penalties
from evometric.environment import EnvironmentEvolution, FiniteKernel, IdentityKernel
from evometric.errors import PreconditionError, SimulationError
from evometric.metric import ObservationTimes, constant_discount, distance
from evometric.models.three_tanks import tanks_configuration, tanks_penalties
from evometric.process import Call, Const, If, Interleave, Op, PChoice, Prefix, SyncPar, Var, tick
from evometric.process_text import format_definitions, parse_definitions

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
def bodies(draw, n_defs, depth):
    """A definition body: a tree of guards ending in prefixes that call a
    definition.  Flags whether it compiles: every step it can take is a
    Dirac, on the arms of an ``If`` the data never take too."""
    kind = draw(st.sampled_from(["prefix"] * 3 + ["if"] * 2 + ["choice"]) if depth else
                st.just("prefix"))
    if kind == "prefix":
        targets = draw(st.lists(st.sampled_from(NAMES), max_size=3))
        if draw(st.integers(0, 29)) == 0:
            targets.append("ghost")  # an unknown variable fails every row writing it
        exprs = tuple(draw(values) for _ in targets)
        return Prefix(exprs, tuple(targets), Call(f"D{draw(st.integers(0, n_defs - 1))}")), True
    if kind == "if":
        a, dirac_a = draw(bodies(n_defs, depth - 1))
        b, dirac_b = draw(bodies(n_defs, depth - 1))
        return If(draw(booleans), a, b), dirac_a and dirac_b
    a, dirac_a = draw(bodies(n_defs, depth - 1))
    b, dirac_b = draw(bodies(n_defs, depth - 1))
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
def systems(draw):
    n_defs = draw(st.integers(2, 4))
    defs, dirac = {}, True
    for i in range(n_defs):
        defs[f"D{i}"], ok = draw(bodies(n_defs, 2))
        dirac = dirac and ok
    root, ok = draw(roots(n_defs))
    init = [draw(st.sampled_from([spec.lower, spec.upper, 0.0, -0.0, 0.5])) for spec in SPACE.vars]
    c = Configuration(root, SPACE.state(init), draw(st.sampled_from(ENVIRONMENTS)), defs)
    return c, dirac and ok


def _outcome(call, count_clamps):
    """The bits of the result, or the failure; with the clamp events the
    call added when ``count_clamps`` (workers count theirs elsewhere)."""
    before = SPACE.clamp_events
    try:
        result = call()
    except SimulationError as exc:
        got = ("failed", exc.run, exc.step, str(exc))
    else:
        got = np.asarray(getattr(result, "states", result)).tobytes()
    return got, SPACE.clamp_events - before if count_clamps else None


@given(system=systems(), k=st.integers(0, 8), N=st.integers(1, 6),
       seed=st.integers(0, 2**32), run_offset=st.integers(0, 10**6),
       threads=st.sampled_from([1, 1, 1, 2]), data=st.data())
@settings(max_examples=100, phases=NO_SHRINK)
def test_compiled_path_equals_interpreter(system, k, N, seed, run_offset, threads, data):
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
    args = (c, k, N, seed, pens, obs)
    fast = _outcome(lambda: estimate_penalties(*args, run_offset=run_offset), one)
    slow = _outcome(lambda: estimate_penalties(*args, threads=threads, use_fast_path=False,
                                               run_offset=run_offset), one)
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
], ids=["choice", "interleaving", "undefined", "unguarded", "int-constant", "table", "outcomes"])
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


def test_a_decline_is_logged_with_its_reason(caplog):
    c = Configuration(PChoice(((0.5, a), (0.5, b))), SPACE.state([0.0, 0.0, 0.0, 0.0]),
                      IdentityKernel(), _loop())
    with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
        estimate(c, 3, 2, seed=1)
    assert "2 branches of non-zero weight" in caplog.text
    assert "running the interpreter" in caplog.text


def test_a_lockstep_decline_is_logged_before_the_compiled_program_runs(caplog, monkeypatch):
    # the tank lockstep is bound to the term it was built for; one step on,
    # the continuation is still a Dirac and compiles
    c = tanks_configuration()
    foreign = replace(c, process=SyncPar(Call("Tanks_out"), Call("Tanks_in")))
    monkeypatch.setattr(engine, "pstep", _refuse_pstep)
    with caplog.at_level(logging.DEBUG, logger="evometric.engine"):
        estimate(foreign, 5, 3, seed=2)
    assert "lockstep simulator declined: lockstep simulator is bound" in caplog.text
    assert "running the interpreter" not in caplog.text
