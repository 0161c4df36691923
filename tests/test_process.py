import math

import numpy as np
import pytest

from evometric import compiled
from evometric.dataspace import DataSpace, VarPenalty, VarSpec
from evometric.engine import Configuration, estimate_penalties
from evometric.environment import IdentityKernel
from evometric.errors import EvaluationError, SemanticError, SimulationError, StructuralError
from evometric.process import (
    Call,
    Const,
    If,
    Interleave,
    Op,
    PChoice,
    Prefix,
    StepDistribution,
    SyncPar,
    Var,
    pstep,
    tick,
    validate,
    write_set,
)

from conftest import random_valid_system, start_rows

Q_STEP = 1.2
Q_MAX = 6.0
L_GOAL = 10.0
DELTA_L = 0.5


def tanks_space():
    return DataSpace([
        VarSpec("q1", 0.0, Q_MAX), VarSpec("q3", 0.0, Q_MAX),
        VarSpec("l1", 0.0, 20.0), VarSpec("l3", 0.0, 20.0),
    ])


def p_in():
    dec = Prefix((Op("max", (Const(0.0), Op("-", (Var("q1"), Const(Q_STEP))))),),
                 ("q1",), Call("P_in"))
    inc = Prefix((Op("min", (Const(Q_MAX), Op("+", (Var("q1"), Const(Q_STEP))))),),
                 ("q1",), Call("P_in"))
    return If(
        Op(">", (Var("l1"), Const(L_GOAL + DELTA_L))), dec,
        If(Op("<", (Var("l1"), Const(L_GOAL - DELTA_L))), inc, tick(Call("P_in"))),
    )


def p_out():
    inc = Prefix((Op("min", (Const(Q_MAX), Op("+", (Var("q3"), Const(Q_STEP))))),),
                 ("q3",), Call("P_out"))
    dec = Prefix((Op("max", (Const(0.0), Op("-", (Var("q3"), Const(Q_STEP))))),),
                 ("q3",), Call("P_out"))
    return If(
        Op(">", (Var("l3"), Const(L_GOAL + DELTA_L))), inc,
        If(Op("<", (Var("l3"), Const(L_GOAL - DELTA_L))), dec, tick(Call("P_out"))),
    )


def tanks_defs():
    return {"P_in": p_in(), "P_out": p_out(),
            "P_Tanks": SyncPar(Call("P_in"), Call("P_out"))}


def hand_built_choice(branches):
    """A choice node that skips the constructor's checks, as a tree built
    by other means may."""
    node = object.__new__(PChoice)
    object.__setattr__(node, "branches", branches)
    return node


def one_prefix(e, values):
    """The one-prefix process writing ``e`` in the tank state ``values`` to
    an unbounded variable, so that no clamp touches the value."""
    space = DataSpace(tanks_space().vars + (VarSpec("out", -math.inf, math.inf),))
    p = Prefix((e,), ("out",), Call("Loop"))
    return Configuration(p, space.state(list(values) + [0.0]), IdentityKernel(),
                         {"Loop": tick(Call("Loop"))})


def interpreted(c):
    (_, effect, _), = pstep(c.process, c.data, c.defs).triples
    return effect[0][1]


def batched(c):
    """The values the compiled program writes in a block of three rows."""
    block = start_rows(compiled.program(c), c, 3, 1, 1).step()
    return block[:, c.space.index("out")]


def assert_evaluates_to(e, values, expect):
    c = one_prefix(e, values)
    assert np.array(interpreted(c)).tobytes() == np.float64(expect).tobytes()
    assert batched(c).tobytes() == np.full(3, expect).tobytes()


def assert_both_raise(e, values, exc, match):
    c = one_prefix(e, values)
    with pytest.raises(exc, match=match):
        interpreted(c)
    with pytest.raises(SimulationError, match=match) as err:
        batched(c)
    assert type(err.value.__cause__) is exc


class TestEvalExpr:
    def test_pump_decrement_expression(self):
        # max{0, q1 - q_step} with q1 = 3 and q_step = 1.2
        e = Op("max", (Const(0.0), Op("-", (Var("q1"), Const(Q_STEP)))))
        assert_evaluates_to(e, [3.0, 0, 0, 0], 3.0 - Q_STEP)

    def test_comparison_encodes_as_one(self):
        e = Op(">", (Var("l1"), Op("+", (Const(L_GOAL), Const(DELTA_L)))))
        assert_evaluates_to(e, [0, 0, 12.0, 0], 1.0)
        assert_evaluates_to(Op("+", (e, e)), [0, 0, 12.0, 0], 2.0)

    def test_constant(self):
        assert_evaluates_to(Const(5.0), [0, 0, 0, 0], 5.0)
        assert_evaluates_to(Const(-0.0), [0, 0, 0, 0], -0.0)

    def test_min_max_keep_the_first_of_equals(self):
        # Python's min and max return their first argument on a tie
        for op in ("min", "max"):
            assert_evaluates_to(Op(op, (Const(-0.0), Var("q1"))), [0, 0, 0, 0], -0.0)
            assert_evaluates_to(Op(op, (Var("q1"), Const(-0.0))), [0, 0, 0, 0], 0.0)

    def test_division_by_zero_names_subexpression(self):
        assert_both_raise(Op("/", (Const(1.0), Var("q1"))), [0, 0, 0, 0],
                          EvaluationError, "division by zero")

    def test_sqrt_of_negative(self):
        assert_both_raise(Op("sqrt", (Const(-1.0),)), [0, 0, 0, 0], EvaluationError, "sqrt")
        # max(0, NaN) is 0: only the sqrt check itself reports this row
        masked = Op("max", (Const(0.0), Op("sqrt", (Op("neg", (Var("q1"),)),))))
        assert_both_raise(masked, [1.0, 0, 0, 0], EvaluationError, "sqrt")

    def test_boolean_connectives_strict(self):
        ok = Op("and", (Var("q1"), Var("q3")))
        assert_evaluates_to(ok, [1.0, 0.0, 0, 0], 0.0)
        assert_evaluates_to(Op("or", (Var("q1"), Var("q3"))), [1.0, 0.0, 0, 0], 1.0)
        assert_evaluates_to(Op("not", (Var("q3"),)), [1.0, 0.0, 0, 0], 1.0)
        assert_both_raise(ok, [2.0, 1.0, 0, 0], EvaluationError, "expected 0 or 1")
        assert_both_raise(Op("and", (Const(2.0), Const(1.0))), [0, 0, 0, 0],
                          EvaluationError, "expected 0 or 1")

    def test_conditional_selection(self):
        e = Op("ite", (Var("q1"), Const(7.0), Const(9.0)))
        assert_evaluates_to(e, [1.0, 0, 0, 0], 7.0)
        assert_evaluates_to(e, [0.0, 0, 0, 0], 9.0)
        # all three arguments are evaluated, the unselected one too
        bad = Op("ite", (Var("q1"), Const(7.0), Op("/", (Const(1.0), Var("q3")))))
        assert_both_raise(bad, [1.0, 0, 0, 0], EvaluationError, "division by zero")

    def test_unknown_operator_rejected(self):
        with pytest.raises(StructuralError):
            Op("bogus", (Const(1.0),))


NAN, INF = math.nan, math.inf
WITHOUT_A_LITERAL = [
    (Op("/", (Const(NAN), Var("x"))), EvaluationError,
     "division by zero in 'Op(name='/', args=(Const(value=nan), Var(name='x')))'"),
    (Op("sqrt", (Op("-", (Var("x"), Const(INF))),)), EvaluationError,
     "sqrt of negative value -inf in "
     "'Op(name='sqrt', args=(Op(name='-', args=(Var(name='x'), Const(value=inf))),))'"),
    (Op("and", (Const(NAN), Var("x"))), EvaluationError,
     "boolean operand of 'Op(name='and', args=(Const(value=nan), Var(name='x')))' "
     "evaluated to nan, expected 0 or 1"),
    (Op("+", (Var("x"), Const(-INF))), SemanticError,
     "if-guard 'Op(name='+', args=(Var(name='x'), Const(value=-inf)))' "
     "evaluated to -inf, expected 0 or 1"),
]


@pytest.mark.parametrize("e, exc, message", WITHOUT_A_LITERAL, ids=["div", "sqrt", "and", "if"])
def test_an_error_in_a_term_without_a_literal_names_the_term(e, exc, message):
    # the text format has no literal for NaN or an infinity, so the
    # message prints the term's repr instead of failing on it
    space = DataSpace([VarSpec("x", -1.0, 1.0)])
    loop = tick(Call("L"))
    body = If(e, loop, loop) if exc is SemanticError else Prefix((e,), ("x",), Call("L"))
    c = Configuration(Call("L"), space.state([0.0]), IdentityKernel(), {"L": body})
    with pytest.raises(exc) as err:
        pstep(body, c.data, c.defs)
    assert str(err.value) == message
    compiled.program(c)  # the fast path is the compiled program
    for fast in (True, False):
        with pytest.raises(SimulationError) as err:
            estimate_penalties(c, 2, 3, 1, [VarPenalty("x")], [0, 1, 2], use_fast_path=fast)
        assert str(err.value) == f"run 0: step 0: {message}"
        assert type(err.value.__cause__) is exc


class TestValidate:
    def test_tanks_program_is_valid(self):
        report = validate(Call("P_Tanks"), tanks_defs(), tanks_space())
        assert report.ok

    def test_self_composition_overlaps(self):
        defs = tanks_defs()
        report = validate(SyncPar(Call("P_in"), Call("P_in")), defs, tanks_space())
        kinds = {i.kind for i in report.issues}
        assert kinds == {"write-overlap"}
        assert "q1" in report.issues[0].message

    def test_unguarded_recursion(self):
        report = validate(Call("A"), {"A": Call("A")}, tanks_space())
        assert any(i.kind == "unguarded-recursion" for i in report.issues)

    @pytest.mark.parametrize("root, defs, named", [
        ("A", {"A": Call("B"), "B": Call("A")}, ["A", "B"]),
        ("Z", {"Z": Call("B"), "B": Call("Z")}, ["B", "Z"]),
        # D enters the cycle without a prefix, so it unfolds forever too
        ("D", {"A": Call("B"), "B": Call("A"), "D": Call("A")}, ["A", "B", "D"]),
        # a prefix on the way in guards E; F calls a guarded loop
        ("E", {"A": Call("B"), "B": Call("A"), "E": tick(Call("A")), "F": Call("L"),
               "L": tick(Call("F"))}, ["A", "B"]),
    ])
    def test_every_definition_that_unfolds_forever_is_named(self, root, defs, named):
        report = validate(Call(root), defs, tanks_space())
        assert [i.message for i in report.issues if i.kind == "unguarded-recursion"] == [
            f"definition {n!r} can recurse without a prefix" for n in named]

    def test_undefined_process(self):
        report = validate(Call("Ghost"), {}, tanks_space())
        assert any(i.kind == "undefined-process" for i in report.issues)

    def test_unknown_variable(self):
        p = Prefix((Const(1.0),), ("warp",), Call("Loop"))
        report = validate(p, {"Loop": tick(Call("Loop"))}, tanks_space())
        assert any(i.kind == "unknown-variable" for i in report.issues)

    def test_every_issue_kind_in_report_order(self):
        # undefined names in first-call order, unguarded recursion by name,
        # then weight sums and overlaps body by body (the root, then each
        # definition in first-call order), then unknown variables by name
        loop = tick(Call("Loop"))
        defs = {
            "A": SyncPar(Prefix((Var("l1"),), ("q1",), Call("B")),
                         Prefix((Const(0.0),), ("q1",), Call("Ghost"))),
            "B": If(Op(">", (Var("warp"), Const(0.0))), Call("C"), loop),
            "C": hand_built_choice(((0.5, Call("B")), (0.4, Call("Phantom")))),
            "Loop": loop,
        }
        root = hand_built_choice((
            (0.3, Call("A")),
            (0.3, SyncPar(Prefix((Const(1.0), Const(2.0)), ("speed", "q3"), loop),
                          Prefix((Var("q1"),), ("q3",), loop))),
        ))
        report = validate(root, defs, tanks_space())
        assert [(i.kind, i.message) for i in report.issues] == [
            ("undefined-process", "process variable 'Phantom' has no definition"),
            ("undefined-process", "process variable 'Ghost' has no definition"),
            ("unguarded-recursion", "definition 'B' can recurse without a prefix"),
            ("unguarded-recursion", "definition 'C' can recurse without a prefix"),
            ("weight-sum", "choice weights in <root> sum to 0.6"),
            ("write-overlap", "synchronous operands in <root> both write ['q3']"),
            ("write-overlap", "synchronous operands in A both write ['q1']"),
            ("weight-sum", "choice weights in C sum to 0.9"),
            ("unknown-variable", "variable 'speed' is not in the data space"),
            ("unknown-variable", "variable 'warp' is not in the data space"),
        ]

    def test_write_set_through_definitions(self):
        assert write_set(Call("P_Tanks"), tanks_defs()) == {"q1", "q3"}


class TestPStep:
    def test_pump_branch_dirac(self):
        # l1 = 12 > 10.5 selects the decrement branch: q1 <- max{0, 3-1.2}
        d = tanks_space().state([3.0, 0, 12.0, 0])
        dist = pstep(Call("P_in"), d, tanks_defs())
        assert len(dist) == 1
        p, eff, cont = dist.triples[0]
        assert p == 1.0
        assert eff == (("q1", 1.8),)
        assert cont == Call("P_in")

    def test_tick_has_empty_effect(self):
        d = tanks_space().state([0, 0, 10.0, 0])
        dist = pstep(tick(Call("P_in")), d, tanks_defs())
        assert dist.triples == ((1.0, (), Call("P_in")),)

    def test_choice_mixture(self):
        d = tanks_space().state([0, 0, 0, 0])
        a = Prefix((Const(1.0),), ("q1",), Call("Loop"))
        b = Prefix((Const(2.0),), ("q1",), Call("Loop"))
        dist = pstep(PChoice(((0.5, a), (0.5, b))), d, {"Loop": tick(Call("Loop"))})
        assert len(dist) == 2
        assert sorted(t[0] for t in dist) == [0.5, 0.5]

    def test_choice_merges_identical_support(self):
        d = tanks_space().state([0, 0, 0, 0])
        a = Prefix((Const(1.0),), ("q1",), Call("Loop"))
        dist = pstep(PChoice(((0.5, a), (0.5, a))), d, {"Loop": tick(Call("Loop"))})
        assert len(dist) == 1
        assert dist.triples[0][0] == pytest.approx(1.0)

    def test_interleave_wraps_continuations(self):
        d = tanks_space().state([0, 0, 0, 0])
        a = Prefix((Const(1.0),), ("q1",), Call("Loop"))
        b = Prefix((Const(2.0),), ("q3",), Call("Loop"))
        dist = pstep(Interleave(a, 0.3, b), d, {"Loop": tick(Call("Loop"))})
        assert len(dist) == 2
        (p1, e1, c1), (p2, e2, c2) = dist.triples
        assert (p1, e1) == (0.3, (("q1", 1.0),))
        assert c1 == Interleave(Call("Loop"), 0.3, b)
        assert (p2, e2) == (0.7, (("q3", 2.0),))
        assert c2 == Interleave(a, 0.3, Call("Loop"))

    def test_sync_product_concatenates_effects(self):
        d = tanks_space().state([3.0, 3.0, 12.0, 8.0])
        dist = pstep(Call("P_Tanks"), d, tanks_defs())
        assert len(dist) == 1
        _, eff, cont = dist.triples[0]
        assert eff == (("q1", 1.8), ("q3", 1.8))
        assert cont == SyncPar(Call("P_in"), Call("P_out"))

    def test_sync_product_mass(self):
        d = tanks_space().state([0, 0, 0, 0])
        a = PChoice(((0.4, Prefix((Const(1.0),), ("q1",), Call("Loop"))),
                     (0.6, Prefix((Const(2.0),), ("q1",), Call("Loop")))))
        b = PChoice(((0.5, Prefix((Const(1.0),), ("q3",), Call("Loop"))),
                     (0.5, Prefix((Const(2.0),), ("q3",), Call("Loop")))))
        dist = pstep(SyncPar(a, b), d, {"Loop": tick(Call("Loop"))})
        assert len(dist) == 4
        assert sum(t[0] for t in dist) == pytest.approx(1.0, abs=1e-12)

    def test_guard_must_be_binary(self):
        d = tanks_space().state([3.0, 0, 0, 0])
        bad = If(Var("q1"), tick(Call("Loop")), tick(Call("Loop")))
        with pytest.raises(SemanticError):
            pstep(bad, d, {"Loop": tick(Call("Loop"))})

    def test_pstep_is_deterministic(self):
        d = tanks_space().state([3.0, 3.0, 12.0, 8.0])
        assert pstep(Call("P_Tanks"), d, tanks_defs()) == pstep(
            Call("P_Tanks"), d, tanks_defs()
        )

    def test_undefined_call_raises(self):
        d = tanks_space().state([0, 0, 0, 0])
        with pytest.raises(StructuralError):
            pstep(Call("Ghost"), d, {})


class TestNormalizationProperty:
    def test_random_processes_normalize(self, small_space):
        r = np.random.Generator(np.random.PCG64(1234))
        for _ in range(150):
            p, defs = random_valid_system(r, small_space, depth=3)
            assert validate(p, defs, small_space).ok
            vals = [r.uniform(v.lower, v.upper) for v in small_space.vars]
            d = small_space.state(vals)
            dist = pstep(p, d, defs)
            total = sum(t[0] for t in dist)
            assert abs(total - 1.0) <= 1e-9
            assert all(t[0] > 0 for t in dist)
            assert len(dist) < 200


class TestConstructorInvariants:
    def test_choice_weights_must_sum_to_one(self):
        a = tick(Call("Loop"))
        with pytest.raises(StructuralError):
            PChoice(((0.5, a), (0.6, a)))
        with pytest.raises(StructuralError):
            PChoice(((-0.1, a), (1.1, a)))

    def test_a_nan_weight_is_rejected(self):
        a = tick(Call("Loop"))
        for branches in (((math.nan, a),), ((1.0, a), (math.nan, a))):
            with pytest.raises(StructuralError):
                PChoice(branches)
        with pytest.raises(StructuralError):
            Interleave(a, math.nan, a)
        for triples in (((math.nan, (), a),), ((1.0, (), a), (math.nan, (), Call("B")))):
            with pytest.raises(StructuralError):
                StepDistribution(triples)
        report = validate(hand_built_choice(((math.nan, a),)), {"Loop": a}, tanks_space())
        assert [(i.kind, i.message) for i in report.issues] == [
            ("weight-sum", "choice weights in <root> sum to nan")]

    def test_interleave_probability_range(self):
        a = tick(Call("Loop"))
        with pytest.raises(StructuralError):
            Interleave(a, 1.5, a)

    def test_step_distribution_checks_mass(self):
        with pytest.raises(StructuralError):
            StepDistribution(((0.5, (), Call("A")),))

    def test_prefix_arity(self):
        with pytest.raises(StructuralError):
            Prefix((Const(1.0),), ("a", "b"), Call("A"))
