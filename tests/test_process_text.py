import numpy as np
import pytest

from evometric.errors import StructuralError
from evometric.process import (
    Call,
    Const,
    If,
    Interleave,
    Op,
    PChoice,
    Prefix,
    SyncPar,
    Var,
    format_expr,
    tick,
)
from evometric.process_text import (
    format_definitions,
    format_process,
    parse_definitions,
    parse_expr,
    parse_process,
)

from conftest import random_valid_system
from evometric.dataspace import DataSpace, VarSpec


class TestExpressionGrammar:
    def test_precedence(self):
        e = parse_expr("1 + 2 * 3")
        assert e == Op("+", (Const(1.0), Op("*", (Const(2.0), Const(3.0)))))

    def test_comparison_and_bool(self):
        e = parse_expr("x < 2 and y >= 1 or not z")
        assert e.name == "or"
        assert e.args[0].name == "and"
        assert e.args[1] == Op("not", (Var("z"),))

    def test_functions(self):
        assert parse_expr("min(1, max(x, 2))") == Op(
            "min", (Const(1.0), Op("max", (Var("x"), Const(2.0))))
        )
        assert parse_expr("ite(x < 1, 0, sqrt(y))") == Op(
            "ite", (Op("<", (Var("x"), Const(1.0))), Const(0.0), Op("sqrt", (Var("y"),)))
        )

    def test_negative_literal_folds(self):
        assert parse_expr("-0.4") == Const(-0.4)
        assert parse_expr("-(0.4)") == Op("neg", (Const(0.4),))

    def test_expression_round_trip(self):
        samples = [
            Op("+", (Var("x"), Op("*", (Const(2.0), Var("y"))))),
            Op("-", (Var("x"), Op("-", (Var("y"), Const(1.0))))),
            Op("neg", (Op("+", (Var("x"), Const(1.0))),)),
            Op("neg", (Const(2.0),)),
            Const(-3.5),
            Op("ite", (Op("<=", (Var("x"), Const(0.0))), Const(1.0), Var("y"))),
        ]
        for e in samples:
            assert parse_expr(format_expr(e)) == e

    def test_trailing_garbage(self):
        with pytest.raises(StructuralError):
            parse_expr("1 + 2 )")


class TestProcessGrammar:
    def test_prefix(self):
        p = parse_process("(max(0, q1 - 1.2) -> q1).P")
        assert p == Prefix(
            (Op("max", (Const(0.0), Op("-", (Var("q1"), Const(1.2))))),),
            ("q1",), Call("P"),
        )

    def test_multi_prefix(self):
        p = parse_process("(1, 0 -> a, b).P")
        assert p == Prefix((Const(1.0), Const(0.0)), ("a", "b"), Call("P"))

    def test_tick(self):
        assert parse_process("tick.P") == tick(Call("P"))

    def test_conditional(self):
        p = parse_process("if [l1 > 10.5] (0 -> q1).P else tick.P")
        assert isinstance(p, If)
        assert p.guard == Op(">", (Var("l1"), Const(10.5)))

    def test_choice(self):
        p = parse_process("0.3: tick.A + 0.7: tick.B")
        assert p == PChoice(((0.3, tick(Call("A"))), (0.7, tick(Call("B")))))

    def test_interleave(self):
        p = parse_process("A ||[0.25] B")
        assert p == Interleave(Call("A"), 0.25, Call("B"))

    def test_parallel_left_assoc(self):
        assert parse_process("A | B | C") == SyncPar(SyncPar(Call("A"), Call("B")), Call("C"))

    def test_definitions(self):
        defs, main = parse_definitions("A := tick.A;\nB := tick.A;\nA | B")
        assert set(defs) == {"A", "B"}
        assert main == SyncPar(Call("A"), Call("B"))

    def test_duplicate_definition(self):
        with pytest.raises(StructuralError):
            parse_definitions("A := tick.A; A := tick.A;")

    def test_unbalanced(self):
        with pytest.raises(StructuralError):
            parse_process("(1 -> x).")


class TestRoundTrip:
    def test_handwritten_cases(self):
        cases = [
            SyncPar(Call("P_in"), Call("P_out")),
            SyncPar(SyncPar(Call("A"), Call("B")), Call("C")),
            SyncPar(Call("A"), SyncPar(Call("B"), Call("C"))),
            Interleave(Interleave(Call("A"), 0.5, Call("B")), 0.25, Call("C")),
            Interleave(Call("A"), 0.5, Interleave(Call("B"), 0.25, Call("C"))),
            PChoice(((0.5, tick(Call("A"))), (0.5, If(Op("<", (Var("x"), Const(1.0))),
                                                      tick(Call("A")), Call("B"))))),
            Prefix((Const(-0.4),), ("temp_fake",), Call("Att")),
            If(Op("=", (Var("x"), Const(0.0))), PChoice(((1.0, tick(Call("A"))),)), Call("B")),
        ]
        for p in cases:
            assert parse_process(format_process(p)) == p

    def test_numbers_round_trip_bit_for_bit(self):
        a, b = tick(Call("A")), Call("B")
        for v in (-0.0, 0.0, 1.0, -2.5, 0.1, 1e15, -1e-300, 5e-324):
            e = Op("-", (Var("x"), Const(v)))
            back = parse_expr(format_expr(e)).args[1].value
            assert np.float64(back).tobytes() == np.float64(v).tobytes(), format_expr(e)
        assert format_expr(Const(-0.0)) == "-0"
        for p in (PChoice(((-0.0, a), (1.0, b))), Interleave(a, -0.0, b)):
            weights = lambda q: [w for w, _ in q.branches] if type(q) is PChoice else [q.p]
            back = parse_process(format_process(p))
            assert np.array(weights(back)).tobytes() == np.array(weights(p)).tobytes()

    def test_a_number_without_a_literal_raises(self):
        for v in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(StructuralError, match="no literal"):
                str(Prefix((Const(v),), ("x",), Call("L")))
        choice = object.__new__(PChoice)  # past the constructor's checks
        object.__setattr__(choice, "branches", ((float("inf"), Call("A")),))
        with pytest.raises(StructuralError, match="no literal for inf"):
            format_process(choice)

    def test_random_round_trip(self):
        space = DataSpace([VarSpec("x", 0, 1), VarSpec("y", 0, 1), VarSpec("zz", 0, 1)])
        r = np.random.Generator(np.random.PCG64(99))
        for _ in range(200):
            p, defs = random_valid_system(r, space, depth=3)
            assert parse_process(format_process(p)) == p
            text = format_definitions(defs, p)
            defs2, main2 = parse_definitions(text)
            assert defs2 == defs and main2 == p
