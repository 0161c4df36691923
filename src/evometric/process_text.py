"""Text format for processes and expressions.

Grammar (UTF-8, ASCII tokens)::

    program    := { definition } [ process ]
    definition := NAME ':=' process ';'
    process    := parallel
    parallel   := interleave { '|' interleave }
    interleave := choice { '||' '[' weight ']' choice }
    choice     := weighted { '+' weighted } | unary
    weighted   := weight ':' unary
    weight     := [ '-' ] number
    unary      := prefix | conditional | atom
    prefix     := '(' exprlist '->' namelist ')' '.' unary
                | 'tick' '.' unary
    conditional:= 'if' '[' expr ']' unary 'else' unary
    atom       := NAME | '(' process ')'

Expressions use the usual precedence (or < and < comparison < additive <
multiplicative < unary), the functions ``min(a,b)``, ``max(a,b)``,
``sqrt(a)``, ``abs(a)``, ``ite(c,a,b)``, and comparisons ``< <= = > >=``.

``parse_process(format_process(P))`` is ``P`` bit for bit, -0.0 included,
for every process tree whose numbers are finite; the text format has no
literal for NaN or an infinity, and printing one raises
:class:`StructuralError`.
"""

from __future__ import annotations

import re

from .errors import StructuralError
from .process import (
    Call,
    Const,
    Expr,
    If,
    Interleave,
    Op,
    PChoice,
    Prefix,
    Process,
    SyncPar,
    Var,
    format_expr,
    format_number,
)

__all__ = ["parse_process", "parse_definitions", "parse_expr", "format_process", "format_expr"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9']*)"
    r"|(?P<op>:=|->|\|\||<=|>=|[()\[\].,+\-*/<>=:;|?])"
    r")"
)

_KEYWORDS = {"if", "else", "tick", "min", "max", "sqrt", "abs", "ite", "and", "or", "not"}


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, str]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise StructuralError(f"cannot tokenize near {rest[:20]!r}")
            pos = m.end()
            if m.group("num") is not None:
                self.toks.append(("num", m.group("num")))
            elif m.group("name") is not None:
                self.toks.append(("name", m.group("name")))
            else:
                self.toks.append(("op", m.group("op")))
        self.pos = 0

    def peek(self, offset: int = 0):
        i = self.pos + offset
        return self.toks[i] if i < len(self.toks) else ("eof", "")

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text = self.next()
        if text != value:
            raise StructuralError(f"expected {value!r}, found {text or 'end of input'!r}")

    def at(self, value: str) -> bool:
        return self.peek()[1] == value


# -- expression parsing ------------------------------------------------------


def _parse_expr(ts: _Tokens) -> Expr:
    return _parse_or(ts)


def _parse_or(ts: _Tokens) -> Expr:
    e = _parse_and(ts)
    while ts.at("or"):
        ts.next()
        e = Op("or", (e, _parse_and(ts)))
    return e


def _parse_and(ts: _Tokens) -> Expr:
    e = _parse_cmp(ts)
    while ts.at("and"):
        ts.next()
        e = Op("and", (e, _parse_cmp(ts)))
    return e


def _parse_cmp(ts: _Tokens) -> Expr:
    e = _parse_add(ts)
    if ts.peek()[1] in ("<", "<=", "=", ">", ">="):
        op = ts.next()[1]
        e = Op(op, (e, _parse_add(ts)))
    return e


def _parse_add(ts: _Tokens) -> Expr:
    e = _parse_mul(ts)
    while ts.peek()[1] in ("+", "-"):
        op = ts.next()[1]
        e = Op(op, (e, _parse_mul(ts)))
    return e


def _parse_mul(ts: _Tokens) -> Expr:
    e = _parse_unary(ts)
    while ts.peek()[1] in ("*", "/"):
        op = ts.next()[1]
        e = Op(op, (e, _parse_unary(ts)))
    return e


def _parse_unary(ts: _Tokens) -> Expr:
    kind, text = ts.peek()
    if text == "-":
        ts.next()
        # fold '-literal' into a negative constant; '-(literal)' stays an Op
        if ts.peek()[0] == "num":
            return Const(-float(ts.next()[1]))
        return Op("neg", (_parse_unary(ts),))
    if text == "not":
        ts.next()
        return Op("not", (_parse_unary(ts),))
    if kind == "num":
        ts.next()
        return Const(float(text))
    if text in ("min", "max", "ite", "sqrt", "abs"):
        ts.next()
        ts.expect("(")
        args = [_parse_expr(ts)]
        while ts.at(","):
            ts.next()
            args.append(_parse_expr(ts))
        ts.expect(")")
        return Op(text, tuple(args))
    if kind == "name":
        ts.next()
        return Var(text)
    if text == "(":
        ts.next()
        e = _parse_expr(ts)
        ts.expect(")")
        return e
    raise StructuralError(f"unexpected token {text or 'end of input'!r} in expression")


# -- process parsing ---------------------------------------------------------


def _parse_process(ts: _Tokens) -> Process:
    return _parse_parallel(ts)


def _parse_parallel(ts: _Tokens) -> Process:
    p = _parse_interleave(ts)
    while ts.at("|"):
        ts.next()
        p = SyncPar(p, _parse_interleave(ts))
    return p


def _parse_interleave(ts: _Tokens) -> Process:
    p = _parse_choice(ts)
    while ts.at("||"):
        ts.next()
        ts.expect("[")
        prob = _parse_weight(ts)
        ts.expect("]")
        p = Interleave(p, prob, _parse_choice(ts))
    return p


def _parse_weight(ts: _Tokens) -> float:
    # a sign is read so that a weight of -0.0 prints and parses back
    sign = -1.0 if ts.at("-") else 1.0
    if sign < 0:
        ts.next()
    kind, text = ts.next()
    if kind != "num":
        raise StructuralError(f"expected a probability, found {text!r}")
    return sign * float(text)


def _parse_choice(ts: _Tokens) -> Process:
    # weighted sum 'p1: P1 + p2: P2 + ...' or a single unary process
    signed = int(ts.at("-"))
    if ts.peek(signed)[0] == "num" and ts.peek(signed + 1)[1] == ":":
        branches = []
        while True:
            weight = _parse_weight(ts)
            ts.expect(":")
            branches.append((weight, _parse_unary_process(ts)))
            if ts.at("+"):
                ts.next()
                continue
            break
        return PChoice(tuple(branches))
    return _parse_unary_process(ts)


def _parse_unary_process(ts: _Tokens) -> Process:
    kind, text = ts.peek()
    if text == "tick":
        ts.next()
        ts.expect(".")
        return Prefix((), (), _parse_unary_process(ts))
    if text == "if":
        ts.next()
        ts.expect("[")
        guard = _parse_expr(ts)
        ts.expect("]")
        then_p = _parse_unary_process(ts)
        ts.expect("else")
        else_p = _parse_unary_process(ts)
        return If(guard, then_p, else_p)
    if text == "(":
        # either a prefix '(exprs -> names).P' or a parenthesized process
        if _looks_like_prefix(ts):
            ts.next()
            exprs = [_parse_expr(ts)]
            while ts.at(","):
                ts.next()
                exprs.append(_parse_expr(ts))
            ts.expect("->")
            names = []
            while True:
                k, t = ts.next()
                if k != "name":
                    raise StructuralError(f"expected a variable name, found {t!r}")
                names.append(t)
                if ts.at(","):
                    ts.next()
                    continue
                break
            ts.expect(")")
            ts.expect(".")
            return Prefix(tuple(exprs), tuple(names), _parse_unary_process(ts))
        ts.next()
        p = _parse_process(ts)
        ts.expect(")")
        return p
    if kind == "name" and text not in _KEYWORDS:
        ts.next()
        return Call(text)
    raise StructuralError(f"unexpected token {text or 'end of input'!r} in process")


def _looks_like_prefix(ts: _Tokens) -> bool:
    """Scan ahead from '(' for '->' before the matching ')'."""
    depth = 0
    i = ts.pos
    while i < len(ts.toks):
        t = ts.toks[i][1]
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return False
        elif t == "->" and depth == 1:
            return True
        i += 1
    return False


def parse_expr(text: str) -> Expr:
    ts = _Tokens(text)
    e = _parse_expr(ts)
    if ts.peek()[0] != "eof":
        raise StructuralError(f"trailing input after expression: {ts.peek()[1]!r}")
    return e


def parse_process(text: str) -> Process:
    ts = _Tokens(text)
    p = _parse_process(ts)
    if ts.peek()[0] != "eof":
        raise StructuralError(f"trailing input after process: {ts.peek()[1]!r}")
    return p


def parse_definitions(text: str) -> tuple[dict, Process | None]:
    """Parse 'A := P; B := Q; ... [main-process]'.

    Returns the definitions table and the optional trailing main process.
    """
    ts = _Tokens(text)
    defs: dict = {}
    while ts.peek()[0] == "name" and ts.peek(1)[1] == ":=":
        _, name = ts.next()
        ts.next()
        body = _parse_process(ts)
        ts.expect(";")
        if name in defs:
            raise StructuralError(f"duplicate definition for {name!r}")
        defs[name] = body
    main: Process | None = None
    if ts.peek()[0] != "eof":
        main = _parse_process(ts)
        if ts.peek()[0] != "eof":
            raise StructuralError(f"trailing input: {ts.peek()[1]!r}")
    return defs, main


# -- printing ----------------------------------------------------------------


def format_process(P: Process) -> str:
    t = type(P)
    if t is Prefix:
        if not P.exprs:
            return f"tick.{_fmt_sub(P.cont)}"
        exprs = ", ".join(format_expr(e) for e in P.exprs)
        names = ", ".join(P.targets)
        return f"({exprs} -> {names}).{_fmt_sub(P.cont)}"
    if t is If:
        return f"if [{format_expr(P.guard)}] {_fmt_sub(P.then_p)} else {_fmt_sub(P.else_p)}"
    if t is PChoice:
        return " + ".join(f"{format_number(w)}: {_fmt_sub(b)}" for w, b in P.branches)
    if t is Interleave:
        return f"{_fmt_side(P.left)} ||[{format_number(P.p)}] {_fmt_side(P.right)}"
    if t is SyncPar:
        # '|' parses left-associative: only the left operand may stay bare
        return f"{_fmt_par_left(P.left)} | {_fmt_par_right(P.right)}"
    if t is Call:
        return P.name
    raise StructuralError(f"unknown process node {t.__name__}")


def _fmt_sub(P: Process) -> str:
    # operand of prefix '.', if-branch: must parse as a unary process
    if type(P) in (Prefix, If, Call):
        return format_process(P)
    return f"({format_process(P)})"


def _fmt_side(P: Process) -> str:
    # operand of '||[p]': choice level or below; '||' is non-associative here
    if type(P) in (Prefix, If, Call, PChoice):
        return format_process(P)
    return f"({format_process(P)})"


def _fmt_par_left(P: Process) -> str:
    if type(P) in (Prefix, Call, SyncPar, Interleave):
        return format_process(P)
    return f"({format_process(P)})"


def _fmt_par_right(P: Process) -> str:
    if type(P) in (Prefix, Call, Interleave):
        return format_process(P)
    return f"({format_process(P)})"


def format_definitions(defs: dict, main: Process | None = None) -> str:
    lines = [f"{name} := {format_process(body)};" for name, body in defs.items()]
    if main is not None:
        lines.append(format_process(main))
    return "\n".join(lines)
