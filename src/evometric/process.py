"""The generative probabilistic process calculus.

A process reads and writes data-space variables once per step.  Its one-step
behaviour is a finite discrete distribution over (effect, continuation) pairs,
computed by :func:`pstep`:

* a prefix evaluates its expressions and yields a Dirac on the resulting
  write effect and its continuation;
* ``if [e] P else Q`` steps as the branch selected by the guard (which must
  evaluate to exactly 1 or 0);
* a probabilistic choice mixes the branch distributions with its weights;
* ``P ||p Q`` interleaves: the left process moves with probability p, the
  right with 1-p, the idle side re-wrapped unchanged;
* ``P | Q`` moves synchronously: the product distribution with concatenated
  effects (operands must write disjoint variables);
* a process variable steps as its definition body.

Identical (effect, continuation) support points are merged by summing their
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

from .dataspace import DataSpace, DataState
from .errors import EvaluationError, ProcessValidationError, SemanticError, StructuralError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Op",
    "Process",
    "Prefix",
    "If",
    "PChoice",
    "Interleave",
    "SyncPar",
    "Call",
    "tick",
    "Definitions",
    "StepDistribution",
    "pstep",
    "validate",
    "ValidationIssue",
    "ValidationReport",
    "write_set",
    "WEIGHT_TOL",
]

WEIGHT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

_BOOL_OPS = {"and", "or", "not"}
_CMP_OPS = {"<", "<=", "=", ">", ">="}
_ARITIES = {
    "+": 2, "-": 2, "*": 2, "/": 2,
    "min": 2, "max": 2,
    "sqrt": 1, "abs": 1, "neg": 1,
    "<": 2, "<=": 2, "=": 2, ">": 2, ">=": 2,
    "and": 2, "or": 2, "not": 1,
    "ite": 3,
}


class _FrozenNode:
    """Base for frozen slotted AST nodes; pickling goes through __init__
    (the default slot pickling would trip the frozen-dataclass guard)."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


class Expr(_FrozenNode):
    __slots__ = ()

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float

    __slots__ = ("value",)


@dataclass(frozen=True)
class Var(Expr):
    name: str

    __slots__ = ("name",)


@dataclass(frozen=True)
class Op(Expr):
    name: str
    args: tuple

    __slots__ = ("name", "args")

    def __post_init__(self):
        arity = _ARITIES.get(self.name)
        if arity is None:
            raise StructuralError(f"unknown operator {self.name!r}")
        if len(self.args) != arity:
            raise StructuralError(
                f"operator {self.name!r} expects {arity} arguments, got {len(self.args)}"
            )


def _as_bool(v: float, e: Expr) -> bool:
    if v == 1.0:
        return True
    if v == 0.0:
        return False
    raise EvaluationError(f"boolean operand of '{_shown(e)}' evaluated to {v}, expected 0 or 1")


def _eval(e: Expr, values: Sequence[float], space: DataSpace) -> float:
    if type(e) is Const:
        return e.value
    if type(e) is Var:
        return values[space.index(e.name)]
    name = e.name
    a = e.args
    if name == "+":
        return _eval(a[0], values, space) + _eval(a[1], values, space)
    if name == "-":
        return _eval(a[0], values, space) - _eval(a[1], values, space)
    if name == "*":
        return _eval(a[0], values, space) * _eval(a[1], values, space)
    if name == "/":
        num = _eval(a[0], values, space)
        den = _eval(a[1], values, space)
        if den == 0.0:
            raise EvaluationError(f"division by zero in '{_shown(e)}'")
        return num / den
    if name == "min":
        return min(_eval(a[0], values, space), _eval(a[1], values, space))
    if name == "max":
        return max(_eval(a[0], values, space), _eval(a[1], values, space))
    if name == "sqrt":
        x = _eval(a[0], values, space)
        if x < 0.0:
            raise EvaluationError(f"sqrt of negative value {x:g} in '{_shown(e)}'")
        return math.sqrt(x)
    if name == "abs":
        return abs(_eval(a[0], values, space))
    if name == "neg":
        return -_eval(a[0], values, space)
    if name == "<":
        return 1.0 if _eval(a[0], values, space) < _eval(a[1], values, space) else 0.0
    if name == "<=":
        return 1.0 if _eval(a[0], values, space) <= _eval(a[1], values, space) else 0.0
    if name == "=":
        return 1.0 if _eval(a[0], values, space) == _eval(a[1], values, space) else 0.0
    if name == ">":
        return 1.0 if _eval(a[0], values, space) > _eval(a[1], values, space) else 0.0
    if name == ">=":
        return 1.0 if _eval(a[0], values, space) >= _eval(a[1], values, space) else 0.0
    if name == "and":
        l = _as_bool(_eval(a[0], values, space), e)
        r = _as_bool(_eval(a[1], values, space), e)
        return 1.0 if (l and r) else 0.0
    if name == "or":
        l = _as_bool(_eval(a[0], values, space), e)
        r = _as_bool(_eval(a[1], values, space), e)
        return 1.0 if (l or r) else 0.0
    if name == "not":
        return 0.0 if _as_bool(_eval(a[0], values, space), e) else 1.0
    if name == "ite":
        c = _as_bool(_eval(a[0], values, space), e)
        t = _eval(a[1], values, space)
        f = _eval(a[2], values, space)
        return t if c else f
    raise EvaluationError(f"unknown operator {name!r}")  # unreachable


def expr_vars(e: Expr, acc: set | None = None) -> set:
    if acc is None:
        acc = set()
    if type(e) is Var:
        acc.add(e.name)
    elif type(e) is Op:
        for a in e.args:
            expr_vars(a, acc)
    return acc


_PRECEDENCE = {"or": 1, "and": 2, "<": 3, "<=": 3, "=": 3, ">": 3, ">=": 3,
               "+": 4, "-": 4, "*": 5, "/": 5}


def format_number(v: float) -> str:
    """The literal of a number, which the text format reads back bit for
    bit: -0.0 is ``-0``.  NaN and the infinities have no literal."""
    if not math.isfinite(v):
        raise StructuralError(f"the text format has no literal for {v!r}")
    if v == 0.0 and math.copysign(1.0, v) < 0.0:
        return "-0"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def format_expr(e: Expr, parent_prec: int = 0) -> str:
    if type(e) is Const:
        return format_number(e.value)
    if type(e) is Var:
        return e.name
    name = e.name
    if name in ("min", "max", "ite"):
        inner = ", ".join(format_expr(a) for a in e.args)
        return f"{name}({inner})"
    if name in ("sqrt", "abs"):
        return f"{name}({format_expr(e.args[0])})"
    if name == "neg":
        # a parenthesized literal keeps '-(2)' distinct from the literal '-2'
        if type(e.args[0]) is Const:
            return f"-({format_expr(e.args[0])})"
        return f"-{format_expr(e.args[0], 6)}"
    if name == "not":
        return f"not {format_expr(e.args[0], 6)}"
    prec = _PRECEDENCE[name]
    left = format_expr(e.args[0], prec)
    right = format_expr(e.args[1], prec + 1)
    text = f"{left} {name} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


def _shown(e: Expr) -> str:
    """``e`` for an error message: its text, or its ``repr`` when a number
    in it (NaN, an infinity) has no literal."""
    try:
        return format_expr(e)
    except StructuralError:
        return repr(e)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Process(_FrozenNode):
    __slots__ = ()

    def __str__(self) -> str:
        from .process_text import format_process

        return format_process(self)


@dataclass(frozen=True)
class Prefix(Process):
    """(e1,...,en -> x1,...,xn).cont -- evaluate, write, continue."""

    exprs: tuple
    targets: tuple
    cont: Process

    __slots__ = ("exprs", "targets", "cont")

    def __post_init__(self):
        if len(self.exprs) != len(self.targets):
            raise StructuralError(
                f"prefix has {len(self.exprs)} expressions for {len(self.targets)} targets"
            )


@dataclass(frozen=True)
class If(Process):
    guard: Expr
    then_p: Process
    else_p: Process

    __slots__ = ("guard", "then_p", "else_p")


@dataclass(frozen=True)
class PChoice(Process):
    branches: tuple  # tuple[tuple[float, Process], ...]

    __slots__ = ("branches",)

    def __post_init__(self):
        # each check is written so that a NaN fails it
        total = 0.0
        for w, _ in self.branches:
            if not w >= 0:
                raise StructuralError(f"choice weight {w} is not a non-negative number")
            total += w
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise StructuralError(f"choice weights sum to {total!r}, expected 1")


@dataclass(frozen=True)
class Interleave(Process):
    left: Process
    p: float
    right: Process

    __slots__ = ("left", "p", "right")

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise StructuralError(f"interleaving probability {self.p} outside [0, 1]")


@dataclass(frozen=True)
class SyncPar(Process):
    left: Process
    right: Process

    __slots__ = ("left", "right")


@dataclass(frozen=True)
class Call(Process):
    name: str

    __slots__ = ("name",)


def tick(cont: Process) -> Prefix:
    """The empty prefix: touches nothing, then behaves as ``cont``."""
    return Prefix((), (), cont)


Definitions = Mapping[str, Process]


# ---------------------------------------------------------------------------
# One-step semantics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepDistribution(_FrozenNode):
    """Finite discrete distribution over (probability, effect, continuation).

    An effect is an ordered tuple of (variable name, value) writes.
    """

    triples: tuple  # tuple[tuple[float, effect, Process], ...]

    __slots__ = ("triples",)

    def __post_init__(self):
        total = 0.0
        for p, _, _ in self.triples:
            if not p > 0:  # NaN fails too
                raise StructuralError(f"step probability {p} must be positive")
            total += p
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise StructuralError(f"step probabilities sum to {total!r}, expected 1")

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


def _merge(triples: list) -> list:
    if len(triples) <= 1:
        return triples
    seen: dict = {}
    order: list = []
    for p, eff, proc in triples:
        key = (eff, proc)
        if key in seen:
            seen[key] += p
        else:
            seen[key] = p
            order.append(key)
    return [(seen[key], key[0], key[1]) for key in order]


def _pstep(P: Process, values, space, defs) -> list:
    t = type(P)
    if t is Prefix:
        eff = tuple(
            (x, _eval(e, values, space)) for e, x in zip(P.exprs, P.targets)
        )
        return [(1.0, eff, P.cont)]
    if t is If:
        g = _eval(P.guard, values, space)
        if g == 1.0:
            return _pstep(P.then_p, values, space, defs)
        if g == 0.0:
            return _pstep(P.else_p, values, space, defs)
        raise SemanticError(f"if-guard '{_shown(P.guard)}' evaluated to {g}, expected 0 or 1")
    if t is PChoice:
        out = []
        for w, branch in P.branches:
            if w == 0.0:
                continue
            for q, eff, proc in _pstep(branch, values, space, defs):
                out.append((w * q, eff, proc))
        return _merge(out)
    if t is Interleave:
        out = []
        p = P.p
        if p > 0.0:
            for q, eff, proc in _pstep(P.left, values, space, defs):
                out.append((p * q, eff, Interleave(proc, p, P.right)))
        if p < 1.0:
            for q, eff, proc in _pstep(P.right, values, space, defs):
                out.append(((1.0 - p) * q, eff, Interleave(P.left, p, proc)))
        return _merge(out)
    if t is SyncPar:
        left = _pstep(P.left, values, space, defs)
        right = _pstep(P.right, values, space, defs)
        if len(left) == 1 and len(right) == 1:
            (p1, e1, c1), (p2, e2, c2) = left[0], right[0]
            return [(p1 * p2, e1 + e2, SyncPar(c1, c2))]
        out = [
            (p1 * p2, e1 + e2, SyncPar(c1, c2))
            for p1, e1, c1 in left
            for p2, e2, c2 in right
        ]
        return _merge(out)
    if t is Call:
        try:
            body = defs[P.name]
        except KeyError:
            raise StructuralError(f"undefined process variable {P.name!r}") from None
        return _pstep(body, values, space, defs)
    raise StructuralError(f"unknown process node {t.__name__}")


def pstep(P: Process, d: DataState, defs: Definitions) -> StepDistribution:
    """One-step distribution of a process in a data state."""
    return StepDistribution(tuple(_pstep(P, d.values, d.space, defs)))


# ---------------------------------------------------------------------------
# Static validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    kind: str  # weight-sum | write-overlap | undefined-process | unguarded-recursion | unknown-variable
    message: str


@dataclass
class ValidationReport:
    issues: list

    @property
    def ok(self) -> bool:
        return not self.issues

    def raise_if_invalid(self, tolerate: Iterable[str] = ()) -> None:
        tolerated = set(tolerate)
        fatal = [i for i in self.issues if i.kind not in tolerated]
        if fatal:
            lines = "; ".join(f"[{i.kind}] {i.message}" for i in fatal)
            raise ProcessValidationError(f"invalid process: {lines}", fatal)


def _subterms(node: Process) -> tuple:
    """The process operands of one node, left to right."""
    t = type(node)
    if t is Prefix:
        return (node.cont,)
    if t is If:
        return (node.then_p, node.else_p)
    if t is PChoice:
        return tuple(b for _, b in node.branches)
    if t is Interleave or t is SyncPar:
        return (node.left, node.right)
    return ()


def _nodes(P: Process, defs: Definitions, called: dict | None = None):
    """Every node syntactically reachable from P, in preorder.

    The first call of a defined process variable is followed by the nodes of
    its body; later calls of it are not.  The names called, undefined ones
    too, become the keys of ``called`` in first-visit order.
    """
    called = {} if called is None else called
    stack = [P]
    while stack:
        node = stack.pop()
        yield node
        if type(node) is Call:
            if node.name not in called:
                called[node.name] = None
                if node.name in defs:
                    stack.append(defs[node.name])
        else:
            stack.extend(reversed(_subterms(node)))


def write_set(P: Process, defs: Definitions) -> frozenset:
    """Variables written by any prefix syntactically reachable from P.

    The over-approximation includes prefixes in branches that may be
    unreachable at run time; this is the conservative reading used by the
    disjointness check on synchronous composition.
    """
    return frozenset(x for node in _nodes(P, defs) if type(node) is Prefix
                     for x in node.targets)


def _unguarded_calls(P: Process) -> set:
    """Process variables reachable from P without crossing a prefix."""
    acc: set = set()
    stack = [P]
    while stack:
        node = stack.pop()
        if type(node) is Call:
            acc.add(node.name)
        elif type(node) is not Prefix:  # a prefix guards its continuation
            stack.extend(_subterms(node))
    return acc


def validate(P: Process, defs: Definitions, space: DataSpace) -> ValidationReport:
    """Static checks: weight sums, write disjointness, recursion, variable names.

    An empty report means the process is valid.  Construction of PChoice /
    Interleave nodes already rejects malformed weights, so the weight checks
    here mostly guard hand-built or deserialized trees.
    """
    issues: list = []
    called: dict = {}
    used: set = set()  # variables read or written
    for node in _nodes(P, defs, called):
        if type(node) is Prefix:
            used.update(node.targets)
            for e in node.exprs:
                expr_vars(e, used)
        elif type(node) is If:
            expr_vars(node.guard, used)
    reachable = list(called)

    for name in reachable:
        if name not in defs:
            issues.append(
                ValidationIssue("undefined-process", f"process variable {name!r} has no definition")
            )

    # Unguarded recursion: every definition that can unfold forever, on a
    # cycle of calls that crosses no prefix or on a way into one.  Peel off
    # the definitions whose unguarded calls all go to peeled ones until none
    # is left; what remains unfolds forever.
    graph = {n: _unguarded_calls(defs[n]) & set(defs) for n in defs}
    endless = set(graph)
    peeled = True
    while peeled:
        peeled = {n for n in endless if not graph[n] & endless}
        endless -= peeled

    for n in sorted(set(reachable) & endless):
        issues.append(
            ValidationIssue("unguarded-recursion", f"definition {n!r} can recurse without a prefix")
        )

    bodies = [("<root>", P)] + [(n, defs[n]) for n in reachable if n in defs]
    for where, body in bodies:
        for node in _nodes(body, {}):  # the body alone, not the bodies it calls
            if type(node) is PChoice:
                total = sum(w for w, _ in node.branches)
                if not abs(total - 1.0) <= WEIGHT_TOL:  # NaN fails too
                    issues.append(
                        ValidationIssue("weight-sum", f"choice weights in {where} sum to {total!r}")
                    )
            elif type(node) is SyncPar:
                overlap = write_set(node.left, defs) & write_set(node.right, defs)
                if overlap:
                    issues.append(
                        ValidationIssue(
                            "write-overlap",
                            f"synchronous operands in {where} both write {sorted(overlap)}",
                        )
                    )

    for n in sorted(n for n in used if n not in space):
        issues.append(ValidationIssue("unknown-variable", f"variable {n!r} is not in the data space"))

    return ValidationReport(issues)
