"""Dirac process terms compiled into batched control-state programs.

A configuration whose every reachable step is a Dirac (one support triple,
so no process draw) can be simulated a block of runs at a time without the
interpreter.  The compiler explores the continuations of the process that
can be reached, through both arms of every ``If`` and through ``Call``,
``Prefix``, ``SyncPar`` and the Dirac forms of ``PChoice`` and
``Interleave``.  Guarded recursion keeps that table of control terms finite
(Milner, *A complete inference system for a class of regular behaviours*,
1984); each term gets an integer control id.

The step of a control term is its ``pstep`` tree made data-parallel by
if-conversion (Allen, Kennedy, Porterfield and Warren, *Conversion of
control dependence to data dependence*, POPL 1983).  The compiler lowers
the steps of all its terms, once, into one straight-line Python function
over numpy columns (generated source), and a block holds one control id
per run:

* every expression is one numpy call on the block's pre-step columns and
  constants, evaluated once on every row, even when several terms share it;
* every written column becomes one chain of ``where(rows, value, ...)``
  selects, which applies the writes of every term in effect order (in a
  synchronous composition the right operand's write wins); the terms that
  write the same select tree share one control-id mask;
* the next control ids are one gather from a table built at compile time,
  indexed by control id and the packed bits of the guards that decide the
  continuation (every guard is computed on every row anyway).  Guards read
  by the most terms are packed into every term's segment, as long as the
  table fits in ``_MAX_TABLE`` entries; the rest add a per-term weight, so
  a term's segment spans only the guards it reads itself.  No gather is
  emitted when every term keeps its own id or all move on to one id;
* a select between two constants is a gather from a 2-entry table, and
  every lookup table is read with ``take``;
* the step reads and writes the block through a tuple of its column
  views; it computes every value, failure mask and clamp tally first, and
  only then writes the written columns into the block, which belongs to
  the run alone; nothing copies the whole block.  A value that is a bare
  view of another written column (a swap) is copied first.

A range analysis runs once per expression, when the compiler builds it
(interval abstract interpretation, Cousot and Cousot, POPL 1977).  Every
pre-step row is admissible: within its bounds, a member of its finite set,
and not -0.0 where a bound is +0.0 (``VarSpec.clamp`` and
``DataSpace.clamp_batch`` turn -0.0 into the bound there).  So each
expression gets an interval, a finite value set where there is one, and
whether it can be NaN or -0.0.  The lowered step then leaves out what
cannot act: the clamp of a write that ``VarSpec.clamp`` provably leaves
unchanged bit for bit, the NaN check of a write that cannot be NaN, the
failing-row bookkeeping of a step with no expression that can raise, the
clamp tally of a write that cannot leave the domain, and the
floating-point error state where no expression can overflow or divide by
zero.  A clamp at a zero bound or next to a zero set element turns -0.0
into +0.0 without counting it, so a write that can be -0.0 keeps its clamp
there.  Writes that keep their clamp are clamped by ``DataState.update``'s
rules and counted in ``clamp_events``.  The configuration's environment
kernel then steps the whole block on ``UniformTape`` draws, which are the
draws the interpreter takes, since a Dirac step draws none: in place, with
its ``sample_into`` and the declared clamp, when the kernel steps blocks of
the space in place (``EnvironmentEvolution._steps_in_place``), so the run
keeps one block from its first step to its last; else through ``advance``,
whose result becomes the run's block.

A step where some row fails returns before its first write and is handed
to the interpreter: its block run (``engine._InterpretedRun``) takes the
step again from the untouched block, draw tape and process terms, and
raises the failure.  So the rule for the
least failing row, and its clamp count, exist only in the reference code,
and both paths report the same run, step, message and ``clamp_events``.

The compiler declines with :class:`PreconditionError` and a reason when a
reachable step is not a Dirac by construction, when a ``Call`` is undefined
or recursion is unguarded, when a constant is not a float, when the table
or one step outgrows ``_MAX_TERMS``, when the table of next control ids
outgrows ``_MAX_TABLE`` (as it does for a term whose continuation turns
on 20 or more guards), or when an initial data state of the block is not admissible.
Programs are cached per (process, definitions, data space), compared bit
for bit.  The key of the objects a recent call passed is found by their
identity, without walking them again; a definitions dict changed in place
gets a new key.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from dataclasses import fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .dataspace import DataSpace, clamp_array
from .engine import _InterpretedRun
from .errors import EvoMetricError, PreconditionError
from .process import (
    WEIGHT_TOL,
    Call,
    Const,
    If,
    Interleave,
    Op,
    PChoice,
    Prefix,
    Process,
    SyncPar,
    Var,
    _eval,
)
from .rng import UniformTape

__all__ = ["Program", "program"]

# control terms per program, and outcomes of any one step
_MAX_TERMS = 4096
# (process, definitions, space) triples whose program or decline is kept
_CACHE_SIZE = 32
# entries of the table of next control ids
_MAX_TABLE = 1 << 20
# finite value sets the range analysis keeps track of
_MAX_VALUES = 64

_BOOL_OPS = ("<", "<=", "=", ">", ">=", "and", "or", "not")
_INF = math.inf


def program(c, data=None) -> "Program":
    """The compiled program of a configuration's process, definitions and
    data space; raises :class:`PreconditionError` with the reason when the
    process cannot be compiled or an initial data state is not admissible.
    The initial data states are ``data``, by default ``c.data`` alone."""
    got = _compile(_source(c.process, c.defs, c.space))
    if isinstance(got, str):
        raise PreconditionError(got)
    for d in (c.data,) if data is None else data:
        for spec, v in zip(c.space.vars, d.values):
            if not _admissible(spec, v):
                raise PreconditionError(
                    f"the initial value {v!r} of {spec.name!r} is not admissible")
    return got


class _Recent(NamedTuple):
    src: "_Source"
    names: tuple  # the keys of ``src.defs`` when ``src`` was made
    bodies: tuple  # and its values, compared by identity


# (id(process), id(defs), id(space)) -> _Recent; an entry keeps its objects
# alive, so no other object takes their ids while it is kept
_recent: dict = {}
_recent_lock = threading.Lock()


def _source(process, defs, space) -> "_Source":
    """The cache key of (process, definitions, space).  The key of objects
    passed by a recent call is reused without walking them again: the terms
    and the space are immutable, and ``defs`` must still hold the same
    bodies under the same names."""
    ids = id(process), id(defs), id(space)
    with _recent_lock:
        hit = _recent.get(ids)
    if hit is not None and hit.names == tuple(defs) and all(
            map(operator.is_, hit.bodies, defs.values())):
        return hit.src
    src = _Source(process, defs, space)
    with _recent_lock:
        if len(_recent) >= _CACHE_SIZE:
            del _recent[next(iter(_recent))]
        _recent[ids] = _Recent(src, tuple(defs), tuple(defs.values()))
    return src


class _Source:
    """Cache key: equal when the process, definitions and space are equal
    bit for bit (``==`` would take 0.0 for -0.0)."""

    __slots__ = ("process", "defs", "space", "key", "_hash")

    def __init__(self, process, defs, space):
        self.process, self.defs, self.space = process, defs, space
        self.key = (_exact(process), tuple(sorted((n, _exact(b)) for n, b in defs.items())),
                    _exact(space.vars))
        self._hash = hash(self.key)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return self.key == other.key


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _compile(src: _Source):
    try:
        return _Compiler(src.defs, src.space).build(src.process)
    except PreconditionError as exc:
        return str(exc)


def _exact(x):
    """A hashable key of a term that tells floats apart by their bits."""
    if isinstance(x, float):
        return float, float(x).hex()
    if isinstance(x, (tuple, list)):
        return tuple, tuple(_exact(v) for v in x)
    if is_dataclass(x):
        return type(x), tuple(_exact(getattr(x, f.name)) for f in fields(x))
    return type(x), x


# ---------------------------------------------------------------------------
# Range analysis
# ---------------------------------------------------------------------------


def _admissible(spec, v: float) -> bool:
    """A value the clamps can leave in a column: within the bounds, a member
    of the finite set, and not -0.0 where a bound is +0.0."""
    if not spec.lower <= v <= spec.upper or (spec.values is not None and v not in spec.values):
        return False
    return not (_is_negzero(v) and _zero_bound(spec))


def _is_negzero(v: float) -> bool:
    return v == 0.0 and math.copysign(1.0, v) < 0.0


def _zero_bound(spec) -> bool:
    return any(b == 0.0 and not _is_negzero(b) for b in (spec.lower, spec.upper))


class _Instr(NamedTuple):
    """One expression node.  ``op`` is "const" (``arg`` the value), "var"
    (``arg`` the column), "fail" (evaluation raises on every row) or an
    operator applied to the instructions ``args``.

    The rest is the range analysis over admissible rows: every value that
    does not raise lies in [lo, hi] and, when ``vals`` is set, in ``vals``;
    it can be NaN only if ``nan`` and -0.0 only if ``negzero``."""

    op: str
    args: tuple = ()
    arg: object = None
    is_bool: bool = False  # the value is a bool array (1.0/0.0 to the interpreter)
    fails: bool = False  # evaluation can raise on some row
    lo: float = -_INF
    hi: float = _INF
    vals: frozenset | None = None
    nan: bool = True
    negzero: bool = True
    quiet: bool = True  # numpy raises no floating-point warning evaluating it


_FAILS = _Instr("fail", fails=True)
_BOOLEAN = dict(lo=0.0, hi=1.0, vals=frozenset((0.0, 1.0)), nan=False, negzero=False)
# scalar twins of the operators, for finite value sets
_SCALAR = {"+": operator.add, "-": operator.sub, "*": operator.mul, "min": min, "max": max,
           "abs": abs, "neg": operator.neg}


def _const(v: float) -> _Instr:
    if v != v:
        return _Instr("const", arg=v)
    return _Instr("const", arg=v, lo=v, hi=v, vals=frozenset((v,)), nan=False,
                  negzero=_is_negzero(v))


def _var(col: int, spec) -> _Instr:
    return _Instr("var", arg=col, lo=spec.lower, hi=spec.upper,
                  vals=None if spec.values is None else frozenset(spec.values), nan=False,
                  negzero=spec.lower <= 0.0 <= spec.upper and not _zero_bound(spec))


def _has_zero(k: _Instr) -> bool:
    return k.lo <= 0.0 <= k.hi


def _boolean(k: _Instr) -> bool:
    """Every value is 0 or 1, so ``_as_bool`` accepts it."""
    return k.is_bool or (not k.nan and k.vals is not None and k.vals <= {0.0, 1.0})


def _span(*xs) -> tuple:
    """(lo, hi, nan) of the rounded results at the corners of a box; the
    operators are monotone in each operand, and so is rounding."""
    if any(x != x for x in xs):
        return -_INF, _INF, True
    return min(xs), max(xs), False


def _analyse(name: str, ks: list) -> tuple[dict, bool]:
    """(range fields, whether the operator itself can raise) of an operator
    over operands with the ranges ``ks``."""
    a = ks[0]
    b = ks[1] if len(ks) > 1 else None
    if name in ("and", "or", "not"):
        return _BOOLEAN, not all(_boolean(k) for k in ks)
    if name in _BOOL_OPS:
        return _BOOLEAN, False
    if name == "ite":
        t, f = ks[1], ks[2]
        vals = None if t.vals is None or f.vals is None else t.vals | f.vals
        rng = dict(lo=min(t.lo, f.lo), hi=max(t.hi, f.hi), vals=vals, nan=t.nan or f.nan,
                   negzero=t.negzero or f.negzero)
        return (_BOOLEAN if t.is_bool and f.is_bool else rng), not _boolean(a)
    own = False
    nan = a.nan or (b is not None and b.nan)
    if name == "+":
        lo, hi, bad = _span(a.lo + b.lo, a.hi + b.hi)
        nan = nan or bad or (a.hi == _INF and b.lo == -_INF) or (a.lo == -_INF and b.hi == _INF)
        negzero = a.negzero and b.negzero
    elif name == "-":
        lo, hi, bad = _span(a.lo - b.hi, a.hi - b.lo)
        nan = nan or bad or (a.hi == _INF and b.hi == _INF) or (a.lo == -_INF and b.lo == -_INF)
        negzero = a.negzero and _has_zero(b)
    elif name in ("*", "/"):
        own = name == "/" and _has_zero(b)
        infinite = lambda k: k.lo == -_INF or k.hi == _INF
        if own or (_has_zero(a) and infinite(b)) or (_has_zero(b) and infinite(a)) \
                or (name == "/" and infinite(a) and infinite(b)):
            lo, hi, nan = -_INF, _INF, True
        else:
            f = operator.mul if name == "*" else operator.truediv
            lo, hi, bad = _span(f(a.lo, b.lo), f(a.lo, b.hi), f(a.hi, b.lo), f(a.hi, b.hi))
            nan = nan or bad
        # an exact zero or an underflow: either puts 0 in the rounded span
        negzero = lo <= 0.0 <= hi
    elif name == "min":  # where(b < a, b, a): a on ties and when either is NaN
        lo, hi = min(a.lo, b.lo), a.hi if b.nan else min(a.hi, b.hi)
        nan = a.nan
        negzero = a.negzero or (b.negzero and a.hi > 0.0)
    elif name == "max":  # where(b > a, b, a)
        lo, hi = a.lo if b.nan else max(a.lo, b.lo), max(a.hi, b.hi)
        nan = a.nan
        negzero = a.negzero or (b.negzero and a.lo < 0.0)
    elif name == "sqrt":  # rows of a negative operand raise
        own = a.lo < 0.0
        lo, hi = math.sqrt(max(a.lo, 0.0)), math.sqrt(max(a.hi, 0.0))
        negzero = a.negzero
    elif name == "abs":
        lo = 0.0 if _has_zero(a) else min(abs(a.lo), abs(a.hi))
        hi, negzero = max(abs(a.lo), abs(a.hi)), False
    else:  # neg
        lo, hi, negzero = -a.hi, -a.lo, _has_zero(a)
    vals = None
    scalar = _SCALAR.get(name)
    operands = [k.vals for k in ks]
    if scalar and None not in operands and not any(k.nan for k in ks) \
            and math.prod(map(len, operands)) <= _MAX_VALUES:
        vals = frozenset(scalar(*xs) for xs in itertools.product(*operands))
        if any(v != v for v in vals):
            vals, nan = None, True
    quiet = name in ("min", "max", "abs", "neg") or (
        not own and not nan and -_INF < lo and hi < _INF)
    return dict(lo=lo, hi=hi, vals=vals, nan=nan, negzero=negzero, quiet=quiet), own


def _clamp_idle(k: _Instr, spec) -> bool:
    """``VarSpec.clamp`` leaves every value of ``k`` unchanged, bit for bit
    (NaN is not clamped: it fails)."""
    if not _within(k, spec):
        return False
    # a tie with a zero bound or set element gives the zero of the spec
    zeros = [z for z in (spec.lower, spec.upper) + (spec.values or ()) if z == 0.0]
    return not (zeros and _has_zero(k) and (k.negzero or any(map(_is_negzero, zeros))))


def _within(k: _Instr, spec) -> bool:
    """Every value of ``k`` is in the domain of ``spec``, so clamping it
    changes no value (it may change the sign of a zero)."""
    return spec.lower <= k.lo and k.hi <= spec.upper and (
        spec.values is None or (k.vals is not None and k.vals <= set(spec.values)))


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------

# The step of a control term is a tree of these nodes.


class _Leaf(NamedTuple):
    # (column or None for an unknown variable, instruction), in effect order
    writes: tuple


class _Branch(NamedTuple):
    guard: int
    then: object
    other: object


class _Sync(NamedTuple):
    left: object
    right: object


class _Fail(NamedTuple):
    """A guard that raises on every row that reaches it."""


class _Step(NamedTuple):
    root: object
    next_ids: np.ndarray  # outcome -> control id (-1: never taken)
    # the outcome index as far as it decides the continuation:
    # ("c", k) | ("w", guard, then, else) | ("+", route, k) | ("s", left, n_right, right)
    route: tuple


class _Compiler:
    def __init__(self, defs, space: DataSpace):
        self.defs, self.space = defs, space
        self.instrs: list[_Instr] = []
        self.instr_ids: dict = {}
        self.terms: list[Process] = []
        self.term_ids: dict = {}

    def build(self, root: Process) -> "Program":
        self._term_id(root, _exact(root))
        steps = []
        while len(steps) < len(self.terms):
            node, outcomes, route = self._shape(self.terms[len(steps)], ())
            for prob, cont, _ in outcomes:
                if cont is not None and not (prob > 0.0 and abs(prob - 1.0) <= WEIGHT_TOL):
                    raise PreconditionError(f"a step has probability {prob!r}, not 1")
            next_ids = np.array([self._term_id(cont, key) for _, cont, key in outcomes])
            steps.append(_Step(node, next_ids, route))
        run, source = _Lowering(self.instrs, steps, self.space).build()
        return Program(tuple(self.terms), run, source)

    def _term_id(self, term, key) -> int:
        if term is None:
            return -1
        tid = self.term_ids.get(key)
        if tid is None:
            if len(self.terms) == _MAX_TERMS:
                raise PreconditionError(f"more than {_MAX_TERMS} control terms are reachable")
            tid = self.term_ids[key] = len(self.terms)
            self.terms.append(term)
        return tid

    def _shape(self, P, unfolding: tuple):
        """(node, outcomes, route) of one step of ``P``: the data-parallel
        tree, per outcome (probability, continuation, its exact key) in the
        order the tree numbers them, and the outcome index as far as it
        decides the continuation."""
        t = type(P)
        if t is Prefix:
            writes = tuple((self._column(x), self._instr(e)) for e, x in zip(P.exprs, P.targets))
            return _Leaf(writes), [(1.0, P.cont, _exact(P.cont))], ("c", 0)
        if t is If:
            g = self._instr(P.guard)
            ins = self.instrs[g]
            if ins.op == "const" and ins.arg in (0.0, 1.0):
                return self._shape(P.then_p if ins.arg == 1.0 else P.else_p, unfolding)
            if ins.op in ("const", "fail"):
                return _Fail(), [(1.0, None, None)], ("c", 0)
            a, outs_a, ra = self._shape(P.then_p, unfolding)
            b, outs_b, rb = self._shape(P.else_p, unfolding)
            outcomes = outs_a + outs_b
            self._check_outcomes(len(outcomes))
            route = ("w", g, ra, ("+", rb, len(outs_a)))
            return _Branch(g, a, b), outcomes, _settled(outcomes, route)
        if t is PChoice:
            live = [(w, b) for w, b in P.branches if w != 0.0]
            if len(live) != 1:
                raise PreconditionError(
                    f"a probabilistic choice has {len(live)} branches of non-zero weight")
            (w, branch), = live
            node, outs, route = self._shape(branch, unfolding)
            return node, [(w * q, c, k) for q, c, k in outs], route
        if t is Interleave:
            p = P.p
            if p == 1.0:
                node, outs, route = self._shape(P.left, unfolding)
                right = _exact(P.right)
                return node, [(p * q, c and Interleave(c, p, P.right),
                               (Interleave, (k, _exact(p), right))) for q, c, k in outs], route
            if p == 0.0:
                node, outs, route = self._shape(P.right, unfolding)
                left = _exact(P.left)
                return node, [((1.0 - p) * q, c and Interleave(P.left, p, c),
                               (Interleave, (left, _exact(p), k))) for q, c, k in outs], route
            raise PreconditionError(f"an interleaving moves either side (p = {p!r})")
        if t is SyncPar:
            a, outs_a, ra = self._shape(P.left, unfolding)
            b, outs_b, rb = self._shape(P.right, unfolding)
            self._check_outcomes(len(outs_a) * len(outs_b))
            outcomes = [(p1 * p2, c1 and c2 and SyncPar(c1, c2), (SyncPar, (k1, k2)))
                        for p1, c1, k1 in outs_a for p2, c2, k2 in outs_b]
            return _Sync(a, b), outcomes, _settled(outcomes, ("s", ra, len(outs_b), rb))
        if t is Call:
            if P.name in unfolding:
                raise PreconditionError(f"recursion through {P.name!r} is not guarded")
            if P.name not in self.defs:
                raise PreconditionError(f"process variable {P.name!r} is undefined")
            return self._shape(self.defs[P.name], unfolding + (P.name,))
        raise PreconditionError(f"unknown process node {t.__name__}")

    def _column(self, name: str) -> int | None:
        """The column of a variable; None for an unknown one, whose read or
        write raises on every row that reaches it."""
        return self.space.index(name) if name in self.space else None

    @staticmethod
    def _check_outcomes(n: int) -> None:
        if n > _MAX_TERMS:
            raise PreconditionError(f"a step has more than {_MAX_TERMS} outcomes")

    def _instr(self, e) -> int:
        key = _exact(e)
        i = self.instr_ids.get(key)
        if i is None:
            ins = self._make_instr(e)
            i = self.instr_ids[key] = len(self.instrs)
            self.instrs.append(ins)
        return i

    def _make_instr(self, e) -> _Instr:
        t = type(e)
        if t is Const:
            if not isinstance(e.value, float):
                raise PreconditionError(f"constant {e.value!r} is not a float")
            return _const(float(e.value))
        if t is Var:
            col = self._column(e.name)
            return _FAILS if col is None else _var(col, self.space.vars[col])
        if t is not Op:
            raise PreconditionError(f"unknown expression node {t.__name__}")
        args = tuple(self._instr(a) for a in e.args)
        kinds = [self.instrs[a] for a in args]
        if any(k.op == "fail" for k in kinds):
            return _FAILS
        if all(k.op == "const" for k in kinds):
            # constant operands: the interpreter's own arithmetic, once
            try:
                return _const(_eval(e, (), self.space))
            except EvoMetricError:
                return _FAILS
        name = e.name
        is_bool = name in _BOOL_OPS or (name == "ite" and kinds[1].is_bool and kinds[2].is_bool)
        rng, own = _analyse(name, kinds)
        return _Instr(name, args, is_bool=is_bool, fails=own or any(k.fails for k in kinds), **rng)


def _settled(outcomes: list, route: tuple) -> tuple:
    """``route``, or a constant outcome when every outcome that does not
    fail has the same continuation."""
    keys = [i for i, (_, _, k) in enumerate(outcomes) if k is not None]
    if len({outcomes[i][2] for i in keys}) <= 1:
        return "c", keys[0] if keys else 0
    return route


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Lowering:
    """The source of the step of every control term, over a block whose
    ``ctrl`` holds each row's control id; a local name is emitted once, at
    its first use."""

    def __init__(self, instrs: list, steps: list, space: DataSpace):
        self.instrs, self.steps, self.space = instrs, steps, space
        self.lines: list[str] = []
        self.names: dict = {}
        self.env = {"where": np.where, "logical_and": np.logical_and,
                    "logical_or": np.logical_or, "logical_not": np.logical_not,
                    "sqrt": np.sqrt, "absolute": np.absolute,
                    "minimum": np.minimum, "maximum": np.maximum, "negative": np.negative,
                    "isnan": np.isnan, "zeros": np.zeros, "full": np.full, "float64": np.float64,
                    "clamp": clamp_array}
        self.fail_sources: list[str] = []
        self.tallies: list[str] = []
        self.loud = False

    def _name(self, key, prefix: str, code):
        """The local name of ``key``, emitting ``name = code()`` at its first use."""
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"{prefix}{len(self.names)}"
            self.lines.append(f"{name} = {code()}")
        return name

    def _global(self, value, prefix: str) -> str:
        key = ("global", prefix, value.hex() if isinstance(value, float) else id(value))
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"{prefix}{len(self.names)}"
            self.env[name] = value
        return name

    # -- expressions ---------------------------------------------------------

    def value(self, i: int) -> str:
        ins = self.instrs[i]
        if ins.op == "const":
            return self._global(ins.arg, "k")
        if ins.op == "var":
            return self.pre(ins.arg)
        if ins.op == "fail":
            return "0.0"  # never used: every row reading it fails
        return self._name(("val", i), "x", lambda: self._compute(ins))

    def num(self, i: int) -> str:
        """The value of instruction i as a float."""
        if not self.instrs[i].is_bool:
            return self.value(i)
        return self._name(("num", i), "f", lambda: f"{self.value(i)}.astype(float64)")

    def truth(self, i: int) -> str:
        """Rows where instruction i is 1 (``_as_bool`` true, or ``If`` takes
        the then-arm)."""
        ins = self.instrs[i]
        if ins.is_bool:
            return self.value(i)
        if ins.op == "const":
            return repr(ins.arg == 1.0)
        return self._name(("true", i), "t", lambda: f"{self.value(i)} == 1.0")

    def falsity(self, i: int) -> str:
        """Rows where instruction i is 0."""
        ins = self.instrs[i]
        if ins.op == "const":
            return repr(ins.arg == 0.0)
        code = f"~{self.value(i)}" if ins.is_bool else f"{self.value(i)} == 0.0"
        return self._name(("false", i), "z", lambda: code)

    def _compute(self, ins: _Instr) -> str:
        op, a = ins.op, ins.args
        if not ins.quiet:
            self.loud = True
        if op in ("and", "or"):
            return f"logical_{op}({self.truth(a[0])}, {self.truth(a[1])})"
        if op == "not":
            return f"logical_not({self.truth(a[0])})"
        if op == "ite":  # all three arguments are evaluated, as in the interpreter
            k = [self.instrs[j] for j in a]
            if k[0].op != "const" and k[1].op == k[2].op == "const":
                return self._pick(self.truth(a[0]), k[1].arg, k[2].arg)
            arm = self.value if ins.is_bool else self.num
            return f"where({self.truth(a[0])}, {arm(a[1])}, {arm(a[2])})"
        x = [self.num(j) for j in a]
        if op in ("min", "max"):
            k = [self.instrs[j] for j in a]
            if not any(j.nan or j.negzero for j in k):  # no tie or NaN to tell apart
                return f"{op}imum({x[0]}, {x[1]})"
            # Python's min and max keep the first of equals, and of NaN
            return f"where({x[1]} {'<' if op == 'min' else '>'} {x[0]}, {x[1]}, {x[0]})"
        if op in ("sqrt", "neg", "abs"):
            return f"{ {'abs': 'absolute', 'neg': 'negative'}.get(op, op)}({x[0]})"
        return f"{x[0]} {'==' if op == '=' else op} {x[1]}"

    def error(self, i: int) -> str | None:
        """Rows where evaluating instruction i raises ("True" for all), or
        None where no row can."""
        ins = self.instrs[i]
        if not ins.fails:
            return None
        if ins.op == "fail":
            return "True"
        return self._name(("err", i), "e", lambda: self._compute_error(ins))

    def _compute_error(self, ins: _Instr) -> str:
        op, a = ins.op, ins.args
        parts = [e for e in map(self.error, a) if e is not None]
        k = [self.instrs[j] for j in a]
        if op == "/" and _has_zero(k[1]):
            parts.append(f"({self.num(a[1])} == 0.0)")
        elif op == "sqrt" and k[0].lo < 0.0:
            parts.append(f"({self.num(a[0])} < 0.0)")
        elif op in ("and", "or", "not", "ite"):
            parts += [self.not_boolean(j) for j in (a if op != "ite" else a[:1])
                      if not _boolean(self.instrs[j])]
        return " | ".join(parts)

    def _pick(self, mask: str, then: float, other: float) -> str:
        """``where(mask, then, other)`` of two constants: a gather from a
        2-entry table, which a bool mask indexes as 0 and 1."""
        return f"{self._global(np.array([other, then]), 'T')}.take({mask})"

    def not_boolean(self, i: int) -> str:
        """Rows where instruction i is neither 0 nor 1."""
        return f"logical_not({self.truth(i)} | {self.falsity(i)})"

    # -- control -------------------------------------------------------------

    def members(self, terms: tuple) -> str | None:
        """Rows whose control id is one of ``terms``; None for every row."""
        if len(terms) == len(self.steps):
            return None
        if len(terms) == 1:
            return self._name(("ctrl", terms), "m", lambda: f"ctrl == {terms[0]}")
        table = np.zeros(len(self.steps), dtype=bool)
        table[list(terms)] = True
        return self._name(("ctrl", terms), "m", lambda: f"{self._global(table, 'M')}.take(ctrl)")

    def reach(self, terms: tuple, path: tuple) -> str | None:
        """Rows of ``terms`` whose guards follow ``path``, (guard, taken) pairs."""
        if not path:
            return self.members(terms)
        g, taken = path[-1]
        lit = self.truth(g) if taken else self.falsity(g)
        rest = self.reach(terms, path[:-1])
        if rest is None:
            return lit
        return self._name(("reach", terms, path), "r", lambda: f"{rest} & {lit}")

    def _fail_on(self, terms, path, err: str | None) -> None:
        if err is None:
            return
        rows = self.reach(terms, path)
        self.fail_sources.append(
            err if rows is None else rows if err == "True" else f"{rows} & {err}")

    def _tally(self, terms, path, changed: str | None) -> None:
        rows = self.reach(terms, path)
        if rows is None:
            rows = changed
        elif changed is not None:
            rows = f"{rows} & {changed}"
        self.tallies.append("None" if rows is None else rows)

    def effects(self, tid: int, node, path: tuple) -> None:
        """Emits the error checks and clamp tallies of the writes and guards
        of ``node`` on the rows of term ``tid`` that follow ``path``."""
        terms = (tid,)
        t = type(node)
        if t is _Leaf:
            for col, i in node.writes:
                self._write_effects(terms, path, col, i)
        elif t is _Branch:
            g = node.guard
            self._fail_on(terms, path, self.error(g))
            if not _boolean(self.instrs[g]):
                self._fail_on(terms, path, self.not_boolean(g))
            self.effects(tid, node.then, path + ((g, True),))
            self.effects(tid, node.other, path + ((g, False),))
        elif t is _Sync:
            self.effects(tid, node.left, path)
            self.effects(tid, node.right, path)
        else:  # _Fail
            self._fail_on(terms, path, "True")

    def _write_effects(self, terms, path, col, i: int) -> None:
        """One write of ``DataState.update``: NaN fails, then
        ``VarSpec.clamp``, counted when it changes the value."""
        ins = self.instrs[i]
        if col is None or ins.op == "fail":  # an unknown variable, or no value
            self._fail_on(terms, path, "True")
            return
        self._fail_on(terms, path, self.error(i))
        spec = self.space.vars[col]
        if ins.op == "const":
            if ins.arg != ins.arg:
                self._fail_on(terms, path, "True")
            elif spec.clamp(ins.arg) != ins.arg:
                self._tally(terms, path, None)
            return
        if ins.nan:
            self._fail_on(terms, path, f"isnan({self.num(i)})")
        if not _within(ins, spec):
            self._tally(terms, path, self._name(
                ("changed", i, col), "d", lambda: f"{self.written(i, col)} != {self.num(i)}"))

    def written(self, i: int, col: int) -> str:
        """The value instruction i writes to ``col``, clamped unless the
        clamp provably leaves it unchanged."""
        ins = self.instrs[i]
        spec = self.space.vars[col]
        if ins.op == "const":
            return self._global(self.constant(i, col), "k")
        if ins.op == "fail" or _clamp_idle(ins, spec):
            return self.num(i)
        return self._name(("clamp", i, col), "w",
                          lambda: f"clamp({self.num(i)}, {self._global(spec, 'S')})")

    def constant(self, i: int, col: int) -> float | None:
        """The value constant instruction i writes to ``col`` (a NaN fails,
        so any value stands for it); None when i is not a constant."""
        arg = self.instrs[i].arg
        if self.instrs[i].op != "const":
            return None
        return self.space.vars[col].clamp(arg) if arg == arg else 0.0

    def column(self, col: int, node):
        """The select tree of ``col`` in one term's step: None keeps the
        pre-step value, ("v", i) is a write, ("w", guard, then, else) a
        select."""
        t = type(node)
        if t is _Leaf:
            last = [i for c, i in node.writes if c == col]
            return ("v", last[-1]) if last else None
        if t is _Branch:
            a, b = self.column(col, node.then), self.column(col, node.other)
            return a if a == b else ("w", node.guard, a, b)
        if t is _Sync:  # the right operand's writes win
            return _over(self.column(col, node.right), self.column(col, node.left))
        return None  # _Fail: the row fails

    def select(self, col: int, tree) -> str:
        if tree is None:
            return self.pre(col)
        if tree[0] == "v":
            return self.written(tree[1], col)
        _, g, a, b = tree
        if a is not None and b is not None and a[0] == b[0] == "v":
            then, other = self.constant(a[1], col), self.constant(b[1], col)
            if then is not None and other is not None:
                return self._pick(self.truth(g), then, other)
        return f"where({self.truth(g)}, {self.select(col, a)}, {self.select(col, b)})"

    def pre(self, col: int) -> str:
        """The pre-step values of a column."""
        return self._name(("col", col), "c", lambda: f"cols[{col}]")

    def lower_next_ids(self, nx: _NextIds) -> None:
        """Emits ``nxt``, the next control ids: one gather from the table,
        or none where every term keeps its id or all move on to one."""
        table, index = nx.table, "ctrl"
        if nx.private:
            self.lines.append(f"i = {self._global(nx.base, 'B')}.take(ctrl)")
            for g, w in nx.private.items():
                bit = self.truth(g)
                self.lines.append(f"i += {self._global(w, 'W')}.take(ctrl) * {bit}")
            index = "i"
        for g in nx.shared:
            bit = self.truth(g)
            self.lines.append("i = ctrl * 2" if index == "ctrl" else "i *= 2")
            self.lines.append(f"i += {bit}")
            index = "i"
        if index == "i":
            self.lines.append(f"nxt = {self._global(table, 'N')}.take(i)")
        elif (table == np.arange(len(table))).all():  # every term keeps its own id
            self.lines.append("nxt = ctrl")
        elif (table == table[0]).all():  # every term moves on to one id
            self.lines.append(f"nxt = full(len(ctrl), {table[0]})")
        else:
            self.lines.append(f"nxt = {self._global(table, 'N')}.take(ctrl)")

    # -- the step ------------------------------------------------------------

    def build(self) -> tuple:
        """(the step function, its source).  The function maps (the column
        views of the pre-step block, control ids) to (next control ids,
        failing rows or None, clamped rows per tally).  Unless a row fails,
        it writes the post-step values of the written columns into those
        columns; a step where a row fails leaves the block untouched."""
        steps = self.steps
        for tid, step in enumerate(steps):
            self.effects(tid, step.root, ())

        written = sorted({c for step in steps for c in _written(step.root)})
        selects, writes = [], []
        for col in written:
            groups: dict = {}
            for tid, step in enumerate(steps):
                groups.setdefault(self.column(col, step.root), []).append(tid)
            # the group that keeps the column, else the largest, needs no mask
            order = sorted(groups.items(), key=lambda g: (g[0] is not None, -len(g[1])))
            if len(order) == 1 and order[0][0] is None:
                continue
            # one statement per group, so that many terms nest no deeper
            p, first = f"p{col}", self.select(col, order[0][0])
            if len(order) == 1 and any(first == self.names.get(("col", c)) for c in written
                                       if c != col):
                first += ".copy()"  # a view of a column written before it is read
            selects.append(f"{p} = {first}")
            for tree, terms in order[1:]:
                rows = self.members(tuple(terms))
                selects.append(f"{p} = where({rows}, {self.select(col, tree)}, {p})")
            writes.append(f"cols[{col}][...] = {p}")

        self.lower_next_ids(_next_ids(steps))

        body = self.lines
        if self.fail_sources:
            body += ["fail = zeros(len(ctrl), dtype=bool)"]
            body += [f"fail |= {s}" for s in self.fail_sources]
            # the interpreter takes the step again from the untouched block
            body += ["if fail.any():", "    return nxt, fail, ()"]
        # every value is computed before the first write into the block
        body += selects + writes
        body.append(f"return nxt, None, ({''.join(t + ', ' for t in self.tallies)})")
        if self.loud:
            body = ["with errstate(all='ignore'):"] + ["    " + line for line in body]
            self.env["errstate"] = np.errstate
        source = "def step(cols, ctrl):\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(source, "<compiled step>", "exec"), self.env)
        return self.env["step"], source


class _NextIds(NamedTuple):
    """The next control id of a row is ``table[i]``, at
    ``i = (base[ctrl] + sum of private[g][ctrl] over the private guards g
    that hold) * 2**len(shared) + the bits of the shared guards``, the
    first shared guard highest."""

    table: np.ndarray
    base: np.ndarray
    private: dict  # guard -> weight of each control id (0: its term does not read it)
    shared: list


def _next_ids(steps: list) -> _NextIds:
    """The table of next control ids over the guards that decide some
    term's continuation.  Guards read by the most terms are shared by every
    term's segment while the table fits in ``_MAX_TABLE`` entries; a term's
    segment spans only the private guards it reads itself.  Raises
    :class:`PreconditionError` when no split fits."""
    reads = [_route_guards(step.route) for step in steps]
    union = sorted(set().union(*reads), key=lambda g: (-sum(g in r for r in reads), g))
    for k in range(len(union), -1, -1):
        shared = union[:k]
        private = [sorted(r.difference(shared)) for r in reads]
        sizes = [1 << len(p) for p in private]
        if sum(sizes) << k <= _MAX_TABLE:
            break
    else:
        raise PreconditionError(f"the next control ids of {len(steps)} terms need more "
                                f"than {_MAX_TABLE} table entries")
    base = np.cumsum([0] + sizes[:-1])
    weights = {g: np.zeros(len(steps), dtype=np.intp) for p in private for g in p}
    table = []
    for tid, (step, own) in enumerate(zip(steps, private)):
        order = own + shared  # the bits of the term's segment, highest first
        combos = np.arange(1 << len(order))
        bits = {g: combos >> (len(order) - 1 - j) & 1 == 1 for j, g in enumerate(order)}
        for j, g in enumerate(own):
            weights[g][tid] = 1 << (len(own) - 1 - j)
        table.append(np.broadcast_to(step.next_ids[_outcome(step.route, bits)], combos.shape))
    return _NextIds(np.concatenate(table).astype(np.intp), base, weights, shared)


def _route_guards(r) -> set:
    kind = r[0]
    if kind == "c":
        return set()
    if kind == "+":
        return _route_guards(r[1])
    if kind == "s":
        return _route_guards(r[1]) | _route_guards(r[3])
    return {r[1]} | _route_guards(r[2]) | _route_guards(r[3])


def _outcome(r, bits: dict):
    """The outcome index of a route at every combination of guard bits."""
    kind = r[0]
    if kind == "c":
        return r[1]
    if kind == "+":
        return _outcome(r[1], bits) + r[2]
    if kind == "s":
        return _outcome(r[1], bits) * r[2] + _outcome(r[3], bits)
    return np.where(bits[r[1]], _outcome(r[2], bits), _outcome(r[3], bits))


def _over(top, under):
    """The select tree of ``top`` with its kept rows taken from ``under``."""
    if top is None:
        return under
    if top[0] == "v":
        return top
    return "w", top[1], _over(top[2], under), _over(top[3], under)


def _written(node) -> set:
    t = type(node)
    if t is _Leaf:
        return {c for c, _ in node.writes if c is not None}
    if t is _Branch:
        return _written(node.then) | _written(node.other)
    if t is _Sync:
        return _written(node.left) | _written(node.right)
    return set()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class Program(NamedTuple):
    """The control table of one process and the lowered step of its terms."""

    terms: tuple  # control id -> process term
    # (column views of the block, control ids) -> (next ids, failing rows or
    # None, clamps): the block is written in place, unless a row fails
    run: object
    source: str  # the source of ``run``

    def start(self, c, keys, horizon: int, initial) -> "_ProgramRun":
        """Run i of ``c`` starts from row i of ``initial`` on key i of
        ``keys``, on a draw tape of its own."""
        return _ProgramRun(self, c, UniformTape(keys, len(initial), c.env.draws, horizon), initial)


class _ProgramRun:
    """A block of runs of a program, reading its draws from ``tape``.  The
    built-in models' lockstep shells start it on a tape they build.

    The run owns its block, a private copy of ``initial``, column-major,
    and steps it through ``cols``, the tuple of its column views.  A step
    writes the process's columns into that block; a kernel that steps the
    space in place (``EnvironmentEvolution._steps_in_place``, both built-in
    kernels) then overwrites it with its successors and clamps the declared
    columns, so the block is one array for the whole run.  Any other kernel
    steps a copy through ``advance``, whose fresh result becomes the block,
    with its column views made anew.  Either way a block that
    :meth:`current` or :meth:`step` returns is valid only until the next
    step."""

    def __init__(self, prog: Program, c, tape: UniformTape, initial):
        self.prog, self.c, self.env, self.space, self.tape = prog, c, c.env, c.space, tape
        # column-major (every column is contiguous), and the run's own
        self.vals = np.array(initial, order="F")
        self.cols = tuple(self.vals.T)
        self.ctrl = np.zeros(len(initial), dtype=np.intp)  # the control id of each row
        self.in_place = self.env._steps_in_place(self.space)

    def current(self) -> np.ndarray:
        return self.vals

    def step(self) -> np.ndarray:
        vals, env, space = self.vals, self.env, self.space
        ctrl, fail, clamped = self.prog.run(self.cols, self.ctrl)
        if fail is not None:  # the interpreter finishes the step, from the
            # untouched block, and raises its failure
            terms = self.prog.terms
            _InterpretedRun(self.c, self.tape, vals,
                            [terms[i] for i in self.ctrl.tolist()]).step()
            raise RuntimeError("a compiled step fails where the interpreter's does not")
        if clamped:
            space.clamp_events += sum(
                len(vals) if m is None else int(np.count_nonzero(m)) for m in clamped)
        self.ctrl = ctrl
        u = self.tape.next_step()
        if not self.in_place:
            self.vals = env.advance(vals, u, space)
            self.cols = tuple(self.vals.T)
            return self.vals
        try:
            env.sample_into(vals, u)
        except Exception:  # the kernel wrote nothing: its copying step names
            # the failing row, and raises
            env.advance(vals, u, space)
            raise RuntimeError("an in-place kernel step fails where its copy does not")
        env._clamp(vals, vals, space)
        return vals
