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
control dependence to data dependence*, POPL 1983).  A block holds one
control id per run.  For each id present, guards and effects are evaluated
column-wise on the block's pre-step values; masks route every row to its
branch, the writes and the next control ids are applied by mask, and an
error or a NaN write counts only on the rows routed to it.  The evaluator
uses the interpreter's float operations in the same order, and writes are
clamped by ``DataState.update``'s rules.  The configuration's environment
kernel then steps the whole block on ``UniformTape`` draws, which are the
draws the interpreter takes, since a Dirac step draws none.

A step where some row fails is finished as the interpreter finishes it: the
environment of the rows before the least failing row r is stepped, then
``pstep`` runs on row r itself and its exception is raised, so both paths
report the same run, step and message.

The compiler declines with :class:`PreconditionError` and a reason when a
reachable step is not a Dirac by construction, when a ``Call`` is undefined
or recursion is unguarded, when a constant is not a float, or when the
table or one step outgrows ``_MAX_TERMS``.  Programs are cached per
(process, definitions, data space), compared bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .dataspace import DataSpace, DataState
from .errors import EvoMetricError, PreconditionError, SimulationError
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
    pstep,
)
from .rng import TAPE_CHUNK_STEPS, UniformTape

__all__ = ["Program", "program"]

# control terms per program, and outcomes of any one step
_MAX_TERMS = 4096
# (process, definitions, space) triples whose program or decline is kept
_CACHE_SIZE = 32

_BOOL_OPS = ("<", "<=", "=", ">", ">=", "and", "or", "not")


def program(c) -> "Program":
    """The compiled program of a configuration's process, definitions and
    data space; raises :class:`PreconditionError` with the reason when the
    process cannot be compiled."""
    got = _compile(_Source(c.process, c.defs, c.space))
    if isinstance(got, str):
        raise PreconditionError(got)
    return got


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
# Compilation
# ---------------------------------------------------------------------------


class _Instr(NamedTuple):
    """One expression node.  ``op`` is "const" (``arg`` the value), "var"
    (``arg`` the column), "fail" (evaluation raises on every row) or an
    operator applied to the instructions ``args``."""

    op: str
    args: tuple = ()
    arg: object = None
    is_bool: bool = False  # the value is a bool array (1.0/0.0 to the interpreter)
    fails: bool = False  # evaluation can raise on some row


# The step of a control term is a tree of these nodes.  ``needs`` marks a
# subtree that writes or can fail on some row: it runs even when the next
# control id does not depend on it.


class _Leaf(NamedTuple):
    # (column or None for an unknown variable, instruction, the clamped
    # value of a constant or None), in effect order
    writes: tuple
    needs: bool


class _Branch(NamedTuple):
    guard: int
    then: object
    other: object
    n_then: int  # outcomes of the then-arm; the else-arm's follow them
    needs: bool


class _Sync(NamedTuple):
    left: object
    right: object
    n_right: int
    needs: bool


class _Fail(NamedTuple):
    """A guard that raises on every row that reaches it."""

    needs: bool = True


class _Step(NamedTuple):
    root: object
    next_ids: np.ndarray  # outcome -> control id (-1: never taken)
    single: int | None  # the control id every outcome leads to, if only one


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
            node, outcomes = self._shape(self.terms[len(steps)], ())
            for prob, cont, _ in outcomes:
                if cont is not None and not (prob > 0.0 and abs(prob - 1.0) <= WEIGHT_TOL):
                    raise PreconditionError(f"a step has probability {prob!r}, not 1")
            next_ids = np.array([self._term_id(cont, key) for _, cont, key in outcomes])
            taken = set(next_ids.tolist()) - {-1}
            steps.append(_Step(node, next_ids, taken.pop() if len(taken) == 1 else None))
        return Program(tuple(self.terms), tuple(steps), tuple(self.instrs))

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
        """(node, outcomes) of one step of ``P``: the data-parallel tree, and
        per outcome (probability, continuation, its exact key), in the order
        the tree numbers them."""
        t = type(P)
        if t is Prefix:
            writes = tuple(self._write(x, e) for e, x in zip(P.exprs, P.targets))
            return _Leaf(writes, bool(writes)), [(1.0, P.cont, _exact(P.cont))]
        if t is If:
            g = self._instr(P.guard)
            ins = self.instrs[g]
            if ins.op == "const" and ins.arg in (0.0, 1.0):
                return self._shape(P.then_p if ins.arg == 1.0 else P.else_p, unfolding)
            if ins.op in ("const", "fail"):
                return _Fail(), [(1.0, None, None)]
            a, outs_a = self._shape(P.then_p, unfolding)
            b, outs_b = self._shape(P.else_p, unfolding)
            outcomes = outs_a + outs_b
            self._check_outcomes(len(outcomes))
            needs = a.needs or b.needs or ins.fails or not ins.is_bool
            return _Branch(g, a, b, len(outs_a), needs), outcomes
        if t is PChoice:
            live = [(w, b) for w, b in P.branches if w != 0.0]
            if len(live) != 1:
                raise PreconditionError(
                    f"a probabilistic choice has {len(live)} branches of non-zero weight")
            (w, branch), = live
            node, outs = self._shape(branch, unfolding)
            return node, [(w * q, c, k) for q, c, k in outs]
        if t is Interleave:
            p = P.p
            if p == 1.0:
                node, outs = self._shape(P.left, unfolding)
                right = _exact(P.right)
                return node, [(p * q, c and Interleave(c, p, P.right),
                               (Interleave, (k, _exact(p), right))) for q, c, k in outs]
            if p == 0.0:
                node, outs = self._shape(P.right, unfolding)
                left = _exact(P.left)
                return node, [((1.0 - p) * q, c and Interleave(P.left, p, c),
                               (Interleave, (left, _exact(p), k))) for q, c, k in outs]
            raise PreconditionError(f"an interleaving moves either side (p = {p!r})")
        if t is SyncPar:
            a, outs_a = self._shape(P.left, unfolding)
            b, outs_b = self._shape(P.right, unfolding)
            self._check_outcomes(len(outs_a) * len(outs_b))
            outcomes = [(p1 * p2, c1 and c2 and SyncPar(c1, c2), (SyncPar, (k1, k2)))
                        for p1, c1, k1 in outs_a for p2, c2, k2 in outs_b]
            return _Sync(a, b, len(outs_b), a.needs or b.needs), outcomes
        if t is Call:
            if P.name in unfolding:
                raise PreconditionError(f"recursion through {P.name!r} is not guarded")
            if P.name not in self.defs:
                raise PreconditionError(f"process variable {P.name!r} is undefined")
            return self._shape(self.defs[P.name], unfolding + (P.name,))
        raise PreconditionError(f"unknown process node {t.__name__}")

    def _write(self, target: str, e):
        col, i = self._column(target), self._instr(e)
        v = self.instrs[i].arg
        if col is None or self.instrs[i].op != "const" or v != v:
            return col, i, None
        return col, i, self.space.vars[col].clamp(v)

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
            return _Instr("const", arg=float(e.value))
        if t is Var:
            col = self._column(e.name)
            return _Instr("fail", fails=True) if col is None else _Instr("var", arg=col)
        if t is not Op:
            raise PreconditionError(f"unknown expression node {t.__name__}")
        args = tuple(self._instr(a) for a in e.args)
        kinds = [self.instrs[a] for a in args]
        if any(k.op == "fail" for k in kinds):
            return _Instr("fail", fails=True)
        if all(k.op == "const" for k in kinds):
            # constant operands: the interpreter's own arithmetic, once
            try:
                return _Instr("const", arg=_eval(e, (), self.space))
            except EvoMetricError:
                return _Instr("fail", fails=True)
        name = e.name
        can_raise = name in ("/", "sqrt") or (
            name in ("and", "or", "not", "ite")
            and any(not k.is_bool for k in (kinds if name != "ite" else kinds[:1])))
        is_bool = name in _BOOL_OPS or (name == "ite" and kinds[1].is_bool and kinds[2].is_bool)
        return _Instr(name, args, is_bool=is_bool,
                      fails=can_raise or any(k.fails for k in kinds))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class Program(NamedTuple):
    """The control table of one process, its steps and their expressions."""

    terms: tuple  # control id -> process term
    steps: tuple  # control id -> _Step
    instrs: tuple  # the _Instr of every guard and written expression

    def start(self, c, n_runs: int, base_key, run_offset: int, horizon: int) -> "_ProgramRun":
        """A block of runs ``run_offset .. run_offset + n_runs - 1`` of ``c``,
        whose process, definitions and space are this program's, to be
        stepped up to ``horizon`` times; same protocol as the models'
        lockstep simulators."""
        return _ProgramRun(self, c, n_runs, base_key, run_offset, horizon)


def _all(mask, other):
    """Conjunction of row masks; None stands for every row."""
    if mask is None:
        return other
    if other is None:
        return mask
    return mask & other


class _ProgramRun:
    def __init__(self, prog: Program, c, n: int, base_key, run_offset: int, horizon: int):
        self.prog, self.env, self.space, self.defs = prog, c.env, c.space, c.defs
        # column-major, as the lockstep runs: every column is contiguous
        self.vals = np.empty((n, len(self.space)), order="F")
        self.vals[:] = c.data.values
        self.ctrl = 0  # the control id of every row, or one per row
        if self.env.draws:
            # a horizon shorter than a chunk draws only the steps it uses
            self.tape = UniformTape(base_key, n, run_offset, self.env.draws,
                                    chunk_steps=max(1, min(TAPE_CHUNK_STEPS, horizon)))
        else:
            self.tape, self.no_draws = None, np.empty((n, 0))

    def current(self) -> np.ndarray:
        return self.vals

    def step(self) -> np.ndarray:
        prog = self.prog
        self.memo = [None] * len(prog.instrs)
        self.errs = [None] * len(prog.instrs)
        self.fail = None  # rows whose process step raises
        self.clamped = []  # row masks, one entry per clamped write
        self.post = self.vals.copy(order="K")
        with np.errstate(all="ignore"):
            if isinstance(self.ctrl, int):
                ctrl = self._step_term(self.ctrl, None)
            else:
                ctrl = np.empty_like(self.ctrl)
                for tid in np.flatnonzero(np.bincount(self.ctrl)).tolist():
                    mask = self.ctrl == tid
                    np.copyto(ctrl, self._step_term(tid, mask), where=mask)
            if not isinstance(ctrl, int) and (ctrl == ctrl[0]).all():
                ctrl = int(ctrl[0])
        u = self.tape.next_step() if self.tape else self.no_draws
        if self.fail is not None:
            self._fail(int(self.fail.argmax()), u)
        self._count_clamps(len(self.vals))
        self.ctrl = ctrl
        self.vals = self.env.advance(self.post, u, self.space)
        return self.vals

    def _step_term(self, tid: int, mask):
        step = self.prog.steps[tid]
        if step.single is not None:
            if step.root.needs:
                self._node(step.root, mask, False)
            return step.single
        out = self._node(step.root, mask, True)
        return step.next_ids[out] if isinstance(out, np.ndarray) else int(step.next_ids[out])

    def _node(self, node, reach, want_out: bool):
        """Applies the writes of ``node`` on the rows ``reach``; returns the
        outcome of each row when ``want_out``."""
        t = type(node)
        if t is _Leaf:
            for col, i, fixed in node.writes:
                self._write(col, i, fixed, reach)
            return 0
        if t is _Branch:
            then_m, else_m = self._guard(node.guard, reach)
            a = self._node(node.then, _all(reach, then_m), want_out) if node.then.needs \
                or want_out else 0
            b = self._node(node.other, _all(reach, else_m), want_out) if node.other.needs \
                or want_out else 0
            if not want_out:
                return 0
            return np.where(then_m, a, b + node.n_then)
        if t is _Sync:
            a = self._node(node.left, reach, want_out)
            b = self._node(node.right, reach, want_out)
            return a * node.n_right + b
        self._flag(reach, True)  # _Fail
        return 0

    def _guard(self, i: int, reach):
        """(then, else) row masks of the guard ``i``; rows where it raises or
        is neither 0 nor 1 fail, as in ``pstep``."""
        g = self._value(i)
        self._flag(reach, self._error(i))
        if self.prog.instrs[i].is_bool:
            return g, ~g
        then_m, else_m = g == 1.0, g == 0.0
        self._flag(reach, ~(then_m | else_m))
        return then_m, else_m

    def _write(self, col, i: int, fixed, reach) -> None:
        """One write of ``DataState.update`` on the rows ``reach``: NaN
        fails, then ``VarSpec.clamp`` (``fixed`` for a constant), counted
        when it changes the value."""
        if col is None:  # an unknown variable
            self._flag(reach, True)
            return
        self._flag(reach, self._error(i))
        v = self._value(i)
        spec = self.space.vars[col]
        dest = self.post[:, col]
        if isinstance(v, float):
            if v != v:
                self._flag(reach, True)
                return
            w = spec.clamp(v) if fixed is None else fixed
            if w != v:
                self.clamped.append(reach)
        else:
            v = _float(v)
            w = _clamp(v, spec)
            changed = w != v  # also true where v is NaN
            if changed.any():
                self._flag(reach, np.isnan(v))
                changed = _all(reach, changed)
                if changed.any():
                    self.clamped.append(changed)
        if reach is None:
            dest[:] = w
        else:
            np.copyto(dest, w, where=reach)

    def _flag(self, reach, err) -> None:
        """Marks the rows of ``reach`` where ``err`` (None: none, True: all) holds."""
        if err is None:
            return
        rows = _all(reach, None if err is True else err)
        if rows is None:
            rows = np.ones(len(self.vals), dtype=bool)
        elif not rows.any():
            return
        self.fail = rows.copy() if self.fail is None else self.fail | rows

    def _count_clamps(self, upto: int) -> None:
        self.space.clamp_events += sum(
            upto if m is None else int(np.count_nonzero(m[:upto])) for m in self.clamped)

    def _fail(self, r: int, u) -> None:
        """Ends a step on which the process of row r, and of no earlier row,
        fails, as ``engine._interpret_steps`` ends it."""
        self._count_clamps(r)
        if r:
            self.env.advance(self.post[:r], u[:r], self.space)
        ctrl = self.ctrl if isinstance(self.ctrl, int) else int(self.ctrl[r])
        d = DataState(self.space, tuple(self.vals[r].tolist()))
        try:
            d.update(pstep(self.prog.terms[ctrl], d, self.defs).triples[0][1])
        except Exception as exc:
            raise SimulationError(str(exc), run=r) from exc
        raise RuntimeError(f"the compiled step fails on row {r}, the interpreter does not")

    # -- expressions ---------------------------------------------------------

    def _value(self, i: int):
        v = self.memo[i]
        if v is None:
            v = self.memo[i] = self._compute(self.prog.instrs[i])
        return v

    def _num(self, i: int):
        return _float(self._value(i))

    def _truth(self, i: int):
        """``_as_bool`` of instruction i where it is 0 or 1."""
        v = self._value(i)
        return v if self.prog.instrs[i].is_bool else v == 1.0

    def _compute(self, ins: _Instr):
        op, a = ins.op, ins.args
        if op == "const":
            return ins.arg
        if op == "var":
            return self.vals[:, ins.arg]
        if op == "fail":
            return 0.0  # never used: every row reading it fails
        if op == "+":
            return self._num(a[0]) + self._num(a[1])
        if op == "-":
            return self._num(a[0]) - self._num(a[1])
        if op == "*":
            return self._num(a[0]) * self._num(a[1])
        if op == "/":
            return self._num(a[0]) / self._num(a[1])
        if op == "min":  # Python's min keeps the first of equals, and of NaN
            x, y = self._num(a[0]), self._num(a[1])
            return np.where(y < x, y, x)
        if op == "max":
            x, y = self._num(a[0]), self._num(a[1])
            return np.where(y > x, y, x)
        if op == "sqrt":
            return np.sqrt(self._num(a[0]))
        if op == "abs":
            return np.abs(self._num(a[0]))
        if op == "neg":
            return np.negative(self._num(a[0]))
        if op == "<":
            return self._num(a[0]) < self._num(a[1])
        if op == "<=":
            return self._num(a[0]) <= self._num(a[1])
        if op == "=":
            return self._num(a[0]) == self._num(a[1])
        if op == ">":
            return self._num(a[0]) > self._num(a[1])
        if op == ">=":
            return self._num(a[0]) >= self._num(a[1])
        if op == "and":
            return np.logical_and(self._truth(a[0]), self._truth(a[1]))
        if op == "or":
            return np.logical_or(self._truth(a[0]), self._truth(a[1]))
        if op == "not":
            return np.logical_not(self._truth(a[0]))
        # ite: all three arguments are evaluated, as in the interpreter
        t, f = self._value(a[1]), self._value(a[2])
        if not ins.is_bool:
            t, f = _float(t), _float(f)
        return np.where(self._truth(a[0]), t, f)

    def _error(self, i: int):
        """Rows where evaluating instruction i raises: None for none, True
        for all, else a row mask."""
        ins = self.prog.instrs[i]
        if not ins.fails:
            return None
        err = self.errs[i]
        if err is None:
            err = self.errs[i] = self._compute_error(ins)
        return err if err is not False else None

    def _compute_error(self, ins: _Instr):
        if ins.op == "fail":
            return True
        err = None
        for j in ins.args:
            err = _any(err, self._error(j))
        op, a = ins.op, ins.args
        if op == "/":
            err = _any(err, _where(self._num(a[1]) == 0.0))
        elif op == "sqrt":
            err = _any(err, _where(self._num(a[0]) < 0.0))
        elif op in ("and", "or", "not", "ite"):
            for j in (a if op != "ite" else a[:1]):
                if not self.prog.instrs[j].is_bool:
                    v = self._value(j)
                    err = _any(err, _where(np.logical_not((v == 1.0) | (v == 0.0))))
        return False if err is None else err


def _float(v):
    return v.astype(np.float64) if isinstance(v, np.ndarray) and v.dtype == bool else v


def _where(cond):
    """A condition, a row mask or a scalar, as an error value: None, True or
    a row mask."""
    if isinstance(cond, np.ndarray):
        return cond
    return True if cond else None


def _any(a, b):
    if a is None or b is True:
        return b
    if b is None or a is True:
        return a
    return a | b


def _clamp(v: np.ndarray, spec) -> np.ndarray:
    """``VarSpec.clamp`` of every entry: the bounds (a bound wins a tie),
    then the nearest element of a finite set, ties downward.  A NaN entry
    comes back different from itself, so the caller finds it among the
    changed entries."""
    lo, hi = spec.lower, spec.upper
    w = np.where(v <= lo, lo, v)
    w = np.where(w >= hi, hi, w)
    if spec.values is not None:
        best = np.full_like(w, spec.values[0])
        gap = np.abs(w - spec.values[0])
        for cand in spec.values[1:]:
            g = np.abs(w - cand)
            closer = g < gap
            best = np.where(closer, cand, best)
            gap = np.where(closer, g, gap)
        w = best
    return w
