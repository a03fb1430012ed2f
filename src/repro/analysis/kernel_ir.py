"""The kernel front end: one abstract interpretation of a kernel body.

Every static consumer of a ``@kernel`` body — the verifier
(:mod:`repro.analysis.verifier`), the access-region analysis
(:mod:`repro.analysis.regions`), the lowering tier's slice rule
(:mod:`repro.graphopt.lower`) and the executor's cooperative-mode check —
reads the :class:`KernelIR` built here, once per kernel function, from the
memoised parse.  This module alone decides what a guard means.

The interpreter walks the body once (loop bodies until their loop-carried
taints reach a fixpoint) over a product value:

* a **taint** — ``UNIFORM`` (identical across the lanes of a lane set:
  constants, scalar parameters, ``block_dim`` / ``grid_dim``, lane
  reductions), ``GUARDED`` (lane-varying but bounded: ``compress_lanes``,
  ``lane_where``, masked accessors, values loaded at a guarded index) or
  ``LANE`` (raw ``thread_idx`` / ``block_idx`` arithmetic);
* a **symbolic value** — a :mod:`~repro.analysis.symexpr` expression in the
  launch variables and scalar parameters, a guard :class:`Mask`, the
  ``global_idx()`` triple, a tuple of values, a shared array, or ⊤ (None).
  Names an enclosing guard bounds read back clamped by it.

The IR records the facts its consumers need:

* every buffer and shared-array :class:`Access`, with its taint, symbolic
  index, predicate and barrier phase;
* guard masks as per-name ``[lo, hi)`` bounds, ``exact`` when every
  conjunct of an ``&`` conjunction parsed;
* ``compress_lanes`` clamps, the early ``if not any_lane(m): return``
  guard, and the names bound to a launch axis's global index;
* barriers, lane-guarded returns, lane-dependent control flow and the
  constructs with no SIMT meaning (``print``, ``global``, ``yield`` …);
* the parameters the body uses other than as the tensor of a subscript,
  masked accessor or atomic (``escapes``): a helper call, an alias or a
  closure may index them where no :class:`Access` records it;
* per loop (:class:`Loop`): its :class:`Induction` variable, which the
  regions read as a :class:`~.symexpr.Stride`, and its accumulation
  statements ``x = x + e``; the lowering tier's trip axis and folds take
  both from here, and no other module decides what either is.

Anything the interpreter cannot bound becomes ⊤, never a smaller set, so
the regions read off the IR over-approximate what lanes actually touch.
A guard bounds a name only while the name keeps the value it had when the
guard was entered.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.atomics import ATOMIC_FUNCTIONS
from ..core.intrinsics import SIMT_MODEL
from ..core.memo import Memo
from .symexpr import (Add, Clamp, Const, FloorDiv, Join, LANE_VARS, Mul, Neg,
                      Stride, Sub, SymExpr, Var)

__all__ = ["UNIFORM", "GUARDED", "LANE", "BLOCK_CALLS", "Access", "Induction",
           "KernelIR", "Loop", "Mask",
           "IR_MEMO", "assigned_names", "callee", "kernel_ir", "underlying_fn"]

# taint lattice
UNIFORM, GUARDED, LANE = 0, 1, 2

_LANE_SOURCES = frozenset(SIMT_MODEL["lane_index_sources"])
_UNIFORM_GEOMETRY = frozenset(SIMT_MODEL["uniform_geometry"])
_LANE_INDEX_CALLS = frozenset(SIMT_MODEL["lane_index_calls"])
_REDUCTIONS = frozenset(SIMT_MODEL["lane_reductions"])
_LANE_GUARDS = frozenset(SIMT_MODEL["lane_guards"])
_MASKED_READS = frozenset(SIMT_MODEL["masked_reads"])
_MASKED_WRITES = frozenset(SIMT_MODEL["masked_writes"])
_SHARED_ALLOCATORS = frozenset(SIMT_MODEL["shared_allocators"])
_BARRIERS = frozenset(SIMT_MODEL["barrier_calls"])
#: calls that make a body synchronise or share memory per block
BLOCK_CALLS = _BARRIERS | _SHARED_ALLOCATORS
_ATOMICS = frozenset(ATOMIC_FUNCTIONS)
#: calls whose result is as lane-dependent as their arguments; any other
#: call cannot *unguard* its inputs (bounded in, bounded out)
_TAINT_PRESERVING = frozenset(("range", "len", "int", "float", "abs", "min",
                               "max"))
_AXES = ("x", "y", "z")
_ARITH = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.FloorDiv: FloorDiv}
_FLIP = {ast.Lt: ast.Gt, ast.Gt: ast.Lt, ast.LtE: ast.GtE, ast.GtE: ast.LtE}
_NEGATE = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt}
#: the nodes of a step expression that evaluates with no side effect
_PURE = (ast.Name, ast.Constant, ast.BinOp, ast.UnaryOp, ast.Attribute,
         ast.operator, ast.unaryop, ast.expr_context)


def underlying_fn(kern):
    """The Python function behind a :class:`~repro.core.kernel.Kernel`."""
    return getattr(kern, "fn", kern)


def callee(node: ast.Call) -> str:
    """A call target's short name (``barrier`` for ``intrinsics.barrier``)."""
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    return f.attr if isinstance(f, ast.Attribute) else ""


def assigned_names(body) -> set:
    """Every name a statement list binds (loop targets included)."""
    return {sub.id for node in body for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}


#: statements that bind no name outside their nested statement lists
_NON_BINDING = (ast.If, ast.While, ast.Expr, ast.Return, ast.Pass, ast.Break,
                ast.Continue, ast.Assert, ast.Global, ast.Nonlocal)


def _scan(body, loops: Dict, bodies: Dict) -> Tuple[set, list]:
    """Names a statement list binds and its statements, nested ones
    included; records each loop body's in *loops* and *bodies*."""
    names, stmts = set(), list(body)
    for stmt in body:
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.For)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            names |= assigned_names(targets)
        elif not isinstance(stmt, _NON_BINDING):
            names |= assigned_names([stmt])
        for field in ("body", "orelse", "handlers", "finalbody"):
            sub = getattr(stmt, field, None)
            if isinstance(sub, list) and sub:
                inner, nested = _scan(sub, loops, bodies)
                names |= inner
                stmts += nested
                if field == "body" and isinstance(stmt, (ast.For, ast.While)):
                    loops[stmt], bodies[stmt] = inner, nested
    return names, stmts


def _global_index(axis: str) -> SymExpr:
    """``thread_idx.A + block_idx.A * block_dim.A``: a launch axis's index."""
    return Add(Var(f"thread_idx.{axis}"),
               Mul(Var(f"block_idx.{axis}"), Var(f"block_dim.{axis}")))


def _index_axis(sym) -> Optional[str]:
    """The axis whose global index *sym* is (either operand order), if any."""
    if not isinstance(sym, Add):
        return None
    for axis in _AXES:
        thread = Var(f"thread_idx.{axis}")
        block, dim = Var(f"block_idx.{axis}"), Var(f"block_dim.{axis}")
        for scaled in (Mul(block, dim), Mul(dim, block)):
            if {sym.left.key(), sym.right.key()} == {thread.key(),
                                                      scaled.key()}:
                return axis
    return None


class Mask:
    """A guard: per-name inclusive-lo / exclusive-hi ``SymExpr`` bounds.

    ``exact`` is set when every conjunct of an ``&`` conjunction parsed
    (dropping a conjunct only widens the mask, which is sound for regions
    but not for code generation).  ``neg`` is the complement of a single
    comparison, used for the false arm of ``lane_where``.  ``entries``
    holds each bounded name's env entry when the comparison ran: the
    bound holds for that value only.
    """

    __slots__ = ("bounds", "exact", "neg", "entries")

    def __init__(self, bounds, exact: bool = True, neg=None, entries=None):
        self.bounds = bounds
        self.exact = exact
        self.neg = neg
        self.entries = entries or {}

    def key(self) -> Tuple:
        return tuple(sorted(
            (name, tuple((None if lo is None else lo.key(),
                          None if hi is None else hi.key())
                         for lo, hi in pairs))
            for name, pairs in self.bounds.items()))


def _conjoin(syms, elementwise: bool) -> Optional[Mask]:
    """The conjunction of the masks among *syms* (None when there is none)."""
    masks = [s for s in syms if isinstance(s, Mask)]
    if not masks:
        return None
    bounds: Dict[str, list] = {}
    entries: Dict[str, object] = {}
    for m in masks:
        for name, pairs in m.bounds.items():
            bounds.setdefault(name, []).extend(pairs)
            # two values of one name: the bound holds for neither alone
            entry = m.entries.get(name)
            entries[name] = entry if entries.get(name, entry) is entry \
                else object()
    return Mask(bounds, elementwise and len(masks) == len(syms)
                and all(m.exact for m in masks), entries=entries)


def _bound_pair(op, bound: SymExpr):
    one = Const(1.0)
    return {ast.Lt: (None, bound), ast.LtE: (None, Add(bound, one)),
            ast.Gt: (Add(bound, one), None), ast.GtE: (bound, None),
            ast.Eq: (bound, Add(bound, one))}.get(op)


def _expr_vars(expr: SymExpr, out: List[str]) -> None:
    if isinstance(expr, Var):
        out.append(expr.name)
    for child in ("left", "right", "operand", "lo", "hi"):
        sub = getattr(expr, child, None)
        if isinstance(sub, SymExpr):
            _expr_vars(sub, out)


def _approx(expr: SymExpr) -> bool:
    """Does *expr* contain a clamp, a join or a stride (a bound that lanes
    need not reach)?"""
    if isinstance(expr, (Clamp, Join, Stride)):
        return True
    return any(_approx(sub) for sub in (getattr(expr, c, None)
                                        for c in ("left", "right", "operand"))
               if isinstance(sub, SymExpr))


def _endpoint_exact(expr: SymExpr) -> bool:
    """True when the interval endpoints are achieved by actual lanes.

    Holds for clamp/join-free expressions in which no lane variable occurs
    twice (monotone affine combinations of independently-ranged variables).
    """
    if _approx(expr):
        return False
    names: List[str] = []
    _expr_vars(expr, names)
    lane = [n for n in names if n in LANE_VARS]
    return len(lane) == len(set(lane))


class _Dim3:
    """The ``global_idx()`` triple: attribute access gives one axis."""


class _Shared:
    """A block shared array (``shared_array`` / ``stack_allocation``)."""


_DIM3, _SHARED = _Dim3(), _Shared()


@dataclass(frozen=True)
class Access:
    """One static access site of a buffer parameter or a shared array."""

    param: str                       # parameter (or shared-array) name
    index: Optional[int]             # positional parameter; None = shared
    kind: str                        # "r" or "w"
    line: int                        # source line (file coordinates)
    exprs: Optional[Tuple[SymExpr, ...]]   # per-dim index; None = ⊤
    guarded: bool                    # a lane guard/clamp dominates the site
    exact: bool                      # interval endpoints are achieved
    taint: int = LANE                # taint of the index
    #: a predicate bounds the index: a masked accessor, or an enclosing
    #: lane-dependent test mentions one of the index's names
    covered: bool = True
    mask: Optional[ast.expr] = None  # the resolved predicate expression
    node: Optional[ast.expr] = None  # the index expression
    phase: int = 0                   # barrier-delimited phase


@dataclass(frozen=True)
class Induction:
    """A loop's induction variable: the body's only rebinding of *name* is
    its trailing ``name = name + step`` (or ``+=``), *step* uniform and
    loop invariant, so inside the loop *name* is ``start + k * step`` for
    some ``k >= 0``.  *limit* is the exclusive bound of a ``while
    any_lane(name < limit)`` test, None for any other loop."""

    name: str
    step: ast.expr
    limit: Optional[SymExpr]


@dataclass(frozen=True)
class Loop:
    """What the front end knows about one ``for`` or ``while`` loop."""

    induction: Optional[Induction]
    #: the body's ``x = x + e`` statements (nested ones included), x a name
    #: or a slot ``x[k]`` of a local sequence (the lowering tier resolves k)
    accumulations: frozenset


@dataclass(frozen=True, eq=False)
class KernelIR:
    """What the front end knows about one kernel body."""

    fndef: ast.FunctionDef
    source: str
    params: Tuple[str, ...]          # positional parameters, in order
    accesses: Tuple[Access, ...]
    #: (line, enclosing lane-dependent test or None) per ``barrier()``
    barriers: Tuple[Tuple[int, Optional[ast.expr]], ...]
    lane_returns: Tuple[int, ...]    # returns under a lane-dependent test
    #: ("if" | "ifexp" | "while" | "for", line, test) lane-dependent control
    divergence: Tuple[Tuple[str, int, Optional[ast.expr]], ...]
    #: (line, "print" | "global" | "nonlocal" | "yield", names)
    unsafe: Tuple[Tuple[int, str, Tuple[str, ...]], ...]
    axes: Dict[ast.stmt, Tuple[str, str]]    # name = global index of axis
    masks: Dict[ast.stmt, Mask]              # name = guard mask
    #: ``targets = compress_lanes(m, operands)``: (targets, operands, mask)
    clamps: Dict[ast.stmt, Tuple[Tuple[ast.expr, ...], Tuple[ast.expr, ...],
                                 Optional[Mask]]]
    early_guards: Dict[ast.stmt, Optional[Mask]]   # if not any_lane(m): return
    unmodelled: Tuple[str, ...]      # statements read without a model
    #: parameters used other than as an access's tensor (see module doc)
    escapes: frozenset = frozenset()
    analyzable: bool = True
    loops: Dict[ast.stmt, Loop] = field(default_factory=dict)


class _Walk:
    """The abstract interpreter; env maps a name to (taint, sym, def node)."""

    def __init__(self, fndef: ast.FunctionDef):
        args = fndef.args
        self.params = tuple(a.arg for a in args.posonlyargs + args.args)
        self.pos = {p: i for i, p in enumerate(self.params)}
        self.env: Dict[str, tuple] = {p: (UNIFORM, Var(p), None)
                                      for p in self.params}
        for a in args.kwonlyargs:
            self.env[a.arg] = (UNIFORM, None, None)
        #: active masks (clamp name reads), each with the env entries of
        #: the names it bounds when it was entered
        self.masks: List[Tuple[Mask, Dict]] = []
        self.guards: List[tuple] = []    # enclosing (taint, test, lane guard)
        self.tail = False                # an early lane return dominates
        self.stopped = False
        self.phase = 0
        self.records = {k: [] for k in ("accesses", "barriers", "lane_returns",
                                        "divergence", "unsafe", "unmodelled",
                                        "escapes")}
        self.axes: Dict = {}
        self.masks_at: Dict = {}
        self.clamps: Dict = {}
        self.early: Dict = {}
        self.carried: Dict = {}     # loop -> the names its body rebinds
        self.bodies: Dict = {}      # loop -> its body's statements, nested
        _scan(fndef.body, self.carried, self.bodies)
        self.loops: Dict = {}

    # ------------------------------------------------------------ helpers
    def _add(self, kind: str, item) -> None:
        self.records[kind].append(item)

    def _lane_guard(self) -> Optional[ast.expr]:
        return next((test for taint, test, _ in reversed(self.guards)
                     if taint != UNIFORM), None)

    def _guarded(self) -> bool:
        return bool(self.masks) or self.tail \
            or any(lane for _, _, lane in self.guards)

    def _resolve(self, node: Optional[ast.expr]) -> Optional[ast.expr]:
        """Follow simple ``name = expr`` definitions (predicate matching)."""
        for _ in range(6):
            if not isinstance(node, ast.Name):
                break
            defn = self.env.get(node.id, (0, None, None))[2]
            if defn is None:
                break
            node = defn
        return node

    def _covers(self, node: ast.expr) -> bool:
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        return bool(names) and any(
            names & {n.id for n in ast.walk(test) if isinstance(n, ast.Name)}
            for taint, test, _ in self.guards if taint != UNIFORM)

    def _compress(self, node: ast.Call):
        """``compress_lanes(m, *operands)``: ((taint, value), mask).  The
        operands read back clamped by *m*; several give a tuple."""
        tm, m = self.eval(node.args[0])
        mask = m if isinstance(m, Mask) else None
        vals = [self._masked(a, mask) for a in node.args[1:]]
        taint = GUARDED if max([tm] + [t for t, _ in vals]) else UNIFORM
        if len(vals) == 1:
            return (taint, vals[0][1]), mask
        return (taint, tuple((taint, s) for _, s in vals)), mask

    def _enter(self, mask: Mask) -> None:
        self.masks.append((mask, mask.entries))

    def _masked(self, node, mask: Optional[Mask]):
        if mask is None:
            return self.eval(node)
        self._enter(mask)
        try:
            return self.eval(node)
        finally:
            self.masks.pop()

    # ------------------------------------------------------------ buffers
    def _buffer(self, base) -> Optional[Tuple[str, Optional[int]]]:
        """(name, position) of a parameter, (name, None) of a shared array."""
        if not isinstance(base, ast.Name):
            return None
        sym = self.env.get(base.id, (0, None, None))[1]
        if sym is _SHARED:
            return base.id, None
        if isinstance(sym, Var) and sym.name in self.pos:
            return sym.name, self.pos[sym.name]
        return None

    def _index(self, node, mask: Optional[Mask] = None):
        """(taint, per-dimension SymExprs or None) of a subscript index."""
        comps = node.elts if isinstance(node, ast.Tuple) else [node]
        vals = [self._masked(c, mask) for c in comps]
        taint = max((t for t, _ in vals), default=UNIFORM)
        exprs = tuple(s for _, s in vals)
        return taint, (exprs if all(isinstance(s, SymExpr) for s in exprs)
                       else None)

    def _access(self, base, index, kinds, line: int, *, mask_node=None,
                mask: Optional[Mask] = None) -> int:
        """Evaluate an index and record the access; the loaded taint."""
        taint, exprs = self._index(index, mask)
        buf = self._buffer(base)
        if buf is None:
            return max(taint, self.eval(base)[0])
        name, pos = buf
        predicated = mask_node is not None
        if pos is None:
            guard = mask_node if predicated else self._lane_guard()
            resolved = self._resolve(guard)
        else:
            resolved = None
        guarded = predicated or self._guarded() or (
            exprs is not None and any(_approx(e) for e in exprs))
        exact = exprs is None or all(_endpoint_exact(e) for e in exprs)
        covered = predicated or taint != LANE or self._covers(index)
        for kind in kinds:
            self._add("accesses", Access(
                param=name, index=pos, kind=kind, line=line, exprs=exprs,
                guarded=guarded, exact=exact, taint=taint, covered=covered,
                mask=resolved, node=index, phase=self.phase))
        if pos is None:
            return max(taint, GUARDED) if taint else UNIFORM
        return taint

    # -------------------------------------------------------- expressions
    def eval(self, node) -> Tuple[int, object]:
        """(taint, symbolic value) of an expression; records accesses."""
        meth = getattr(self, "_e_" + type(node).__name__, None)
        if meth is not None:
            return meth(node)
        taint = UNIFORM
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taint = max(taint, self.eval(child)[0])
        return taint, None

    def _e_Constant(self, node):
        v = node.value
        return UNIFORM, (Const(v) if isinstance(v, (int, float))
                         and not isinstance(v, bool) else None)

    def _e_Name(self, node):
        entry = self.env.get(node.id, (UNIFORM, None, None))
        taint, sym, _ = entry
        if node.id in _LANE_SOURCES:
            taint = LANE
        elif node.id in _UNIFORM_GEOMETRY:
            taint = UNIFORM
        if isinstance(sym, Var) and sym.name in self.pos:
            self._add("escapes", sym.name)
        if isinstance(sym, SymExpr):
            for mask, entered in self.masks:
                if entered.get(node.id, entry) is not entry:
                    continue        # rebound since the guard was entered
                for lo, hi in mask.bounds.get(node.id, ()):
                    sym = Clamp(sym, lo, hi)
        return taint, sym

    def _e_Attribute(self, node):
        base = node.value
        taint, sym = self.eval(base)
        if node.attr in _AXES:
            if isinstance(base, ast.Name) and \
                    base.id in _LANE_SOURCES | _UNIFORM_GEOMETRY:
                return taint, Var(f"{base.id}.{node.attr}")
            if sym is _DIM3:
                return taint, _global_index(node.attr)
        return taint, None

    def _e_BinOp(self, node):
        (ta, a), (tb, b) = self.eval(node.left), self.eval(node.right)
        taint = max(ta, tb)
        if isinstance(node.op, ast.BitAnd):
            mask = _conjoin((a, b), True)
            if mask is not None:
                return taint, mask
        op = _ARITH.get(type(node.op))
        if op is not None and isinstance(a, SymExpr) \
                and isinstance(b, SymExpr):
            return taint, op(a, b)
        return taint, None

    def _e_UnaryOp(self, node):
        taint, sym = self.eval(node.operand)
        if isinstance(node.op, ast.USub) and isinstance(sym, SymExpr):
            return taint, Neg(sym)
        return taint, None

    def _e_BoolOp(self, node):
        vals = [self.eval(v) for v in node.values]
        taint = max(t for t, _ in vals)
        if isinstance(node.op, ast.And):
            # ``and`` is not elementwise on lane masks: never exact
            return taint, _conjoin([s for _, s in vals], False)
        return taint, None

    def _e_Compare(self, node):
        (ta, a), *rest = [self.eval(n) for n in [node.left,
                                                 *node.comparators]]
        taint = max([ta] + [t for t, _ in rest])
        if len(node.ops) != 1:
            return taint, None
        op, b = type(node.ops[0]), rest[0][1]
        left, right = node.left, node.comparators[0]
        if isinstance(left, ast.Name) and isinstance(a, SymExpr):
            name, bound = left.id, b
        elif isinstance(right, ast.Name) and isinstance(b, SymExpr):
            name, bound, op = right.id, a, _FLIP.get(op, op)
        else:
            return taint, None
        pair = _bound_pair(op, bound) if isinstance(bound, SymExpr) else None
        if pair is None:
            return taint, None
        neg = _bound_pair(_NEGATE.get(op), bound)
        entries = {name: self.env.get(name)}
        return taint, Mask({name: [pair]}, entries=entries, neg=None if neg
                           is None else Mask({name: [neg]}, entries=entries))

    def _e_IfExp(self, node):
        taint, test = self.eval(node.test)
        if taint != UNIFORM:
            self._add("divergence", ("ifexp", node.lineno, node.test))
        # the test guards both arms, exactly like an ``if`` statement
        self.guards.append((taint, node.test, False))
        try:
            tb, body = self._masked(
                node.body, test if isinstance(test, Mask) else None)
            to, other = self.eval(node.orelse)
        finally:
            self.guards.pop()
        sym = Join(body, other) if isinstance(body, SymExpr) \
            and isinstance(other, SymExpr) else None
        return max(taint, tb, to), sym

    def _e_Tuple(self, node):
        vals = tuple(self.eval(e) for e in node.elts)
        return max((t for t, _ in vals), default=UNIFORM), vals

    _e_List = _e_Set = _e_Tuple

    def _e_ListComp(self, node):
        """A comprehension: its targets are ⊤ inside it, never the values
        the enclosing names hold."""
        saved = dict(self.env)
        try:
            taint = UNIFORM
            for gen in node.generators:
                t = self.eval(gen.iter)[0]
                taint = max(taint, t)
                for name in assigned_names([gen.target]):
                    self.env[name] = (t, None, None)
                for cond in gen.ifs:
                    taint = max(taint, self.eval(cond)[0])
            for elt in ("elt", "key", "value"):
                sub = getattr(node, elt, None)
                if sub is not None:
                    taint = max(taint, self.eval(sub)[0])
            return taint, None
        finally:
            self.env = saved

    _e_SetComp = _e_DictComp = _e_GeneratorExp = _e_ListComp

    def _e_Yield(self, node):
        self._add("unsafe", (node.lineno, "yield", ()))
        return self.eval(node.value) if node.value is not None \
            else (UNIFORM, None)

    _e_YieldFrom = _e_Yield

    def _e_NamedExpr(self, node):
        val = self.eval(node.value)
        self._bind(node.target, val, node.value)
        return val

    def _e_Subscript(self, node):
        return self._access(node.value, node.slice, "r", node.lineno), None

    def _e_Call(self, node):
        name, args = callee(node), node.args
        kwargs = [k.value for k in node.keywords]
        if isinstance(node.func, ast.Attribute):
            # the object of a method call: ``t.load(i)`` escapes ``t``
            self.eval(node.func.value)
        if name in _BARRIERS:
            self._add("barriers", (node.lineno, self._lane_guard()))
            self.phase += 1
            return UNIFORM, None
        if name in _LANE_INDEX_CALLS:
            return LANE, (_DIM3 if not args else None)
        if name in _REDUCTIONS:
            for a in args + kwargs:
                self.eval(a)
            return UNIFORM, None
        if name == "lane_where" and len(args) == 3:
            tm, m = self.eval(args[0])
            mask = m if isinstance(m, Mask) else None
            ta, a = self._masked(args[1], mask)
            tb, b = self._masked(args[2], mask and mask.neg)
            sym = Join(a, b) if isinstance(a, SymExpr) \
                and isinstance(b, SymExpr) else None
            return (GUARDED if max(tm, ta, tb) else UNIFORM), sym
        if name == "compress_lanes" and args:
            return self._compress(node)[0]
        if name in _MASKED_READS and len(args) >= 3:
            m = self.eval(args[2])[1]
            self._access(args[0], args[1], "r", node.lineno,
                         mask_node=args[2],
                         mask=m if isinstance(m, Mask) else None)
            for a in args[3:] + kwargs:
                self.eval(a)
            return GUARDED, None
        if name in _MASKED_WRITES and len(args) >= 4:
            for a in [args[2]] + args[4:] + kwargs:
                self.eval(a)
            m = self.eval(args[3])[1]
            self._access(args[0], args[1], "w", node.lineno,
                         mask_node=args[3],
                         mask=m if isinstance(m, Mask) else None)
            return GUARDED, None
        if name in _ATOMICS and len(args) >= 2:
            taint = max((self.eval(a)[0] for a in args[2:] + kwargs),
                        default=UNIFORM)
            # a read-modify-write of one cell (a shared array: one write)
            buf = self._buffer(args[0])
            kinds = "w" if buf is not None and buf[1] is None else "rw"
            taint = max(taint, self._access(args[0], args[1], kinds,
                                            node.lineno))
            return (GUARDED if taint == LANE else taint), None
        if name == "print":
            self._add("unsafe", (node.lineno, "print", ()))
        taint, syms = UNIFORM, []
        for a in args:
            t, s = self.eval(a)
            taint, syms = max(taint, t), syms + [s]
        for kw in node.keywords:
            taint = max(taint, self.eval(kw.value)[0])
        if name in _SHARED_ALLOCATORS:
            return UNIFORM, _SHARED
        if name in _LANE_GUARDS:
            return (GUARDED if taint else UNIFORM), None
        sym = syms[0] if name in ("int", "float", "abs") and len(syms) == 1 \
            and isinstance(syms[0], SymExpr) else None
        if taint == LANE and name not in _TAINT_PRESERVING:
            taint = GUARDED
        return taint, sym

    # ---------------------------------------------------------- statements
    def walk(self, body) -> None:
        for stmt in body:
            if self.stopped:
                return
            meth = getattr(self, "_stmt_" + type(stmt).__name__, None)
            if meth is not None:
                meth(stmt)
            else:
                self._unmodelled(stmt)

    def _unmodelled(self, node) -> None:
        """A statement with no model: its bindings become ⊤, its nested
        expressions and statements are walked in order."""
        self._add("unmodelled", f"unsupported statement "
                                f"{type(node).__name__} at line {node.lineno}")
        for name in assigned_names([node]):
            taint = self.env.get(name, (UNIFORM,))[0]
            self.env[name] = (taint, None, None)
        self._children(node)

    def _children(self, node) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
            elif isinstance(child, ast.stmt):
                self.walk([child])
            else:               # with items, except handlers, match cases
                self._children(child)

    def _stmt_Pass(self, node):
        return

    _stmt_Break = _stmt_Continue = _stmt_Pass
    _stmt_Import = _stmt_ImportFrom = _stmt_Pass

    def _stmt_FunctionDef(self, node):
        # nested helper definitions are opaque; a parameter they close over
        # escapes
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                sym = self.env.get(sub.id, (0, None, None))[1]
                if isinstance(sym, Var) and sym.name in self.pos:
                    self._add("escapes", sym.name)
        self.env[node.name] = (UNIFORM, None, None)

    _stmt_AsyncFunctionDef = _stmt_ClassDef = _stmt_FunctionDef

    def _stmt_Global(self, node):
        self._add("unsafe", (node.lineno, type(node).__name__.lower(),
                             tuple(node.names)))

    _stmt_Nonlocal = _stmt_Global

    def _stmt_Expr(self, node):
        self.eval(node.value)

    def _stmt_Assert(self, node):
        self.eval(node.test)
        if node.msg is not None:
            self.eval(node.msg)

    def _bind(self, target, val, value_node) -> None:
        taint, sym = val
        if isinstance(target, ast.Name):
            self.env[target.id] = (taint, sym, value_node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            n = len(target.elts)
            elts = value_node.elts if isinstance(
                value_node, (ast.Tuple, ast.List)) \
                and len(value_node.elts) == n else [None] * n
            vals = sym if isinstance(sym, tuple) and len(sym) == n \
                else [(taint, None)] * n
            for t, v, node in zip(target.elts, vals, elts):
                self._bind(t, v, node)
        elif isinstance(target, ast.Subscript):
            self._access(target.value, target.slice, "w", target.lineno)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, (taint, None), None)

    def _stmt_Assign(self, node):
        value, target = node.value, node.targets[0]
        if isinstance(value, ast.Call) and callee(value) == "compress_lanes" \
                and value.args:
            val, mask = self._compress(value)
            self.clamps[node] = (
                tuple(target.elts) if isinstance(target, ast.Tuple)
                else (target,), tuple(value.args[1:]), mask)
        else:
            val = self.eval(value)
        for t in node.targets:
            self._bind(t, val, value)
        sym = val[1]
        if isinstance(target, ast.Name) and len(node.targets) == 1:
            axis = _index_axis(sym)
            if axis is not None:
                self.axes[node] = (target.id, axis)
            elif isinstance(sym, Mask):
                self.masks_at[node] = sym

    def _stmt_AnnAssign(self, node):
        if node.value is not None:
            self._stmt_Assign(ast.Assign(
                targets=[node.target], value=node.value, lineno=node.lineno))

    def _stmt_AugAssign(self, node):
        taint, incr = self.eval(node.value)
        target = node.target
        if isinstance(target, ast.Name):
            base_taint = self.env.get(target.id, (UNIFORM,))[0]
            base = self._e_Name(target)[1]
            op = _ARITH.get(type(node.op)) \
                if isinstance(node.op, (ast.Add, ast.Sub)) else None
            sym = op(base, incr) if op is not None and isinstance(
                base, SymExpr) and isinstance(incr, SymExpr) else None
            self.env[target.id] = (max(taint, base_taint), sym, None)
        elif isinstance(target, ast.Subscript):
            buf = self._buffer(target.value)
            kinds = "wr" if buf is not None and buf[1] is None else "rw"
            self._access(target.value, target.slice, kinds, target.lineno)

    def _stmt_Return(self, node):
        if node.value is not None:
            self.eval(node.value)
        if self._lane_guard() is not None:
            self._add("lane_returns", node.lineno)
        self.stopped = True

    def _early_guard(self, node) -> bool:
        """``if not any_lane(m): return`` — record the guard, skip the if."""
        test = node.test
        if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
                and isinstance(test.operand, ast.Call)
                and callee(test.operand) == "any_lane"
                and len(test.operand.args) == 1 and not node.orelse
                and len(node.body) == 1
                and isinstance(node.body[0], ast.Return)
                and node.body[0].value is None):
            return False
        m = self.eval(test.operand.args[0])[1]
        self.early[node] = m if isinstance(m, Mask) else None
        return True

    def _branch(self, body, frame, mask: Optional[Mask]) -> bool:
        """Walk one arm of an ``if``; True when it returned."""
        self.guards.append(frame)
        if mask is not None:
            self._enter(mask)
        try:
            self.walk(body)
        finally:
            self.guards.pop()
            if mask is not None:
                self.masks.pop()
        stopped, self.stopped = self.stopped, False
        return stopped

    def _stmt_If(self, node):
        if self._early_guard(node):
            return
        taint, test = self.eval(node.test)
        mask = test if isinstance(test, Mask) else None
        lane = mask is not None or taint != UNIFORM
        if taint != UNIFORM:
            self._add("divergence", ("if", node.lineno, node.test))
        frame = (taint, node.test, lane)
        saved = dict(self.env)
        body_stop = self._branch(node.body, frame, mask)
        env_body, self.env = self.env, dict(saved)
        else_stop = self._branch(node.orelse, frame, None)
        self.env = _merge(saved, env_body, self.env)
        if body_stop or else_stop:
            if lane:
                self.tail = True    # some lanes returned: the tail is masked
            elif body_stop and else_stop:
                self.stopped = True

    # --------------------------------------------------------------- loops
    def _accumulation(self, node) -> bool:
        """``x = x + e`` with x a name or a slot ``x[k]`` of a local."""
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)):
            return False
        target = node.targets[0]
        base = target.value if isinstance(target, ast.Subscript) else None
        return (isinstance(target, ast.Name) or isinstance(base, ast.Name)
                and base.id not in self.pos) \
            and ast.unparse(node.value.left) == ast.unparse(target)

    def _induction(self, node, accumulations) -> Optional[Tuple[str,
                                                                ast.expr]]:
        """(name, step) of the loop's induction variable, if it has one."""
        last = node.body[-1]
        if isinstance(last, ast.AugAssign) and isinstance(last.op, ast.Add):
            target, step = last.target, last.value
        elif last in accumulations:
            target, step = last.targets[0], last.value.right
        else:
            return None
        if not isinstance(target, ast.Name) or self.carried[node] & {
                n.id for n in ast.walk(step) if isinstance(n, ast.Name)} \
                or not all(isinstance(n, _PURE) for n in ast.walk(step)):
            return None
        stores = [n for n in ast.walk(node) if isinstance(n, ast.Name)
                  and n.id == target.id and isinstance(n.ctx, ast.Store)]
        return (target.id, step) if len(stores) == 1 else None

    def _loop(self, node, head, frame) -> None:
        """Walk a loop body until its carried taints are a fixpoint.

        Carried names enter as ⊤ (their symbolic value changes per
        iteration), an induction variable as its :class:`Stride` from its
        value on entry.  A pass whose exit taints exceed its entry taints
        is rolled back and repeated from the joined taints, so exactly the
        stable pass stays recorded.
        """
        carried = self.carried[node]
        accumulations = frozenset(s for s in self.bodies[node]
                                  if self._accumulation(s))
        induction = self._induction(node, accumulations)
        entry = dict(self.env)
        for name in carried:
            taint, _, defn = entry.get(name, (UNIFORM, None, None))
            entry[name] = (taint, None, defn)
        if induction is not None:
            name, step = induction
            taint, start, defn = self.env.get(name, (UNIFORM, None, None))
            tstep, sym = self.eval(step)
            if tstep != UNIFORM:
                induction = None
            elif isinstance(start, SymExpr) and isinstance(sym, SymExpr):
                entry[name] = (taint, Stride(start, sym), defn)
        mark = {k: len(v) for k, v in self.records.items()}
        state = (self.phase, self.tail)
        while True:
            self.env = dict(entry)
            taint, test = head()
            if frame:
                self.guards.append((taint, node.test, False))
            try:
                self.walk(node.body)
            finally:
                if frame:
                    self.guards.pop()
            self.stopped = False
            grown = [n for n in carried
                     if self.env.get(n, (UNIFORM,))[0] > entry[n][0]]
            if not grown:
                break
            for n in grown:
                entry[n] = (self.env[n][0],) + entry[n][1:]
            for k, v in self.records.items():
                del v[mark[k]:]
            self.phase, self.tail = state
        # a loop may run zero times or break: exit taints join the entry
        # taints, a rebound name is ⊤ afterwards, and an induction variable
        # keeps its entry start + k·s, which holds at every exit
        for n in carried:
            if n in self.env:
                t = max(self.env[n][0], entry[n][0])
                sym = entry[n][1] if induction and n == induction[0] else None
                self.env[n] = (t, sym, self.env[n][2])
        if induction is not None:
            pairs = test.bounds.get(induction[0], ()) if isinstance(
                test, Mask) and test.exact and len(test.bounds) == 1 else ()
            induction = Induction(*induction, pairs[0][1] if len(pairs) == 1
                                  and pairs[0][0] is None else None)
        self.loops[node] = Loop(induction, accumulations)

    def _stmt_For(self, node):
        def head():
            it = node.iter
            if isinstance(it, ast.Call) and callee(it) == "range" \
                    and 1 <= len(it.args) <= 2 and not it.keywords:
                vals = [self.eval(a) for a in it.args]
                taint = max(t for t, _ in vals)
                syms = [s for _, s in vals]
                loop = None
                if all(isinstance(s, SymExpr) for s in syms):
                    lo, hi = (Const(0.0), syms[0]) if len(syms) == 1 \
                        else syms
                    loop = Clamp(Var("<loop>"), lo, hi)
            else:
                taint, loop = self.eval(it)[0], None
            if taint != UNIFORM:
                self._add("divergence", ("for", node.lineno, None))
            self._bind(node.target, (taint, loop), None)
            return taint, None
        self._loop(node, head, False)
        self.walk(node.orelse)
        self.stopped = False

    def _stmt_While(self, node):
        def head():     # the test's taint and the m of any_lane(m)
            test, mask = node.test, None
            if isinstance(test, ast.Call) and callee(test) == "any_lane" \
                    and len(test.args) == 1 and not test.keywords:
                taint, mask = UNIFORM, self.eval(test.args[0])[1]
            else:
                taint = self.eval(test)[0]
            if taint != UNIFORM:
                self._add("divergence", ("while", node.lineno, node.test))
            return taint, mask
        self._loop(node, head, True)
        self.walk(node.orelse)
        self.stopped = False

    # -------------------------------------------------------------- result
    def ir(self, fndef, source: str, analyzable: bool) -> KernelIR:
        r = self.records
        return KernelIR(
            fndef=fndef, source=source, params=self.params,
            accesses=tuple(r["accesses"]), barriers=tuple(r["barriers"]),
            lane_returns=tuple(r["lane_returns"]),
            divergence=tuple(r["divergence"]),
            unsafe=tuple(r["unsafe"]), axes=self.axes,
            masks=self.masks_at, clamps=self.clamps, early_guards=self.early,
            unmodelled=tuple(r["unmodelled"]),
            escapes=frozenset(r["escapes"]), analyzable=analyzable,
            loops=self.loops)


def _merge(saved: Dict, a: Dict, b: Dict) -> Dict:
    """Join two branch environments: taints max, values hull or ⊤."""
    out: Dict[str, tuple] = {}
    missing = (UNIFORM, None, None)
    for name in set(a) | set(b):
        va = a.get(name, saved.get(name, missing))
        vb = b.get(name, saved.get(name, missing))
        if va is vb:
            out[name] = va
            continue
        (ta, sa, da), (tb, sb, db) = va, vb
        if isinstance(sa, SymExpr) and isinstance(sb, SymExpr):
            sym = sa if sa == sb else Join(sa, sb)
        elif sa is sb or (isinstance(sa, Mask) and isinstance(sb, Mask)
                          and sa.key() == sb.key()):
            sym = sa
        else:
            sym = None
        out[name] = (max(ta, tb), sym, da if da is db else None)
    return out


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

#: one front-end IR (and the parse it holds) per kernel function
IR_MEMO = Memo("kernel_ir")


def kernel_ir(kern) -> Optional[KernelIR]:
    """The memoised IR of a kernel (or plain function) body; None when the
    source is unavailable or holds no function definition."""
    fn = underlying_fn(kern)
    return IR_MEMO.get_or_compute(fn, lambda: _build(fn))


def _parse_kernel(fn) -> Optional[ast.FunctionDef]:
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    except (OSError, TypeError, SyntaxError):
        return None
    offset = getattr(getattr(fn, "__code__", None), "co_firstlineno", 1) - 1
    if offset:
        ast.increment_lineno(tree, offset)
    return next((n for n in tree.body
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))),
                None)


def _build(fn) -> Optional[KernelIR]:
    fndef = _parse_kernel(fn)
    if fndef is None:
        return None
    try:
        source = inspect.getsourcefile(fn) or ""
    except TypeError:  # pragma: no cover - exotic callables
        source = ""
    walk = _Walk(fndef)
    try:
        walk.walk(fndef.body)
    except RecursionError:  # pragma: no cover - pathological bodies
        return _Walk(fndef).ir(fndef, source, False)
    return walk.ir(fndef, source, True)
