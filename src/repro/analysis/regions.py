"""Symbolic access-region analysis for registered kernel bodies.

An abstract interpreter walks a kernel's AST once and computes, for every
buffer parameter, the set of *symbolic access regions* — per-dimension
:mod:`~repro.analysis.symexpr` expressions in the launch variables
(``thread_idx.x`` … ``grid_dim.z``) and the kernel's scalar parameters,
tightened by the guard masks the body establishes (comparison
conjunctions, ``compress_lanes`` clamps, ``lane_where`` selects — the same
patterns :mod:`repro.graphopt.lower` recognises when it vectorises
guards).  The symbolic summary is launch-independent and memoised on the
kernel function; *concretizing* it against an actual launch and argument
list yields integer index boxes per buffer, which feed four consumers:

* **racecheck** — provably disjoint cross-stream boxes suppress GR201;
  partial overlaps fire ``GR204`` with the exact conflicting interval.
* **verifier/lint** — boxes escaping the buffer extent under a shipped
  launch fire ``KV106``; boxes proven in-bounds discharge syntactic
  ``KV103`` warnings at the same source line.
* **graphopt fusion** — :func:`covers` grants cover-set fusion legality
  when a leader launch reproduces a follower's exact regions.
* **tuning** — :func:`launch_traffic` replaces the heuristic
  bytes-per-thread roofline inputs with exact per-buffer byte counts.

Soundness
---------
The interpreter *over-approximates*: every index a lane can actually
produce lies inside the reported region.  Anything it cannot model — loop
carried variables, calls into helpers, data-dependent indices — degrades
the access to ⊤ (the whole buffer), never to a smaller set.  Disjointness
conclusions drawn from regions are therefore sound.  The opposite
direction (an access *must* go out of bounds) additionally requires the
expression to be endpoint-exact — affine with single-occurrence variables
— and unguarded; only then does ``KV106`` fire as an error.
"""

from __future__ import annotations

import ast
import inspect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.atomics import ATOMIC_FUNCTIONS
from .diagnostics import Diagnostic, Severity
from .symexpr import (
    Add,
    Clamp,
    Const,
    FloorDiv,
    Interval,
    Join,
    LANE_VARS,
    Mul,
    Neg,
    Sub,
    SymExpr,
    Var,
    launch_env,
)
from .verifier import kernel_ast

__all__ = [
    "TensorSpec",
    "RegionAccess",
    "RegionSummary",
    "kernel_regions",
    "ArgRegion",
    "LaunchRegions",
    "concretize_launch",
    "bounds_diagnostics",
    "buffer_region",
    "BufferRegion",
    "region_conflict",
    "launch_traffic",
    "covers",
]

_MASKED_READS = ("masked_gather",)
_MASKED_WRITES = ("masked_store",)
_LANE_BASES = ("thread_idx", "block_idx")
_UNIFORM_BASES = ("block_dim", "grid_dim")
_REDUCTIONS = ("any_lane", "all_lanes")


@dataclass(frozen=True)
class TensorSpec:
    """Shape/dtype stand-in for a tensor argument at analysis time.

    ``Workload.region_probe`` returns these instead of allocating real
    device tensors — the region analysis only consumes shape and element
    size.
    """

    shape: Tuple[int, ...]
    dtype: object = "float64"

    @property
    def elem_bytes(self) -> int:
        sizeof = getattr(self.dtype, "sizeof", None)
        if sizeof is not None:
            return int(sizeof)
        from ..core.dtypes import dtype_from_any
        return int(dtype_from_any(self.dtype).sizeof)


@dataclass(frozen=True)
class RegionAccess:
    """One static access site of a buffer parameter."""

    param: str                       # parameter name
    index: int                       # positional parameter index
    kind: str                        # "r" or "w"
    line: int                        # source line (file coordinates)
    exprs: Optional[Tuple[SymExpr, ...]]   # per-dim index; None = ⊤
    guarded: bool                    # a lane guard/clamp dominates the site
    exact: bool                      # interval endpoints are achieved


@dataclass(frozen=True)
class RegionSummary:
    """Launch-independent symbolic access summary of one kernel body."""

    kernel: str
    source: str
    params: Tuple[str, ...]
    accesses: Tuple[RegionAccess, ...]
    analyzable: bool
    reasons: Tuple[str, ...] = ()


# --------------------------------------------------------------------------
# abstract values
# --------------------------------------------------------------------------

class _Opaque:
    """Value the interpreter cannot bound (⊤ element)."""

    __slots__ = ()


_OPAQUE = _Opaque()


class _Dim3Val:
    """Result of ``global_idx()`` — attribute access composes the axes."""

    __slots__ = ()

    def axis(self, name: str) -> SymExpr:
        return Add(Var(f"thread_idx.{name}"),
                   Mul(Var(f"block_idx.{name}"), Var(f"block_dim.{name}")))


class _MaskVal:
    """A parsed guard mask: per-name inclusive-lo / exclusive-hi bounds."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: Dict[str, List[Tuple[Optional[SymExpr],
                                                    Optional[SymExpr]]]]):
        self.bounds = bounds

    def merged(self, other: "_MaskVal") -> "_MaskVal":
        out: Dict[str, List] = {k: list(v) for k, v in self.bounds.items()}
        for name, pairs in other.bounds.items():
            out.setdefault(name, []).extend(pairs)
        return _MaskVal(out)

    def key(self) -> Tuple:
        return tuple(sorted(
            (name, tuple((None if lo is None else lo.key(),
                          None if hi is None else hi.key())
                         for lo, hi in pairs))
            for name, pairs in self.bounds.items()))


def _expr_vars(expr: SymExpr, out: List[str]) -> None:
    if isinstance(expr, Var):
        out.append(expr.name)
    elif isinstance(expr, (Add, Sub, Mul, FloorDiv, Join)):
        _expr_vars(expr.left, out)
        _expr_vars(expr.right, out)
    elif isinstance(expr, Neg):
        _expr_vars(expr.operand, out)
    elif isinstance(expr, Clamp):
        _expr_vars(expr.operand, out)
        if expr.lo is not None:
            _expr_vars(expr.lo, out)
        if expr.hi is not None:
            _expr_vars(expr.hi, out)


def _has_lane_vars(expr: SymExpr) -> bool:
    names: List[str] = []
    _expr_vars(expr, names)
    return any(n in LANE_VARS for n in names)


def _has_approx_nodes(expr: SymExpr) -> bool:
    if isinstance(expr, (Clamp, Join)):
        return True
    if isinstance(expr, (Add, Sub, Mul, FloorDiv)):
        return _has_approx_nodes(expr.left) or _has_approx_nodes(expr.right)
    if isinstance(expr, Neg):
        return _has_approx_nodes(expr.operand)
    return False


def _endpoint_exact(expr: SymExpr) -> bool:
    """True when the interval endpoints are achieved by actual lanes.

    Holds for clamp/join-free expressions in which no variable occurs
    twice (monotone affine combinations of independently-ranged
    variables): the extreme of each variable is realised by some lane, so
    the interval endpoint is a real index.
    """
    if _has_approx_nodes(expr):
        return False
    names: List[str] = []
    _expr_vars(expr, names)
    lane = [n for n in names if n in LANE_VARS]
    return len(lane) == len(set(lane))


# --------------------------------------------------------------------------
# the abstract interpreter
# --------------------------------------------------------------------------

class _RegionInterp:
    def __init__(self, kernel: str, source: str, params: Sequence[str]):
        self.kernel = kernel
        self.source = source
        self.params = tuple(params)
        self.param_pos = {p: i for i, p in enumerate(self.params)}
        self.env: Dict[str, object] = {p: Var(p) for p in self.params}
        self.mask_stack: List[_MaskVal] = []
        self.guard_depth = 0          # unparsed lane-dependent guards
        self.tail_guarded = False     # an early lane return dominates
        self.accesses: List[RegionAccess] = []
        self.reasons: List[str] = []
        self._stopped = False

    # ------------------------------------------------------------ helpers
    def _reason(self, msg: str) -> None:
        if msg not in self.reasons:
            self.reasons.append(msg)

    def _param_of(self, node) -> Optional[str]:
        """Parameter name a subscript base refers to, if any."""
        if isinstance(node, ast.Name):
            if node.id in self.param_pos:
                return node.id
            val = self.env.get(node.id)
            if isinstance(val, Var) and val.name in self.param_pos:
                return val.name
        return None

    def _guarded_now(self) -> bool:
        return bool(self.mask_stack) or self.guard_depth > 0 \
            or self.tail_guarded

    def _active_bounds(self, name: str):
        pairs: List[Tuple[Optional[SymExpr], Optional[SymExpr]]] = []
        for mask in self.mask_stack:
            pairs.extend(mask.bounds.get(name, ()))
        return pairs

    def _lookup(self, name: str) -> object:
        val = self.env.get(name, _OPAQUE)
        if isinstance(val, SymExpr):
            for lo, hi in self._active_bounds(name):
                val = Clamp(val, lo, hi)
        return val

    # ----------------------------------------------------- access recording
    def _record(self, param: str, kind: str, index_node, line: int,
                extra_mask: Optional[_MaskVal] = None,
                force_guarded: bool = False) -> None:
        pos = self.param_pos[param]
        if extra_mask is not None:
            self.mask_stack.append(extra_mask)
        try:
            comps = index_node.elts if isinstance(index_node, ast.Tuple) \
                else [index_node]
            exprs: Optional[List[SymExpr]] = []
            for comp in comps:
                val = self._eval(comp)
                if not isinstance(val, SymExpr):
                    exprs = None
                    break
                exprs.append(val)
        finally:
            if extra_mask is not None:
                self.mask_stack.pop()
        guarded = force_guarded or self._guarded_now() \
            or extra_mask is not None \
            or (exprs is not None and
                any(_has_approx_nodes(e) for e in exprs))
        exact = True
        if exprs is not None:
            exact = all(_endpoint_exact(e) for e in exprs)
        self.accesses.append(RegionAccess(
            param=param, index=pos, kind=kind, line=line,
            exprs=None if exprs is None else tuple(exprs),
            guarded=guarded, exact=exact))

    def _record_top(self, param: str, kind: str, line: int) -> None:
        self.accesses.append(RegionAccess(
            param=param, index=self.param_pos[param], kind=kind, line=line,
            exprs=None, guarded=True, exact=False))

    # ------------------------------------------------------- mask parsing
    def _parse_compare(self, node: ast.Compare,
                       negate: bool = False) -> Optional[_MaskVal]:
        if len(node.ops) != 1 or len(node.comparators) != 1:
            return None
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        name_side, expr_side, flipped = None, None, False
        if isinstance(left, ast.Name) and isinstance(self.env.get(left.id),
                                                     SymExpr):
            name_side, expr_side = left.id, right
        elif isinstance(right, ast.Name) and \
                isinstance(self.env.get(right.id), SymExpr):
            name_side, expr_side, flipped = right.id, left, True
        else:
            return None
        bound = self._eval(expr_side)
        if not isinstance(bound, SymExpr):
            return None
        kind = type(op)
        if flipped:
            kind = {ast.Lt: ast.Gt, ast.Gt: ast.Lt,
                    ast.LtE: ast.GtE, ast.GtE: ast.LtE}.get(kind, kind)
        if negate:
            kind = {ast.Lt: ast.GtE, ast.GtE: ast.Lt,
                    ast.Gt: ast.LtE, ast.LtE: ast.Gt}.get(kind)
            if kind is None:
                return None
        one = Const(1.0)
        if kind is ast.Lt:          # name < bound
            pair = (None, bound)
        elif kind is ast.LtE:       # name <= bound  →  name < bound+1
            pair = (None, Add(bound, one))
        elif kind is ast.Gt:        # name > bound   →  name >= bound+1
            pair = (Add(bound, one), None)
        elif kind is ast.GtE:       # name >= bound
            pair = (bound, None)
        elif kind is ast.Eq and not negate:
            pair = (bound, Add(bound, one))
        else:
            return None
        return _MaskVal({name_side: [pair]})

    def _parse_mask(self, node) -> Optional[_MaskVal]:
        """Parse a guard expression into per-name bounds.

        Conjunctions keep every conjunct that parses (dropping a conjunct
        only widens the mask — sound).
        """
        if isinstance(node, ast.Compare):
            return self._parse_compare(node)
        if isinstance(node, ast.Name):
            val = self.env.get(node.id)
            return val if isinstance(val, _MaskVal) else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            a = self._parse_mask(node.left)
            b = self._parse_mask(node.right)
            if a is None:
                return b
            return a if b is None else a.merged(b)
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            masks = [m for m in (self._parse_mask(v) for v in node.values)
                     if m is not None]
            if not masks:
                return None
            out = masks[0]
            for m in masks[1:]:
                out = out.merged(m)
            return out
        return None

    # -------------------------------------------------- expression eval
    def _eval(self, node) -> object:
        """Abstract value of an expression; records buffer reads met."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return _OPAQUE
            if isinstance(node.value, (int, float)):
                return Const(node.value)
            return _OPAQUE
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and \
                    base.id in _LANE_BASES + _UNIFORM_BASES and \
                    node.attr in ("x", "y", "z"):
                return Var(f"{base.id}.{node.attr}")
            inner = self._eval(base)
            if isinstance(inner, _Dim3Val) and node.attr in ("x", "y", "z"):
                return inner.axis(node.attr)
            return _OPAQUE
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.BitAnd):
                mask = self._parse_mask(node)
                if mask is not None:
                    return mask
            left = self._eval(node.left)
            right = self._eval(node.right)
            if isinstance(left, SymExpr) and isinstance(right, SymExpr):
                if isinstance(node.op, ast.Add):
                    return Add(left, right)
                if isinstance(node.op, ast.Sub):
                    return Sub(left, right)
                if isinstance(node.op, ast.Mult):
                    return Mul(left, right)
                if isinstance(node.op, ast.FloorDiv):
                    return FloorDiv(left, right)
            return _OPAQUE
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                inner = self._eval(node.operand)
                return Neg(inner) if isinstance(inner, SymExpr) else _OPAQUE
            if isinstance(node.op, ast.Not):
                self._eval(node.operand)
                return _OPAQUE
            return _OPAQUE
        if isinstance(node, ast.Compare):
            mask = self._parse_compare(node)
            if mask is not None:
                return mask
            self._eval(node.left)
            for comp in node.comparators:
                self._eval(comp)
            return _OPAQUE
        if isinstance(node, ast.BoolOp):
            mask = self._parse_mask(node)
            if mask is not None:
                return mask
            for v in node.values:
                self._eval(v)
            return _OPAQUE
        if isinstance(node, ast.Subscript):
            param = self._param_of(node.value)
            if param is not None:
                self._record(param, "r", node.slice, node.lineno)
            else:
                self._eval(node.value)
                self._eval(node.slice)
            return _OPAQUE
        if isinstance(node, ast.Tuple):
            for elt in node.elts:
                self._eval(elt)
            return _OPAQUE
        if isinstance(node, ast.IfExp):
            mask = self._parse_mask(node.test)
            then = self._eval_masked(node.body, mask)
            other = self._eval(node.orelse)
            if isinstance(then, SymExpr) and isinstance(other, SymExpr):
                return Join(then, other)
            return _OPAQUE
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        # unknown expression form: walk for nested accesses, give up on value
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._eval(child)
        return _OPAQUE

    def _eval_masked(self, node, mask: Optional[_MaskVal]) -> object:
        if mask is None:
            return self._eval(node)
        self.mask_stack.append(mask)
        try:
            return self._eval(node)
        finally:
            self.mask_stack.pop()

    def _callee(self, node: ast.Call) -> str:
        fn = node.func
        if isinstance(fn, ast.Name):
            return fn.id
        if isinstance(fn, ast.Attribute):
            return fn.attr
        return ""

    def _eval_call(self, node: ast.Call) -> object:
        name = self._callee(node)
        args = node.args
        if name == "global_idx" and not args:
            return _Dim3Val()
        if name in _REDUCTIONS:
            for a in args:
                self._eval(a)
            return _OPAQUE
        if name == "lane_where" and len(args) == 3:
            mask = self._parse_mask(args[0])
            neg = self._parse_compare(args[0], negate=True) \
                if isinstance(args[0], ast.Compare) else None
            then = self._eval_masked(args[1], mask)
            other = self._eval_masked(args[2], neg)
            if isinstance(then, SymExpr) and isinstance(other, SymExpr):
                return Join(then, other)
            return _OPAQUE
        if name in _MASKED_READS and len(args) >= 3:
            param = self._param_of(args[0])
            mask = self._parse_mask(args[2])
            if param is not None:
                self._record(param, "r", args[1], node.lineno,
                             extra_mask=mask, force_guarded=True)
            else:
                self._eval(args[0])
                self._eval_masked(args[1], mask)
            for a in args[3:]:
                self._eval(a)
            return _OPAQUE
        if name in _MASKED_WRITES and len(args) >= 4:
            param = self._param_of(args[0])
            mask = self._parse_mask(args[3])
            self._eval(args[2])
            if param is not None:
                self._record(param, "w", args[1], node.lineno,
                             extra_mask=mask, force_guarded=True)
            else:
                self._eval(args[0])
                self._eval_masked(args[1], mask)
            return _OPAQUE
        if name in ATOMIC_FUNCTIONS and len(args) >= 2:
            param = self._param_of(args[0])
            for a in args[2:]:
                self._eval(a)
            if param is not None:
                # read-modify-write on the same cell
                self._record(param, "r", args[1], node.lineno)
                self._record(param, "w", args[1], node.lineno)
            else:
                self._eval(args[0])
                self._eval(args[1])
            return _OPAQUE
        if name in ("int", "float", "abs") and len(args) == 1:
            inner = self._eval(args[0])
            return inner if isinstance(inner, SymExpr) else _OPAQUE
        if name == "compress_lanes":
            # value position (not the canonical tuple-assign): lanes only
            # narrow, so the uncompressed value is a sound over-approximation
            mask = self._parse_mask(args[0]) if args else None
            if len(args) == 2:
                return self._eval_masked(args[1], mask)
            for a in args[1:]:
                self._eval_masked(a, mask)
            return _OPAQUE
        # unknown callee (helpers, shared_array, appends …)
        for a in args:
            self._eval(a)
        for kw in node.keywords:
            self._eval(kw.value)
        return _OPAQUE

    # ---------------------------------------------------- statement walk
    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            if self._stopped:
                return
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        handler = getattr(self, f"_stmt_{type(node).__name__}", None)
        if handler is not None:
            handler(node)
            return
        if isinstance(node, (ast.Pass, ast.Break, ast.Continue,
                             ast.Global, ast.Nonlocal, ast.Import,
                             ast.ImportFrom)):
            return
        # unsupported statement: opaque its targets, record any buffer
        # touches inside as ⊤ so the summary stays an over-approximation
        self._reason(f"unsupported statement {type(node).__name__} "
                     f"at line {getattr(node, 'lineno', 0)}")
        self._opaque_subtree(node)

    def _opaque_subtree(self, node) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                self.env[sub.id] = _OPAQUE
            elif isinstance(sub, ast.Subscript):
                param = self._param_of(sub.value)
                if param is not None:
                    kind = "w" if isinstance(sub.ctx, ast.Store) else "r"
                    self._record_top(param, kind, sub.lineno)
            elif isinstance(sub, ast.Call):
                callee = self._callee(sub)
                target = sub.args[0] if sub.args else None
                param = self._param_of(target) if target is not None else None
                if param is not None:
                    if callee in _MASKED_WRITES or callee in ATOMIC_FUNCTIONS:
                        self._record_top(param, "w", sub.lineno)
                        self._record_top(param, "r", sub.lineno)
                    elif callee in _MASKED_READS:
                        self._record_top(param, "r", sub.lineno)

    def _assign_name(self, name: str, value_node) -> None:
        if isinstance(value_node, ast.Call) and \
                self._callee(value_node) == "compress_lanes":
            mask = self._parse_mask(value_node.args[0]) \
                if value_node.args else None
            vals = value_node.args[1:]
            if len(vals) == 1:
                self.env[name] = self._clamped(vals[0], mask)
                return
        val = self._eval(value_node)
        self.env[name] = val if isinstance(val, (SymExpr, _MaskVal,
                                                 _Dim3Val)) else _OPAQUE

    def _clamped(self, node, mask: Optional[_MaskVal]) -> object:
        """Value of *node* permanently narrowed by *mask* (compress_lanes)."""
        val = self._eval(node)
        if not isinstance(val, SymExpr):
            return _OPAQUE
        if mask is not None and isinstance(node, ast.Name):
            for lo, hi in mask.bounds.get(node.id, ()):
                val = Clamp(val, lo, hi)
        return val

    def _stmt_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                self._assign_name(target.id, node.value)
                return
            if isinstance(target, ast.Tuple) and \
                    all(isinstance(t, ast.Name) for t in target.elts):
                if isinstance(node.value, ast.Call) and \
                        self._callee(node.value) == "compress_lanes" and \
                        len(node.value.args) == len(target.elts) + 1:
                    mask = self._parse_mask(node.value.args[0])
                    for tgt, val in zip(target.elts, node.value.args[1:]):
                        self.env[tgt.id] = self._clamped(val, mask)
                    return
                if isinstance(node.value, ast.Tuple) and \
                        len(node.value.elts) == len(target.elts):
                    vals = [self._eval(v) for v in node.value.elts]
                    for tgt, val in zip(target.elts, vals):
                        self.env[tgt.id] = val if isinstance(
                            val, (SymExpr, _MaskVal, _Dim3Val)) else _OPAQUE
                    return
                self._eval(node.value)
                for tgt in target.elts:
                    self.env[tgt.id] = _OPAQUE
                return
            if isinstance(target, ast.Subscript):
                param = self._param_of(target.value)
                self._eval(node.value)
                if param is not None:
                    self._record(param, "w", target.slice, target.lineno)
                else:
                    self._eval(target.value)
                    self._eval(target.slice)
                return
        # multiple / exotic targets
        self._eval(node.value)
        self._opaque_subtree(ast.Module(body=list(node.targets),
                                        type_ignores=[]))

    def _stmt_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        if isinstance(node.target, ast.Name):
            self._assign_name(node.target.id, node.value)
        else:
            self._stmt_Assign(ast.Assign(targets=[node.target],
                                         value=node.value,
                                         lineno=node.lineno))

    def _stmt_AugAssign(self, node: ast.AugAssign) -> None:
        self._eval(node.value)
        if isinstance(node.target, ast.Name):
            base = self._lookup(node.target.id)
            incr = self._eval(node.value)
            if isinstance(base, SymExpr) and isinstance(incr, SymExpr):
                if isinstance(node.op, ast.Add):
                    self.env[node.target.id] = Add(base, incr)
                    return
                if isinstance(node.op, ast.Sub):
                    self.env[node.target.id] = Sub(base, incr)
                    return
            self.env[node.target.id] = _OPAQUE
            return
        if isinstance(node.target, ast.Subscript):
            param = self._param_of(node.target.value)
            if param is not None:
                self._record(param, "r", node.target.slice, node.lineno)
                self._record(param, "w", node.target.slice, node.lineno)
            else:
                self._eval(node.target.value)
                self._eval(node.target.slice)

    def _stmt_Expr(self, node: ast.Expr) -> None:
        self._eval(node.value)

    def _stmt_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._eval(node.value)
        self._stopped = True

    def _stmt_Assert(self, node: ast.Assert) -> None:
        self._eval(node.test)

    # ------------------------------------------------------------ branches
    def _is_early_lane_guard(self, node: ast.If) -> bool:
        """``if not any_lane(m): return`` — the canonical tail guard."""
        test = node.test
        if not (isinstance(test, ast.UnaryOp) and
                isinstance(test.op, ast.Not) and
                isinstance(test.operand, ast.Call) and
                self._callee(test.operand) in _REDUCTIONS):
            return False
        return all(isinstance(s, (ast.Return, ast.Continue, ast.Break))
                   for s in node.body) and not node.orelse

    def _is_uniform_test(self, node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return self._is_uniform_test(node.operand)
        if isinstance(node, ast.Call) and self._callee(node) in _REDUCTIONS:
            return True
        val = self._eval(node)
        if isinstance(val, SymExpr):
            return not _has_lane_vars(val)
        return False

    def _stmt_If(self, node: ast.If) -> None:
        if self._is_early_lane_guard(node):
            return
        mask = self._parse_mask(node.test)
        uniform = mask is None and self._is_uniform_test(node.test)
        lane_guard = not uniform

        saved = dict(self.env)
        saved_depth = self.guard_depth
        if mask is not None:
            self.mask_stack.append(mask)
        elif lane_guard:
            self.guard_depth += 1
        body_stopped = False
        try:
            self.walk(node.body)
            body_stopped = self._stopped
            self._stopped = False
        finally:
            if mask is not None:
                self.mask_stack.pop()
            self.guard_depth = saved_depth
        env_body = self.env

        self.env = dict(saved)
        if lane_guard:
            self.guard_depth += 1
        else_stopped = False
        try:
            if node.orelse:
                self.walk(node.orelse)
                else_stopped = self._stopped
                self._stopped = False
        finally:
            self.guard_depth = saved_depth
        env_else = self.env

        self.env = self._merge_envs(saved, env_body, env_else)
        if body_stopped or else_stopped:
            if lane_guard:
                # some lanes returned early: the tail is implicitly masked
                self.tail_guarded = True
            elif body_stopped and else_stopped:
                self._stopped = True

    @staticmethod
    def _merge_envs(saved: Dict, a: Dict, b: Dict) -> Dict:
        out: Dict[str, object] = {}
        for name in set(a) | set(b):
            va = a.get(name, saved.get(name, _OPAQUE))
            vb = b.get(name, saved.get(name, _OPAQUE))
            if va is vb:
                out[name] = va
            elif isinstance(va, SymExpr) and isinstance(vb, SymExpr):
                out[name] = va if va == vb else Join(va, vb)
            elif isinstance(va, _MaskVal) and isinstance(vb, _MaskVal) and \
                    va.key() == vb.key():
                out[name] = va
            else:
                out[name] = _OPAQUE
        return out

    # --------------------------------------------------------------- loops
    @staticmethod
    def _assigned_names(body: Sequence[ast.stmt]) -> Set[str]:
        names: Set[str] = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and \
                        isinstance(sub.ctx, ast.Store):
                    names.add(sub.id)
                elif isinstance(sub, (ast.For, ast.comprehension)):
                    tgt = sub.target
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
        return names

    def _range_interval(self, node) -> Optional[SymExpr]:
        """``range(n)`` / ``range(a, b)`` loop variable as a clamped value."""
        if not (isinstance(node, ast.Call) and
                self._callee(node) == "range" and
                1 <= len(node.args) <= 2 and not node.keywords):
            return None
        vals = [self._eval(a) for a in node.args]
        if not all(isinstance(v, SymExpr) for v in vals):
            return None
        lo, hi = (Const(0.0), vals[0]) if len(vals) == 1 else vals
        return Clamp(Var("<loop>"), lo, hi)

    def _stmt_For(self, node: ast.For) -> None:
        carried = self._assigned_names(node.body)
        loop_val = self._range_interval(node.iter)
        if loop_val is None:
            self._eval(node.iter)
        target = node.target
        for name in carried:
            self.env[name] = _OPAQUE
        if isinstance(target, ast.Name):
            self.env[target.id] = loop_val if loop_val is not None \
                else _OPAQUE
        else:
            self._opaque_subtree(target)
        self.walk(node.body)
        self._stopped = False
        if node.orelse:
            self.walk(node.orelse)
            self._stopped = False

    def _stmt_While(self, node: ast.While) -> None:
        self._eval(node.test)
        carried = self._assigned_names(node.body)
        for name in carried:
            self.env[name] = _OPAQUE
        self.walk(node.body)
        self._stopped = False
        # one abstract pass only: anything the body rebinds is
        # iteration-dependent and must stay ⊤ afterwards
        for name in carried:
            self.env[name] = _OPAQUE
        if node.orelse:
            self.walk(node.orelse)
            self._stopped = False

    def _stmt_FunctionDef(self, node) -> None:
        self.env[node.name] = _OPAQUE

    _stmt_AsyncFunctionDef = _stmt_FunctionDef


# --------------------------------------------------------------------------
# summaries (launch independent)
# --------------------------------------------------------------------------

def _underlying_fn(kern):
    return getattr(kern, "fn", kern)


def kernel_regions(kern) -> RegionSummary:
    """Symbolic access summary of a kernel body; memoised on the function."""
    fn = _underlying_fn(kern)
    cached = getattr(fn, "_repro_region_summary", None)
    if cached is not None:
        return cached
    name = getattr(kern, "name", None) or getattr(fn, "__name__", "<kernel>")
    summary = _build_summary(fn, name)
    try:
        fn._repro_region_summary = summary
    except (AttributeError, TypeError):  # pragma: no cover - builtins
        pass
    return summary


def _build_summary(fn, name: str) -> RegionSummary:
    fndef = kernel_ast(fn)
    if fndef is None:
        return RegionSummary(kernel=name, source="", params=(),
                             accesses=(), analyzable=False,
                             reasons=("source unavailable",))
    source_file = inspect.getsourcefile(fn) or ""
    params = tuple(a.arg for a in
                   list(fndef.args.posonlyargs) + list(fndef.args.args))
    interp = _RegionInterp(name, source_file, params)
    try:
        interp.walk(fndef.body)
    except RecursionError:  # pragma: no cover - pathological bodies
        return RegionSummary(kernel=name, source=source_file, params=params,
                             accesses=tuple(
                                 RegionAccess(p, i, k, 0, None, True, False)
                                 for i, p in enumerate(params)
                                 for k in ("r", "w")),
                             analyzable=False, reasons=("body too deep",))
    return RegionSummary(kernel=name, source=source_file, params=params,
                         accesses=tuple(interp.accesses), analyzable=True,
                         reasons=tuple(interp.reasons))


# --------------------------------------------------------------------------
# concretization against a launch + argument binding
# --------------------------------------------------------------------------

Box = Tuple[Tuple[int, int], ...]     # inclusive per-dim intervals


@dataclass(frozen=True)
class ArgRegion:
    """Concrete access boxes of one tensor argument under one launch.

    ``reads``/``writes`` are clipped to the buffer extent (what the lanes
    can actually touch) — the form racecheck and the traffic model want.
    ``access_key`` is the *unclipped* per-access fingerprint, which the
    fusion cover check compares: clipping could make two different lane
    populations look identical at the boundary.
    """

    index: int
    param: str
    shape: Tuple[int, ...]
    elem_bytes: int
    reads: Tuple[Box, ...]
    writes: Tuple[Box, ...]
    exact: bool                       # no ⊤ access hit this argument
    access_key: Tuple = ()            # ((kind, line, raw box | None), ...)


@dataclass(frozen=True)
class OOBFinding:
    param: str
    kind: str
    line: int
    dim: int
    lo: int
    hi: int
    extent: int
    guarded: bool


@dataclass(frozen=True)
class LaunchRegions:
    """Concretized regions of one ``(kernel, launch, shapes)`` triple."""

    kernel: str
    source: str
    regions: Tuple[ArgRegion, ...]
    oob: Tuple[OOBFinding, ...]
    proven_lines: frozenset
    unproven_lines: frozenset
    read_bytes: float
    write_bytes: float

    def by_index(self) -> Dict[int, ArgRegion]:
        return {r.index: r for r in self.regions}


def _arg_key(arg) -> Tuple:
    shape = _arg_shape(arg)
    if shape is not None:
        return ("T", shape, _arg_elem_bytes(arg))
    if isinstance(arg, (bool,)):
        return ("S", float(arg))
    if isinstance(arg, (int, float)):
        return ("S", float(arg))
    try:
        import numpy as _np
        if isinstance(arg, _np.generic):
            return ("S", float(arg))
    except Exception:  # pragma: no cover - numpy always present
        pass
    return ("O",)


def _arg_shape(arg) -> Optional[Tuple[int, ...]]:
    if isinstance(arg, TensorSpec):
        return tuple(int(d) for d in arg.shape)
    layout = getattr(arg, "layout", None)
    if layout is not None and hasattr(layout, "shape"):
        return tuple(int(d) for d in layout.shape)
    if hasattr(arg, "freed") and hasattr(arg, "count"):   # DeviceBuffer
        return (int(arg.count),)
    return None


def _arg_elem_bytes(arg) -> int:
    if isinstance(arg, TensorSpec):
        return arg.elem_bytes
    dtype = getattr(arg, "dtype", None)
    sizeof = getattr(dtype, "sizeof", None)
    return int(sizeof) if sizeof is not None else 8


def _launch_key(launch) -> Tuple:
    bd, gd = launch.block_dim, launch.grid_dim
    return (bd.x, bd.y, bd.z, gd.x, gd.y, gd.z)


def concretize_launch(kern, args, launch) -> Optional[LaunchRegions]:
    """Integer access boxes of *kern* under *launch* with *args* bound.

    Memoised per ``(kernel function, launch dims, argument signature)``;
    repeat calls on a hot path reduce to two dict lookups.  Returns
    ``None`` when the body source is unavailable (the caller falls back to
    whole-buffer reasoning).
    """
    fn = _underlying_fn(kern)
    key = (_launch_key(launch), tuple(_arg_key(a) for a in args))
    cache = getattr(fn, "_repro_region_cache", None)
    if cache is None:
        cache = {}
        try:
            fn._repro_region_cache = cache
        except (AttributeError, TypeError):  # pragma: no cover
            return _concretize_uncached(kern, args, launch)
    hit = cache.get(key, False)
    if hit is not False:
        return hit
    result = _concretize_uncached(kern, args, launch)
    if len(cache) > 64:               # sweep-sized launch spaces, bounded
        cache.clear()
    cache[key] = result
    return result


def _concretize_uncached(kern, args, launch) -> Optional[LaunchRegions]:
    fn = _underlying_fn(kern)
    parts = getattr(fn, "_repro_fused_parts", None)
    if parts:
        return _concretize_fused(kern, parts, args, launch)
    summary = kernel_regions(kern)
    if not summary.analyzable:
        return None
    return _concretize_summary(summary, args, launch)


def _concretize_fused(kern, parts, args, launch) -> Optional[LaunchRegions]:
    name = getattr(kern, "name", None) or _underlying_fn(kern).__name__
    merged: Dict[int, ArgRegion] = {}
    oob: List[OOBFinding] = []
    proven: Set = set()
    unproven: Set = set()
    rb = wb = 0.0
    source = ""
    for part, idxs in parts:
        part_args = [args[i] for i in idxs]
        lr = concretize_launch(part, part_args, launch)
        if lr is None:
            return None
        source = source or lr.source
        oob.extend(lr.oob)
        proven.update(lr.proven_lines)
        unproven.update(lr.unproven_lines)
        rb += lr.read_bytes
        wb += lr.write_bytes
        for region in lr.regions:
            pos = idxs[region.index]
            prev = merged.get(pos)
            if prev is None:
                merged[pos] = ArgRegion(
                    index=pos, param=region.param, shape=region.shape,
                    elem_bytes=region.elem_bytes, reads=region.reads,
                    writes=region.writes, exact=region.exact,
                    access_key=region.access_key)
            else:
                merged[pos] = ArgRegion(
                    index=pos, param=prev.param, shape=prev.shape,
                    elem_bytes=prev.elem_bytes,
                    reads=prev.reads + region.reads,
                    writes=prev.writes + region.writes,
                    exact=prev.exact and region.exact
                    and prev.shape == region.shape,
                    access_key=prev.access_key + region.access_key)
    return LaunchRegions(
        kernel=name, source=source,
        regions=tuple(merged[i] for i in sorted(merged)),
        oob=tuple(oob), proven_lines=frozenset(proven - unproven),
        unproven_lines=frozenset(unproven),
        read_bytes=rb, write_bytes=wb)


def _concretize_summary(summary: RegionSummary, args,
                        launch) -> LaunchRegions:
    env = launch_env(launch)
    # uniform range() loop variables carry their bounds as Clamp nodes;
    # the underlying iteration variable itself spans everything
    env["<loop>"] = Interval(float("-inf"), float("inf"))
    shapes: Dict[int, Tuple[int, ...]] = {}
    elems: Dict[int, int] = {}
    for i, (pname, arg) in enumerate(zip(summary.params, args)):
        shape = _arg_shape(arg)
        if shape is not None:
            shapes[i] = shape
            elems[i] = _arg_elem_bytes(arg)
        elif isinstance(arg, (bool, int, float)):
            v = float(arg)
            env[pname] = Interval(v, v)
        else:
            try:
                import numpy as _np
                if isinstance(arg, _np.generic):
                    v = float(arg)
                    env[pname] = Interval(v, v)
            except Exception:  # pragma: no cover
                pass

    reads: Dict[int, List[Box]] = {}
    writes: Dict[int, List[Box]] = {}
    inexact: Set[int] = set()
    keys: Dict[int, List[Tuple]] = {}
    oob: List[OOBFinding] = []
    proven: Set = set()
    unproven: Set = set()
    rb = wb = 0.0

    for acc in summary.accesses:
        if acc.index >= len(args):
            continue
        shape = shapes.get(acc.index)
        if shape is None:
            continue                   # scalar param subscripts: impossible
        elem = elems[acc.index]
        sink = reads if acc.kind == "r" else writes
        box = _concrete_box(acc, shape, env)
        keys.setdefault(acc.index, []).append(
            (acc.kind, acc.line,
             None if box is None else _normalize_box(box)))
        if box is None:
            # ⊤: the whole buffer
            inexact.add(acc.index)
            unproven.add(acc.line)
            whole = tuple((0, d - 1) for d in shape)
            sink.setdefault(acc.index, []).append(whole)
            vol = _box_volume(whole) * elem
            if acc.kind == "r":
                rb += vol
            else:
                wb += vol
            continue
        in_bounds = True
        clipped: List[Tuple[int, int]] = []
        for dim, ((lo, hi), extent) in enumerate(zip(box, shape)):
            if lo > hi:
                clipped = None
                break
            if lo < 0 or hi > extent - 1:
                in_bounds = False
                must = (not acc.guarded) and acc.exact
                entirely_out = hi < 0 or lo > extent - 1
                if must or entirely_out:
                    oob.append(OOBFinding(
                        param=acc.param, kind=acc.kind, line=acc.line,
                        dim=dim, lo=lo, hi=hi, extent=extent,
                        guarded=acc.guarded))
            clo, chi = max(lo, 0), min(hi, extent - 1)
            if clo > chi:
                clipped = None
                break
            clipped.append((clo, chi))
        if in_bounds and clipped is not None:
            proven.add(acc.line)
        else:
            unproven.add(acc.line)
        if clipped is None:            # provably empty lane set
            continue
        cbox = tuple(clipped)
        sink.setdefault(acc.index, []).append(cbox)
        vol = _box_volume(cbox) * elem
        if acc.kind == "r":
            rb += vol
        else:
            wb += vol

    regions = []
    for idx in sorted(shapes):
        regions.append(ArgRegion(
            index=idx, param=summary.params[idx], shape=shapes[idx],
            elem_bytes=elems[idx],
            reads=tuple(reads.get(idx, ())),
            writes=tuple(writes.get(idx, ())),
            exact=idx not in inexact,
            access_key=tuple(keys.get(idx, ()))))
    return LaunchRegions(
        kernel=summary.kernel, source=summary.source,
        regions=tuple(regions), oob=tuple(oob),
        proven_lines=frozenset(proven - unproven),
        unproven_lines=frozenset(unproven),
        read_bytes=rb, write_bytes=wb)


def _concrete_box(acc: RegionAccess, shape: Tuple[int, ...],
                  env) -> Optional[Box]:
    if acc.exprs is None or len(acc.exprs) != len(shape):
        return None
    box: List[Tuple[int, int]] = []
    for expr in acc.exprs:
        iv = expr.interval(env)
        if iv is None or not iv.finite:
            return None
        box.append((int(math.ceil(iv.lo)), int(math.floor(iv.hi))))
    return tuple(box)


def _box_volume(box: Box) -> float:
    vol = 1.0
    for lo, hi in box:
        if hi < lo:
            return 0.0
        vol *= hi - lo + 1
    return vol


def _normalize_box(box: Box) -> Box:
    """Canonicalize empty boxes so equal lane populations compare equal."""
    if any(hi < lo for lo, hi in box):
        return tuple((0, -1) for _ in box)
    return box


# --------------------------------------------------------------------------
# consumers
# --------------------------------------------------------------------------

def bounds_diagnostics(kern, args, launch) -> List[Diagnostic]:
    """KV106 diagnostics for *kern* under one concrete launch."""
    from .verifier import RULE_OOB_ACCESS
    lr = concretize_launch(kern, args, launch)
    if lr is None:
        return []
    diags = []
    seen = set()
    for f in lr.oob:
        key = (f.param, f.kind, f.line, f.dim)
        if key in seen:
            continue
        seen.add(key)
        what = "write" if f.kind == "w" else "read"
        diags.append(Diagnostic(
            rule=RULE_OOB_ACCESS, severity=Severity.ERROR,
            subject=lr.kernel,
            message=(f"{what} of parameter {f.param!r} spans indices "
                     f"[{f.lo}..{f.hi}] in dim {f.dim} but the extent is "
                     f"{f.extent} under launch "
                     f"{_launch_text(launch)}"),
            source=lr.source, line=f.line, category="kernel"))
    return diags


def _launch_text(launch) -> str:
    bd, gd = launch.block_dim, launch.grid_dim
    return (f"grid=({gd.x},{gd.y},{gd.z}) block=({bd.x},{bd.y},{bd.z})")


@dataclass(frozen=True)
class BufferRegion:
    """Merged access boxes one op performs on one buffer."""

    shape: Tuple[int, ...]
    reads: Tuple[Box, ...]
    writes: Tuple[Box, ...]
    exact: bool


def buffer_region(op, buf) -> Optional[BufferRegion]:
    """Region an ``_Op`` touches on *buf*; None = unknown (whole buffer).

    Kernel ops concretize their region summary; transfers and memsets span
    the whole buffer exactly by definition.
    """
    kind = getattr(op, "kind", "")
    meta = getattr(op, "meta", None) or {}
    if kind == "kernel":
        kern, args, launch = (meta.get("kern"), meta.get("args"),
                              meta.get("launch"))
        if kern is None or args is None or launch is None:
            return None
        lr = concretize_launch(kern, args, launch)
        if lr is None:
            return None
        by_index = lr.by_index()
        found = False
        shape: Optional[Tuple[int, ...]] = None
        reads: List[Box] = []
        writes: List[Box] = []
        exact = True
        for i, arg in enumerate(args):
            target = getattr(arg, "device_buffer", arg)
            if target is not buf:
                continue
            region = by_index.get(i)
            if region is None:
                return None
            if shape is None:
                shape = region.shape
            elif shape != region.shape:
                return None           # aliased under different shapes
            found = True
            reads.extend(region.reads)
            writes.extend(region.writes)
            exact = exact and region.exact
        if not found:
            return None               # buffer reached outside the arg list
        return BufferRegion(shape=shape, reads=tuple(reads),
                            writes=tuple(writes), exact=exact)
    count = getattr(buf, "count", None)
    if count is None:
        return None
    whole = ((0, int(count) - 1),)
    if kind == "d2h":
        return BufferRegion(shape=(int(count),), reads=(whole,),
                            writes=(), exact=True)
    if kind in ("h2d", "memset"):
        return BufferRegion(shape=(int(count),), reads=(),
                            writes=(whole,), exact=True)
    return None


def _boxes_intersect(a: Box, b: Box) -> Optional[Box]:
    out = []
    for (alo, ahi), (blo, bhi) in zip(a, b):
        lo, hi = max(alo, blo), min(ahi, bhi)
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def region_conflict(op_a, op_b, buf):
    """Refine a whole-buffer conflict between two ops using regions.

    Returns:

    * ``None`` — no region information; keep the whole-buffer verdict.
    * ``"disjoint"`` — every conflicting access-box pair is disjoint.
    * ``"full"`` — conflicting boxes intersect and every intersecting
      pair is identical (the classic same-region race).
    * ``("partial", box, shape)`` — boxes overlap without coinciding;
      *box* is the widest conflicting interval.
    """
    ra = buffer_region(op_a, buf)
    rb = buffer_region(op_b, buf)
    if ra is None or rb is None or not (ra.exact and rb.exact):
        return None
    if ra.shape != rb.shape:
        return None
    pairs = [(w, o) for w in ra.writes for o in rb.reads + rb.writes]
    pairs += [(o, w) for w in rb.writes for o in ra.reads]
    best: Optional[Box] = None
    identical = True
    for a, b in pairs:
        inter = _boxes_intersect(a, b)
        if inter is None:
            continue
        if a != b:
            identical = False
        if best is None or _box_volume(inter) > _box_volume(best):
            best = inter
    if best is None:
        return "disjoint"
    if identical:
        return "full"
    return ("partial", best, ra.shape)


def box_text(box: Box) -> str:
    """Human-readable inclusive index box, e.g. ``[0..127, 4..4]``."""
    return "[" + ", ".join(f"{lo}..{hi}" for lo, hi in box) + "]"


def launch_traffic(kern, args, launch) -> Optional[Tuple[float, float]]:
    """(read_bytes, write_bytes) the kernel moves under one launch."""
    lr = concretize_launch(kern, args, launch)
    if lr is None:
        return None
    return (lr.read_bytes, lr.write_bytes)


def _all_accesses_regioned(kern, lr: LaunchRegions) -> bool:
    """True when every accessed parameter produced a concrete region."""
    regioned = {r.index for r in lr.regions}
    fn = _underlying_fn(kern)
    parts = getattr(fn, "_repro_fused_parts", None)
    if parts is None:
        parts = ((kern, tuple(range(len(kernel_regions(kern).params)))),)
    for part, idxs in parts:
        summary = kernel_regions(part)
        for acc in summary.accesses:
            if acc.index >= len(idxs) or idxs[acc.index] not in regioned:
                return False
    return True


def covers(kern, args, own, leader) -> bool:
    """Cover-set fusion legality: may *kern* run under *leader*'s launch?

    True when the kernel's concrete access regions are exact and identical
    under its own launch and the leader's (the extra lanes the leader may
    carry are all masked off by the kernel's guards), and the leader
    launch introduces no out-of-bounds access.  Identical regions make the
    substitution observationally equivalent, which is precisely what
    bit-identical replay needs.
    """
    a = concretize_launch(kern, args, own)
    b = concretize_launch(kern, args, leader)
    if a is None or b is None:
        return False
    if a.oob or b.oob:
        return False
    if len(a.regions) != len(b.regions):
        return False
    # every accessed parameter must actually have a concretized region —
    # an access on an argument whose shape we cannot determine is skipped
    # during concretization, and "no information" must not read as "safe"
    if not _all_accesses_regioned(kern, a):
        return False
    for ra, rb in zip(a.regions, b.regions):
        if not (ra.exact and rb.exact):
            return False
        # compare the *unclipped* per-access fingerprints: clipping to the
        # buffer extent could make two different lane populations look the
        # same at the boundary while the leader's extra lanes actually land
        # out of bounds at replay
        if (ra.index, ra.shape, ra.access_key) != \
                (rb.index, rb.shape, rb.access_key):
            return False
    return True
