"""AST-based verification of ``@kernel`` bodies against the SIMT model.

The verifier parses a kernel's source with :mod:`ast` and walks it against a
static model of the intrinsic surface (:data:`repro.core.intrinsics.SIMT_MODEL`
plus the atomics from :mod:`repro.core.atomics`).  The walk is a taint
analysis over a three-point lattice:

``UNIFORM``
    The value is identical across all lanes of a lane set (constants,
    scalar parameters, ``block_dim`` / ``grid_dim`` components, results of
    the lane reductions ``any_lane`` / ``all_lanes``).
``GUARDED``
    The value varies per lane but has passed through a bounding construct —
    ``compress_lanes`` (dead lanes dropped), ``lane_where`` (clamp/select),
    a value loaded at a guarded index — so using it as a tensor index is
    proven in-bounds *given the guard*.
``LANE``
    Raw lane-derived data (``thread_idx`` / ``block_idx`` arithmetic) with
    no bound established.

Rules
-----
``KV100`` flag/inference mismatch — ``vector_safe=True`` declared but the
verifier cannot confirm the body is lockstep-safe (error), or the source is
unavailable for analysis (warning).

``KV101`` barrier divergence — a ``barrier()`` reachable only under a
lane-dependent branch, or a lane-guarded ``return`` that lets some lanes
skip a later barrier.

``KV102`` shared-memory race — write/write or read/write accesses to one
shared array within a single barrier-delimited phase whose index sets may
collide.  The tree-reduction idiom (mask ``lane < B``, read at ``lane + B``)
is recognised as disjoint.

``KV103`` unguarded index — a raw-``LANE`` index into a kernel-parameter
tensor with no dominating guard mentioning the index (shared arrays are
block-sized by construction and the masked accessors are predicated, so
both are exempt).

``KV104`` non-SIMT-safe construct — ``print``, ``global`` / ``nonlocal``
(mutating closures), ``yield``.

``KV105`` data-dependent ``while`` — a loop condition that varies per lane
without an ``any_lane`` / ``all_lanes`` reduction.

``KV106`` out-of-bounds access — the symbolic region analysis
(:mod:`repro.analysis.regions`) proves an access escapes a buffer's extent
under a concrete launch geometry: an unguarded endpoint-exact index whose
interval leaves ``[0, extent)``, or a guarded index whose entire interval
lies outside it.  Fired at graph-lint time, where the shipped launch and
buffer shapes are known; the same concretization discharges ``KV103``
warnings whose access is proven in-bounds under every observed launch.

Verification is memoised on the underlying function object, so
decoration-time checks (``@kernel(strict=True)``) and the launch-path
``kernel_vector_safe`` consultation pay the AST walk exactly once per
kernel body.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.atomics import ATOMIC_FUNCTIONS
from ..core.intrinsics import SIMT_MODEL
from ..core.memo import Memo
from .diagnostics import Diagnostic, Severity

__all__ = [
    "RULE_FLAG_MISMATCH",
    "RULE_BARRIER_DIVERGENCE",
    "RULE_SHARED_RACE",
    "RULE_UNGUARDED_INDEX",
    "RULE_SIMT_UNSAFE",
    "RULE_DATA_DEPENDENT_WHILE",
    "RULE_OOB_ACCESS",
    "VerifierResult",
    "infer_vector_safe",
    "lint_kernel",
    "verify_kernel",
]

RULE_FLAG_MISMATCH = "KV100"
RULE_BARRIER_DIVERGENCE = "KV101"
RULE_SHARED_RACE = "KV102"
RULE_UNGUARDED_INDEX = "KV103"
RULE_SIMT_UNSAFE = "KV104"
RULE_DATA_DEPENDENT_WHILE = "KV105"
RULE_OOB_ACCESS = "KV106"

# taint lattice
UNIFORM, GUARDED, LANE = 0, 1, 2

_LANE_SOURCES = frozenset(SIMT_MODEL["lane_index_sources"])
_UNIFORM_GEOMETRY = frozenset(SIMT_MODEL["uniform_geometry"])
_LANE_INDEX_CALLS = frozenset(SIMT_MODEL["lane_index_calls"])
_LANE_REDUCTIONS = frozenset(SIMT_MODEL["lane_reductions"])
_LANE_GUARDS = frozenset(SIMT_MODEL["lane_guards"])
_MASKED_ACCESSORS = frozenset(SIMT_MODEL["masked_accessors"])
_SHARED_ALLOCATORS = frozenset(SIMT_MODEL["shared_allocators"])
_BARRIER_CALLS = frozenset(SIMT_MODEL["barrier_calls"])
_ATOMIC_CALLS = frozenset(ATOMIC_FUNCTIONS)


@dataclass(frozen=True)
class VerifierResult:
    """Outcome of verifying one kernel body."""

    kernel: str
    source: str
    #: the hand-set ``vector_safe`` flag (None when never declared)
    declared: Optional[bool]
    #: the verifier's verdict (None when the source is unavailable)
    inferred: Optional[bool]
    #: why the body cannot run in lockstep (empty when inferred is True)
    reasons: Tuple[str, ...]
    #: body-rule findings (KV101-KV105); KV100 is added by :func:`lint_kernel`
    diagnostics: Tuple[Diagnostic, ...]

    @property
    def confirmed(self) -> bool:
        """True when the verifier positively proved lockstep safety."""
        return self.inferred is True

    def as_dict(self) -> Dict[str, object]:
        return {
            "kernel": self.kernel,
            "source": self.source,
            "declared": self.declared,
            "inferred": self.inferred,
            "reasons": list(self.reasons),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


class _SharedAccess:
    """One access to a block shared array, within one barrier phase."""

    __slots__ = ("array", "kind", "phase", "index_key", "index_taint",
                 "mask_key", "mask_node", "index_node", "line")

    def __init__(self, array, kind, phase, index_key, index_taint,
                 mask_key, mask_node, index_node, line):
        self.array = array
        self.kind = kind                # "r" | "w"
        self.phase = phase
        self.index_key = index_key
        self.index_taint = index_taint
        self.mask_key = mask_key        # None = unpredicated
        self.mask_node = mask_node      # resolved predicate expression
        self.index_node = index_node
        self.line = line


class _BodyAnalyzer:
    """Single-pass taint walk over one kernel body."""

    def __init__(self, name: str, source_file: str):
        self.name = name
        self.source_file = source_file
        self.env: Dict[str, int] = {}
        self.defs: Dict[str, Optional[ast.expr]] = {}
        self.params: Set[str] = set()
        self.shared: Set[str] = set()
        self.guards: List[Tuple[int, ast.expr]] = []
        self.phase = 0
        self.accesses: List[_SharedAccess] = []
        self.barrier_lines: List[int] = []
        self.lane_return_lines: List[int] = []
        self.diags: List[Diagnostic] = []
        self.reasons: List[str] = []

    # ------------------------------------------------------------- helpers
    def _diag(self, rule: str, line: Optional[int], message: str,
              severity: str = Severity.ERROR) -> None:
        self.diags.append(Diagnostic(
            rule=rule, severity=severity, subject=self.name, message=message,
            source=self.source_file, line=line, category="kernel"))

    def _reason(self, text: str) -> None:
        if text not in self.reasons:
            self.reasons.append(text)

    @staticmethod
    def _callee(node: ast.Call) -> str:
        f = node.func
        if isinstance(f, ast.Name):
            return f.id
        if isinstance(f, ast.Attribute):
            base = f.value
            if isinstance(base, ast.Name):
                return f"{base.id}.{f.attr}"
            return f.attr
        return ""

    def _resolve(self, node: ast.expr, depth: int = 6) -> ast.expr:
        """Follow simple ``name = expr`` definitions (for mask matching)."""
        while depth > 0 and isinstance(node, ast.Name):
            defn = self.defs.get(node.id)
            if defn is None:
                break
            node = defn
            depth -= 1
        return node

    @staticmethod
    def _key(node: Optional[ast.expr]) -> Optional[str]:
        return None if node is None else ast.dump(node)

    def _names(self, node: ast.expr) -> Set[str]:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    def _guard_covers(self, index_node: ast.expr) -> bool:
        """True when a dominating guard mentions a name of the index expr."""
        idx_names = self._names(index_node)
        if not idx_names:
            return False
        for taint, test in self.guards:
            if taint == UNIFORM:
                continue
            if idx_names & self._names(test):
                return True
        return False

    def _innermost_lane_guard(self) -> Optional[ast.expr]:
        for taint, test in reversed(self.guards):
            if taint != UNIFORM:
                return test
        return None

    # ------------------------------------------------------ access records
    def _record_shared(self, array: str, kind: str, index_node: ast.expr,
                       mask_node: Optional[ast.expr], line: int) -> None:
        guard = mask_node if mask_node is not None \
            else self._innermost_lane_guard()
        resolved = None if guard is None else self._resolve(guard)
        self.accesses.append(_SharedAccess(
            array=array, kind=kind, phase=self.phase,
            index_key=self._key(index_node),
            index_taint=self._expr(index_node) if False else self._taint_of(index_node),
            mask_key=self._key(resolved), mask_node=resolved,
            index_node=index_node, line=line))

    def _taint_of(self, node: ast.expr) -> int:
        # taint without re-recording accesses: indices were already walked
        # by the caller, so a pure (side-effect-free) evaluation suffices
        return self._expr(node, record=False)

    def _check_tensor_index(self, base: str, index_node: ast.expr,
                            line: int, *, masked: bool) -> None:
        if masked:
            return
        taint = self._taint_of(index_node)
        if taint == LANE and not self._guard_covers(index_node):
            self._diag(
                RULE_UNGUARDED_INDEX, line,
                f"raw lane-derived index "
                f"{ast.unparse(index_node)!r} into tensor parameter "
                f"{base!r} with no dominating guard, clamp "
                f"(lane_where/compress_lanes) or mask")

    # ---------------------------------------------------------- expressions
    def _expr(self, node: Optional[ast.expr], record: bool = True) -> int:
        if node is None:
            return UNIFORM
        method = getattr(self, f"_expr_{type(node).__name__}", None)
        if method is not None:
            return method(node, record)
        # generic fallback: max taint over child expressions
        taint = UNIFORM
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                taint = max(taint, self._expr(child, record))
        return taint

    def _expr_Constant(self, node, record) -> int:
        return UNIFORM

    def _expr_Name(self, node, record) -> int:
        if node.id in _LANE_SOURCES:
            return LANE
        if node.id in _UNIFORM_GEOMETRY:
            return UNIFORM
        return self.env.get(node.id, UNIFORM)

    def _expr_Attribute(self, node, record) -> int:
        return self._expr(node.value, record)

    def _expr_BinOp(self, node, record) -> int:
        return max(self._expr(node.left, record),
                   self._expr(node.right, record))

    def _expr_UnaryOp(self, node, record) -> int:
        return self._expr(node.operand, record)

    def _expr_BoolOp(self, node, record) -> int:
        return max((self._expr(v, record) for v in node.values),
                   default=UNIFORM)

    def _expr_Compare(self, node, record) -> int:
        taint = self._expr(node.left, record)
        for comp in node.comparators:
            taint = max(taint, self._expr(comp, record))
        return taint

    def _expr_IfExp(self, node, record) -> int:
        test = self._expr(node.test, record)
        if test != UNIFORM and record:
            self._reason(
                f"lane-dependent conditional expression at line "
                f"{node.lineno} (use lane_where)")
        # the test guards both arms, exactly like an `if` statement
        self.guards.append((test, node.test))
        try:
            body = self._expr(node.body, record)
            orelse = self._expr(node.orelse, record)
        finally:
            self.guards.pop()
        return max(test, body, orelse)

    def _expr_Tuple(self, node, record) -> int:
        return max((self._expr(e, record) for e in node.elts),
                   default=UNIFORM)

    _expr_List = _expr_Tuple
    _expr_Set = _expr_Tuple

    def _expr_Subscript(self, node, record) -> int:
        index_taint = self._expr(node.slice, record)
        base = node.value
        if isinstance(base, ast.Name):
            if base.id in self.shared:
                if record:
                    self._record_shared(base.id, "r", node.slice, None,
                                        node.lineno)
                return max(index_taint, GUARDED) if index_taint else UNIFORM
            if base.id in self.params:
                if record:
                    self._check_tensor_index(base.id, node.slice,
                                             node.lineno, masked=False)
                return index_taint
            # local container (list of per-pose values etc.)
            return max(index_taint, self.env.get(base.id, UNIFORM))
        return max(index_taint, self._expr(base, record))

    def _expr_Call(self, node, record) -> int:
        name = self._callee(node)
        short = name.rsplit(".", 1)[-1]
        args = node.args

        if short in _BARRIER_CALLS:
            if record:
                self._visit_barrier(node)
            return UNIFORM
        if short in _LANE_REDUCTIONS:
            for a in args:
                self._expr(a, record)
            return UNIFORM
        if short in _LANE_GUARDS:
            taint = max((self._expr(a, record) for a in args),
                        default=UNIFORM)
            return GUARDED if taint != UNIFORM else UNIFORM
        if short in _LANE_INDEX_CALLS:
            return LANE
        if short in _SHARED_ALLOCATORS:
            for a in args:
                self._expr(a, record)
            return UNIFORM
        if short in _MASKED_ACCESSORS and args:
            return self._visit_masked(short, node, record)
        if short in _ATOMIC_CALLS:
            return self._visit_atomic(node, record)
        if short == "print":
            if record:
                self._diag(
                    RULE_SIMT_UNSAFE, node.lineno,
                    "print() inside a kernel body is not SIMT-safe "
                    "(side effects are per-lane-set, not per-thread)")
            return UNIFORM

        taint = UNIFORM
        for a in args:
            taint = max(taint, self._expr(a, record))
        for kw in node.keywords:
            taint = max(taint, self._expr(kw.value, record))
        # an unknown call cannot *unguard* its inputs: bounded in, bounded out
        return min(taint, GUARDED) if taint == LANE and short not in (
            "range", "len", "int", "float", "abs", "min", "max") else taint

    # --------------------------------------------------- intrinsic visitors
    def _visit_barrier(self, node: ast.Call) -> None:
        self.barrier_lines.append(node.lineno)
        self.phase += 1
        guard = self._innermost_lane_guard()
        if guard is not None:
            self._diag(
                RULE_BARRIER_DIVERGENCE, node.lineno,
                f"barrier() is reachable only under the lane-dependent "
                f"branch {ast.unparse(guard)!r}; lanes that skip it "
                f"deadlock the block")

    def _visit_masked(self, short: str, node: ast.Call, record: bool) -> int:
        args = node.args
        target, index = args[0], args[1] if len(args) > 1 else None
        mask = None
        if short == "masked_gather":
            mask = args[2] if len(args) > 2 else None
            kind = "r"
            rest = args[3:]
        else:                           # masked_store(target, index, value, mask)
            mask = args[3] if len(args) > 3 else None
            kind = "w"
            rest = args[2:3]
        for extra in rest:
            self._expr(extra, record)
        if index is not None:
            self._expr(index, record)
        if mask is not None:
            self._expr(mask, record)
        if record and isinstance(target, ast.Name) and index is not None:
            if target.id in self.shared:
                self._record_shared(target.id, kind, index, mask, node.lineno)
            # parameter tensors: the access is predicated by construction
        return GUARDED

    def _visit_atomic(self, node: ast.Call, record: bool) -> int:
        args = node.args
        taint = UNIFORM
        for a in args[1:]:
            taint = max(taint, self._expr(a, record))
        if record and len(args) >= 3 and isinstance(args[0], ast.Name):
            base = args[0].id
            if base in self.params:
                self._check_tensor_index(base, args[1], node.lineno,
                                         masked=False)
            elif base in self.shared:
                self._record_shared(base, "w", args[1], None, node.lineno)
        return min(taint, GUARDED) if taint == LANE else taint

    # ----------------------------------------------------------- statements
    def _stmts(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        method = getattr(self, f"_stmt_{type(node).__name__}", None)
        if method is not None:
            method(node)
            return
        # generic: evaluate embedded expressions, walk nested bodies
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.stmt):
                self._stmt(child)

    def _assign_target(self, target: ast.expr, taint: int,
                       value: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
            self.defs[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) \
                    and len(value.elts) == len(target.elts):
                for t, v in zip(target.elts, value.elts):
                    self._assign_target(t, self._taint_of(v), v)
            else:
                for t in target.elts:
                    self._assign_target(t, taint, None)
            return
        if isinstance(target, ast.Subscript):
            self._store_subscript(target)
            return
        # attribute / starred targets: nothing to track

    def _store_subscript(self, target: ast.Subscript,
                         also_read: bool = False) -> None:
        self._expr(target.slice)
        base = target.value
        if isinstance(base, ast.Name):
            if base.id in self.shared:
                self._record_shared(base.id, "w", target.slice, None,
                                    target.lineno)
                if also_read:
                    self._record_shared(base.id, "r", target.slice, None,
                                        target.lineno)
            elif base.id in self.params:
                self._check_tensor_index(base.id, target.slice,
                                         target.lineno, masked=False)
            return
        self._expr(base)

    def _stmt_Assign(self, node: ast.Assign) -> None:
        value_call = node.value if isinstance(node.value, ast.Call) else None
        if value_call is not None and \
                self._callee(value_call).rsplit(".", 1)[-1] in _SHARED_ALLOCATORS:
            for a in value_call.args:
                self._expr(a)
            for kw in value_call.keywords:
                self._expr(kw.value)
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.shared.add(target.id)
                    self.env[target.id] = UNIFORM
                    self.defs[target.id] = None
            return
        taint = self._expr(node.value)
        for target in node.targets:
            self._assign_target(target, taint, node.value)

    def _stmt_AugAssign(self, node: ast.AugAssign) -> None:
        taint = self._expr(node.value)
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = max(
                taint, self.env.get(node.target.id, UNIFORM))
            self.defs[node.target.id] = None
        elif isinstance(node.target, ast.Subscript):
            self._store_subscript(node.target, also_read=True)

    def _stmt_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is None:
            return
        taint = self._expr(node.value)
        self._assign_target(node.target, taint, node.value)

    def _stmt_Expr(self, node: ast.Expr) -> None:
        self._expr(node.value)

    def _stmt_If(self, node: ast.If) -> None:
        taint = self._expr(node.test)
        if taint != UNIFORM:
            self._reason(
                f"lane-dependent branch at line {node.lineno} "
                f"({ast.unparse(node.test)!r}); lockstep execution needs "
                f"any_lane/compress_lanes or lane_where")
        self.guards.append((taint, node.test))
        try:
            self._stmts(node.body)
            self._stmts(node.orelse)
        finally:
            self.guards.pop()

    def _stmt_While(self, node: ast.While) -> None:
        taint = self._expr(node.test)
        if taint != UNIFORM:
            self._diag(
                RULE_DATA_DEPENDENT_WHILE, node.lineno,
                f"while condition {ast.unparse(node.test)!r} varies per "
                f"lane; reduce it with any_lane/all_lanes so every lane "
                f"agrees on the trip count")
            self._reason(
                f"data-dependent while at line {node.lineno}")
        self.guards.append((taint, node.test))
        try:
            self._stmts(node.body)
            self._stmts(node.orelse)
        finally:
            self.guards.pop()

    def _stmt_For(self, node: ast.For) -> None:
        iter_taint = self._expr(node.iter)
        if iter_taint != UNIFORM:
            self._reason(
                f"lane-dependent iteration at line {node.lineno}")
        self._assign_target(node.target, iter_taint, None)
        self._stmts(node.body)
        self._stmts(node.orelse)

    def _stmt_Return(self, node: ast.Return) -> None:
        if node.value is not None:
            self._expr(node.value)
        if self._innermost_lane_guard() is not None:
            self.lane_return_lines.append(node.lineno)

    def _stmt_Global(self, node: ast.Global) -> None:
        self._diag(
            RULE_SIMT_UNSAFE, node.lineno,
            f"global statement ({', '.join(node.names)}) mutates state "
            f"outside the kernel's lane-private scope")

    def _stmt_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._diag(
            RULE_SIMT_UNSAFE, node.lineno,
            f"nonlocal statement ({', '.join(node.names)}) mutates an "
            f"enclosing closure; kernel bodies must be lane-pure")

    def _stmt_FunctionDef(self, node) -> None:
        # nested helper definitions are opaque to the walk
        return

    _stmt_AsyncFunctionDef = _stmt_FunctionDef

    # -------------------------------------------------------- entry + rules
    def run(self, fndef: ast.FunctionDef) -> None:
        self.params = {a.arg for a in fndef.args.args}
        self.params.update(a.arg for a in fndef.args.posonlyargs)
        self.params.update(a.arg for a in fndef.args.kwonlyargs)
        for name in self.params:
            self.env[name] = UNIFORM
        for stmt in ast.walk(fndef):
            if isinstance(stmt, (ast.Yield, ast.YieldFrom)):
                self._diag(RULE_SIMT_UNSAFE, stmt.lineno,
                           "yield inside a kernel body (kernels are not "
                           "generators)")
                break
        self._stmts(fndef.body)
        self._check_divergent_returns()
        self._check_shared_races()

    def _check_divergent_returns(self) -> None:
        if not self.barrier_lines or not self.lane_return_lines:
            return
        last_barrier = max(self.barrier_lines)
        for line in self.lane_return_lines:
            if line < last_barrier:
                self._diag(
                    RULE_BARRIER_DIVERGENCE, line,
                    f"return under a lane-dependent guard lets some lanes "
                    f"skip the barrier at line {last_barrier}")

    # ----------------------------------------------------- shared-race pass
    @staticmethod
    def _disjoint_reduction(write: _SharedAccess,
                            read: _SharedAccess) -> bool:
        """The tree-reduction idiom: mask ``X < B``, write X, read X + B."""
        if write.mask_key is None or write.mask_key != read.mask_key:
            return False
        mask = write.mask_node
        if not (isinstance(mask, ast.Compare) and len(mask.ops) == 1
                and isinstance(mask.ops[0], (ast.Lt, ast.LtE))):
            return False
        x_key = ast.dump(mask.left)
        b_key = ast.dump(mask.comparators[0])
        if write.index_key != x_key:
            return False
        idx = read.index_node
        if not (isinstance(idx, ast.BinOp) and isinstance(idx.op, ast.Add)):
            return False
        operands = {ast.dump(idx.left), ast.dump(idx.right)}
        return operands == {x_key, b_key}

    def _check_shared_races(self) -> None:
        groups: Dict[Tuple[str, int], List[_SharedAccess]] = {}
        for acc in self.accesses:
            groups.setdefault((acc.array, acc.phase), []).append(acc)
        reported: Set[Tuple[str, int, int]] = set()
        for (array, phase), accs in groups.items():
            writes = [a for a in accs if a.kind == "w"]
            reads = [a for a in accs if a.kind == "r"]
            for w in writes:
                # all lanes storing through one uniform index, unpredicated
                if w.index_taint == UNIFORM and w.mask_key is None:
                    key = (array, w.line, -1)
                    if key not in reported:
                        reported.add(key)
                        self._diag(
                            RULE_SHARED_RACE, w.line,
                            f"every lane writes "
                            f"{array}[{ast.unparse(w.index_node)}] in the "
                            f"same barrier phase (write/write race); "
                            f"predicate the store or index it per lane")
                    continue
                for other in writes:
                    if other is w or other.line < w.line:
                        continue
                    if other.index_key == w.index_key \
                            and other.mask_key == w.mask_key:
                        continue
                    key = (array, w.line, other.line)
                    if key in reported:
                        continue
                    reported.add(key)
                    self._diag(
                        RULE_SHARED_RACE, other.line,
                        f"writes to {array!r} at distinct lane indices "
                        f"({ast.unparse(w.index_node)!r} vs "
                        f"{ast.unparse(other.index_node)!r}) in one "
                        f"barrier phase (write/write race); separate them "
                        f"with barrier()")
                for r in reads:
                    if r.index_key == w.index_key \
                            and r.mask_key == w.mask_key:
                        continue        # every lane touches its own slot
                    if self._disjoint_reduction(w, r):
                        continue
                    key = (array, w.line, r.line)
                    if key in reported:
                        continue
                    reported.add(key)
                    self._diag(
                        RULE_SHARED_RACE, r.line,
                        f"read of {array}[{ast.unparse(r.index_node)}] "
                        f"races the write at line {w.line} "
                        f"({array}[{ast.unparse(w.index_node)}]) in the "
                        f"same barrier phase; separate them with barrier()")


# --------------------------------------------------------------------------
# public entry points
# --------------------------------------------------------------------------

def _underlying_fn(kern):
    fn = getattr(kern, "fn", kern)
    return fn


#: one parsed kernel body per function, shared by the verifier, the region
#: analysis and the lowering tier (:mod:`repro.graphopt.lower`)
KERNEL_AST_MEMO = Memo("kernel_ast")


def kernel_ast(fn) -> Optional[ast.FunctionDef]:
    """*fn*'s parsed ``def`` with file line numbers, memoised; None when the
    source is unavailable or holds no function definition."""
    return KERNEL_AST_MEMO.get_or_compute(fn, lambda: _parse_kernel(fn))


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


def verify_kernel(kern) -> VerifierResult:
    """Verify a kernel (or plain callable) body; memoised on the function.

    Returns a :class:`VerifierResult` whose ``inferred`` field is the
    verifier's lockstep-safety verdict — ``None`` when the source is
    unavailable (``exec``-defined bodies, builtins), in which case no body
    rules run either.
    """
    fn = _underlying_fn(kern)
    cached = getattr(fn, "_repro_verify_result", None)
    if cached is not None:
        return cached

    name = getattr(kern, "name", None) or getattr(fn, "__name__", "<kernel>")
    declared = _declared_flag(kern, fn)
    fndef = kernel_ast(fn)
    if fndef is None:
        result = VerifierResult(kernel=name, source="", declared=declared,
                                inferred=None, reasons=(
                                    "source unavailable for analysis",),
                                diagnostics=())
        _cache(fn, result)
        return result

    source_file = inspect.getsourcefile(fn) or ""
    analyzer = _BodyAnalyzer(name, source_file)
    analyzer.run(fndef)
    has_errors = any(d.severity == Severity.ERROR for d in analyzer.diags)
    inferred = not analyzer.reasons and not has_errors
    result = VerifierResult(kernel=name, source=source_file,
                            declared=declared, inferred=inferred,
                            reasons=tuple(analyzer.reasons),
                            diagnostics=tuple(analyzer.diags))
    _cache(fn, result)
    return result


def infer_vector_safe(kern) -> Optional[bool]:
    """The verifier's lockstep-safety verdict (None = source unavailable)."""
    return verify_kernel(kern).inferred


def lint_kernel(kern) -> List[Diagnostic]:
    """Body-rule diagnostics plus the declared-flag consistency check.

    A ``vector_safe=True`` declaration the verifier refutes is a KV100
    error; a declaration it cannot analyse at all is a KV100 warning.
    """
    result = verify_kernel(kern)
    diags = list(result.diagnostics)
    if result.declared:
        if result.inferred is False:
            reasons = "; ".join(result.reasons) or "body rules failed"
            diags.append(Diagnostic(
                rule=RULE_FLAG_MISMATCH, severity=Severity.ERROR,
                subject=result.kernel,
                message=f"declared vector_safe=True but the verifier "
                        f"cannot confirm lockstep safety: {reasons}",
                source=result.source, category="kernel"))
        elif result.inferred is None:
            diags.append(Diagnostic(
                rule=RULE_FLAG_MISMATCH, severity=Severity.WARNING,
                subject=result.kernel,
                message="declared vector_safe=True but the body source is "
                        "unavailable for verification",
                source=result.source, category="kernel"))
    return diags


def _declared_flag(kern, fn) -> Optional[bool]:
    declared = getattr(kern, "declared_vector_safe", None)
    if declared is not None:
        return declared
    if hasattr(fn, "_repro_vector_safe"):
        return bool(fn._repro_vector_safe)
    return None


def _cache(fn, result: VerifierResult) -> None:
    try:
        fn._repro_verify_result = result
    except (AttributeError, TypeError):  # pragma: no cover - builtins
        pass
