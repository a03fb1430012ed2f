"""Lowering tier: compile vector-safe kernel bodies to NumPy code.

The vectorized executor (:mod:`repro.gpu.vector_executor`) amortises the
Python interpreter over whole lane sets, but it still interprets the kernel
body statement by statement: every intrinsic read goes through a
thread-local proxy, every tensor subscript through ``LayoutTensor`` index
resolution, every loop iteration re-runs its statements on small arrays.
This module goes one step further, the way the paper's MLIR stack lowers
its parametric kernels to target code: the body is rewritten — from the
kernel IR the verifier and the region analysis also read
(:func:`repro.analysis.kernel_ir.kernel_ir`: the memoised parse plus one
abstract interpretation of it), not execution — into NumPy source,
compiled with ``exec`` into a synthetic module, and dispatched by the
executor: every ``auto`` (or ``lowered``) launch of a kernel the verifier
proves vector-safe tries this tier first.

The contract mirrors a real compiler's legality checking: lowering is a
*best-effort specialisation*.  ``lower_launch`` returns a compiled entry
point when the body fits the supported shape and ``None`` otherwise, and
the executor falls back to the lockstep interpreter.  Behaviour is
identical either way: the generated code performs the interpreter's
element operations in its order and dtypes (a float64 scalar load is a
Python float, a narrower one a NumPy scalar), keeps its checks (the atomic
index check, lock and count, and the bounds checks below) and returns the
barrier and atomic counts and shared bytes per block the interpreter would
report.  ``tests/gpu/test_mode_differential.py`` and the property suite
hold the tier to bitwise equality.  One exception: the axis form runs each
statement over every iteration of its loop (of its chunk, when the loop
runs in chunks) before the next statement, so a launch with out-of-bounds
indices in two statements of one such loop may report a different one of
its bad indices than the interpreter (the same ``LayoutError`` type; a
launch with one bad index names it exactly).

Bounds checks: a tensor argument the region analysis proves in bounds
under the launch (:attr:`repro.analysis.regions.ArgRegion.in_bounds`)
gets none.  For any other, each index value is checked once per extent
per emission scope (straight-line code, one loop body, one branch): a
statement before the first access that reads it (an expression is bound
to a fresh variable first), :func:`repro.core.layout.check_index` for
arrays, raising the interpreter's own message (the lane form, or the
scalar form for a value that is one scalar per loop iteration).  The
record of checks is saved and restored with the bindings, so one branch
never relies on the other's, and rebinding a variable drops its checks.
A checked index of a non-integer dtype refuses the body (the interpreter
truncates it with ``int()``).  Slices are in bounds by
construction (a slice escaping its tensor refuses the slice rule).

One emitter, two index rules:

* **slices** — when every lane index is a launch axis's global index
  (``i = block_dim.x * block_idx.x + thread_idx.x``), every guard mask is an
  exact conjunction of lane comparisons, ``compress_lanes`` tightens ranges
  and every access is ``t[i +/- c, ...]``, the body becomes whole-array
  slicing (stencil, Copy/Mul/Add/Triad).  The rule reads the axis names,
  masks, clamps and early ``any_lane`` guards off the IR and concretises
  the masks' bounds with the scalar arguments and the launch;
* **gathers** — otherwise intrinsics become the interpreter's own lane
  index arrays, tensor accesses gathers/scatters through its offset
  arithmetic, and ``any_lane`` / ``compress_lanes`` / ``lane_where`` /
  ``masked_gather`` / ``masked_store`` / ``Atomic.fetch_add`` are emitted
  inline (fasten, ERI, Dot).  Uniform ``for … in range(<static>)`` loops
  whose iterations interact only through the IR's accumulation statements
  (:attr:`repro.analysis.kernel_ir.Loop.accumulations`) run with the loop
  index as a leading array axis; the accumulators fold in iteration and
  statement order (:func:`_fold`), so sums stay bitwise.  A nest whose
  temporaries would exceed :data:`AXIS_BUDGET` elements runs its outer
  loops in chunks of iterations, in order, each accumulator folding once
  per chunk from its variable (a chunk of one iteration has a scalar
  index).  That is the one loop form: a loop the axis form refuses
  unrolls up to :data:`UNROLL_MAX` trips, else the body stays
  interpreted, and no kernel loop becomes a Python loop in the generated
  code except as chunk loops.  Stores and atomics run once, over all
  lanes, in the interpreter's order.  Bodies with barriers or shared
  memory (:func:`repro.gpu.executor.kernel_uses_barrier`) run every block
  at once on a ``(block, lane)`` axis: shared arrays become ``(blocks,
  size)``.  Two forms there need no Python loop:

  - **trip axis** — a grid-stride loop ``while any_lane(i < n): …;
    i = i + s`` with static ``n`` and ``s > 0`` runs on a ``(trips, blocks,
    lanes)`` index array (:meth:`_BodyLowerer._while_trips`): each gather,
    and its bounds check, runs once per chunk of trips, not once per trip.
    The loop shape comes from the IR: its
    :class:`~repro.analysis.kernel_ir.Induction` names ``i``, ``s`` and
    ``n``, and no other ``while any_lane(...)`` loop lowers.  A trip a
    block does not run gathers index 0 and adds ``-0.0``, the exact IEEE
    "no add"; a lane masked off inside a running block keeps the ``+0.0``
    term the interpreter adds.  An accumulator folds at the NEP 50 join of
    its start and its terms, so a Python ``0.0`` against float32 terms
    folds at float32; a block that runs no trip keeps the Python scalar,
    so after the loop the accumulator is a weak/strong mix of the fold
    dtype and a use whose result would differ between the two refuses the
    body;
  - **prefix slices** — a ``masked_store`` into shared memory guarded by
    ``thread_idx.x < s`` with static ``s`` (one-dimensional blocks), whose
    value combines gathers under the same guard, is one slice assignment
    ``sh[:, :s] = sh[:, :s] + sh[:, s:2*s]`` instead of a broadcast mask
    and a compressed scatter (:meth:`_BodyLowerer._prefix_store`).

  Fold order: :func:`_fold` stacks the rows C-contiguously and sums them
  with ``np.add.reduce(rows, axis=0, initial=-0.0)``, whose inner loop runs
  along the lanes, so each lane adds its rows one by one.  NumPy sums a
  reduction that collapses to one contiguous column pairwise, so a single
  lane folds with ``np.add.accumulate`` instead; the emitter never reduces
  along the contiguous axis.

Everything else — break/continue, augmented stores, atomics other than
``fetch_add``, helpers that read thread state, stores into immutable
tensors, per-block bodies that read a tensor they write, multi-chunk
gather launches, and multi-chunk slice launches that read a stored tensor
at a shifted index — raises :class:`LoweringUnsupported` internally and
surfaces as a ``None`` entry (i.e. "keep interpreting"), so the interpreter
reports exactly what it would have.

Specialisation key: generated source bakes launch extents, scalar argument
values and tensor layouts, so compiled entries are memoised in
:data:`LOWERED_MEMO` on (kernel function, launch, whether the launch is one
lane chunk, argument signature), where a tensor's signature is its shape,
dtype, layout order, strides and mutability.  Which tensors are checked
follows from the launch, the shapes and the scalar values, so the key
needs nothing more for it.  Tensor
*data* is rebound on every call (the entry re-reads ``args[i].ptr``), so
replaying a graph with new H2D bindings reuses the compiled module.
"""
from __future__ import annotations

import ast
import builtins
import itertools
import math
import operator
import re
import types
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.kernel_ir import assigned_names, kernel_ir
from ..analysis.regions import concretize_launch
from ..analysis.symexpr import Interval, launch_env
from ..core import atomics as _atomics
from ..core import intrinsics as _intrinsics
from ..core.dtypes import dtype_from_any
from ..core.errors import LaunchError
from ..core.intrinsics import Dim3
from ..core.kernel import Kernel, LaunchConfig
from ..core.layout import LayoutTensor, check_index, index_error
from ..core.memo import Memo
from ..gpu.executor import kernel_uses_barrier
from ..gpu.vector_executor import _block_geometry, _grid_geometry, single_chunk

__all__ = ["LOWERED_MEMO", "TYPES_MEMO", "LoweringUnsupported",
           "lower_launch", "lower_source", "lowering_report"]

#: ``(entry, source)`` or ``(None, reason)`` per lowered specialisation
LOWERED_MEMO = Memo("lowered")


class LoweringUnsupported(Exception):
    """The kernel body falls outside the lowerable subset (internal)."""


_AXES = ("x", "y", "z")


class _Axis:
    """A lane-index variable along one launch axis, restricted to [lo, hi)."""

    __slots__ = ("axis", "lo", "hi")

    def __init__(self, axis: str, lo: int, hi: int):
        self.axis = axis
        self.lo = int(lo)
        self.hi = int(hi)

    def tightened(self, lo: Optional[int], hi: Optional[int]) -> "_Axis":
        new_lo = self.lo if lo is None else max(self.lo, lo)
        new_hi = self.hi if hi is None else min(self.hi, hi)
        return _Axis(self.axis, new_lo, max(new_hi, new_lo))


class _Tensor:
    """A tensor argument: combined-arg index, layout facts, whether its
    accesses need bounds checks (the region analysis did not prove them in
    bounds) and whether the body stores to it and reads it at a non-zero
    lane offset."""

    __slots__ = ("index", "shape", "strides", "dtype", "mut", "checked",
                 "name", "stored", "shifted_read")

    def __init__(self, index: int, tensor: LayoutTensor, name: str,
                 checked: bool):
        self.index = index
        self.shape = tensor.shape
        self.strides = tensor.layout.strides
        self.dtype = np.dtype(tensor.dtype.to_numpy())
        self.mut = tensor.mut
        self.checked = checked
        self.name = name
        self.stored = False
        self.shifted_read = False


def _fail(reason: str) -> "LoweringUnsupported":
    return LoweringUnsupported(reason)


def _axis_extents(launch: LaunchConfig) -> Dict[str, int]:
    bd, gd = launch.block_dim, launch.grid_dim
    return {"x": bd.x * gd.x, "y": bd.y * gd.y, "z": bd.z * gd.z}


# ------------------------------------------------------------------- codegen
def _slices_for(comps: Sequence[Tuple[str, int]], shape: Tuple[int, ...],
                env) -> str:
    if len(comps) != len(shape):
        raise _fail("tensor subscript rank does not match its shape")
    parts = []
    for (name, off), extent in zip(comps, shape):
        var: _Axis = env[name]
        lo, hi = var.lo + off, var.hi + off
        if lo < 0 or hi > extent:
            raise _fail(f"slice [{lo}:{hi}] escapes tensor extent {extent}")
        parts.append(f"{lo}:{hi}")
    return ", ".join(parts)


# ----------------------------------------------------------- the emitter
#: axis-form loop nests whose temporaries would exceed this many elements
#: (loop extents times the launch's lane count) run their trips in chunks
AXIS_BUDGET = 1 << 14
#: static loops refused by the axis form unroll up to this trip count
UNROLL_MAX = 8
#: a ``while`` loop over a static test unrolls at most this many times
_STATIC_WHILE_MAX = 64


class _OverBudget(LoweringUnsupported):
    """An axis-form nest would hold *extent* elements, more than
    :data:`AXIS_BUDGET`: an enclosing loop must run fewer trips at once
    (internal)."""

    def __init__(self, extent: int):
        super().__init__("axis form exceeds the budget")
        self.extent = extent


class _Const:
    """A value known at code-generation time (scalar argument, constant,
    launch extent, module global); *src* names it in generated code."""

    __slots__ = ("value", "src")

    def __init__(self, value, src: Optional[str] = None):
        self.value = value
        self.src = src


class _Dyn:
    """A runtime value: *src* is its expression or variable in the generated
    code, *dtype*/*weak* its NumPy type (``weak`` = a Python scalar in the
    interpreter, ``None`` = unknown or mixed), *lanes* whether it varies per
    lane and *axes* the loop (or ``"B"`` block) axes it carries.

    Per-block bodies on one-dimensional blocks also track prefix facts:
    *tid* is ``c`` when the value is ``thread_idx.x + c`` and *below* is
    ``s`` when it is the mask ``thread_idx.x < s`` (clipped to the block);
    :meth:`_BodyLowerer._prefix_store` reads them."""

    __slots__ = ("src", "dtype", "weak", "lanes", "axes", "tid", "below")

    def __init__(self, src: str, dtype, weak, lanes: bool,
                 axes=frozenset(), tid=None, below=None):
        self.src = src
        self.dtype = dtype
        self.weak = weak
        self.lanes = lanes
        self.axes = axes
        self.tid = tid
        self.below = below

    def untagged(self) -> "_Dyn":
        return _Dyn(self.src, self.dtype, self.weak, self.lanes, self.axes)

    @property
    def type(self):
        return (self.dtype, self.weak)


class _Seq:
    """A Python list or tuple whose structure is resolved at codegen time."""

    __slots__ = ("items", "sid", "mutable", "scope")

    def __init__(self, items, sid: int, mutable: bool, scope: int):
        self.items = list(items)
        self.sid = sid
        self.mutable = mutable
        self.scope = scope


class _SharedArr:
    """A block-shared allocation: one ``(blocks, size)`` array per launch."""

    __slots__ = ("src", "dtype", "size")

    def __init__(self, src: str, dtype, size: int):
        self.src = src
        self.dtype = dtype
        self.size = size


class _Poison:
    """A name whose interpreter value the generated code does not hold."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


class _Frame:
    """One axis-form loop: its axis position, trip count (an int; in a
    chunk loop the source of the chunk's count, or 1 for one trip per
    chunk), *size*: the most trips it runs at once, whether it runs in a
    chunk loop, the bindings that existed on entry, the accumulators it
    folds on exit (of each chunk) and, for a grid-stride trip axis,
    *live*: the ``(trips, blocks, 1)`` mask of the trips each block runs,
    and *starts*: each accumulator's binding before the loop."""

    __slots__ = ("depth", "trip", "size", "chunked", "names", "seqs",
                 "accums", "live", "starts")

    def __init__(self, depth: int, trip, size: int, chunked: bool, names,
                 seqs):
        self.depth = depth
        self.trip = trip
        self.size = size
        self.chunked = chunked
        self.names = names
        self.seqs = seqs
        self.accums: Dict = {}
        self.live: Optional[str] = None
        self.starts: Dict = {}


_MISSING = object()
_BINOPS = {ast.Add: ("+", operator.add), ast.Sub: ("-", operator.sub),
           ast.Mult: ("*", operator.mul), ast.Div: ("/", operator.truediv),
           ast.FloorDiv: ("//", operator.floordiv),
           ast.Mod: ("%", operator.mod), ast.Pow: ("**", operator.pow),
           ast.BitAnd: ("&", operator.and_), ast.BitOr: ("|", operator.or_),
           ast.BitXor: ("^", operator.xor)}
_CMPOPS = {ast.Lt: ("<", operator.lt), ast.LtE: ("<=", operator.le),
           ast.Gt: (">", operator.gt), ast.GtE: (">=", operator.ge),
           ast.Eq: ("==", operator.eq), ast.NotEq: ("!=", operator.ne)}
_PY_KIND = {bool: "b", int: "i", float: "f"}
_WEAK_DTYPE = {"b": np.dtype(bool), "i": np.dtype(np.int64),
               "f": np.dtype(np.float64)}
#: result types of operations and helper calls on sample operands
TYPES_MEMO = Memo("lower_types")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(
        value, (bool, np.bool_))


def _const_type(value):
    """(dtype, weak) of a codegen-time value, or None when not numeric."""
    kind = _PY_KIND.get(type(value))
    if kind is not None:
        return _WEAK_DTYPE[kind], True
    if isinstance(value, np.generic):
        return value.dtype, False
    return None


def _sample(t):
    dtype, weak = t
    if weak:
        return {"b": True, "i": 1, "u": 1, "f": 1.0}[dtype.kind]
    return dtype.type(1)


def _result_type(fn, *types):
    """The interpreter's result (dtype, weak) of ``fn(*operands)``.

    Evaluated on one-element samples, so NumPy's own promotion rules
    (Python scalars are weak) decide; ``(None, None)`` when unknown.
    """
    if any(t is None or t[0] is None or t[1] is None for t in types):
        return None, None
    return TYPES_MEMO.get_or_compute(
        ("op", fn, types),
        lambda: _value_type(_call_sample(fn, [_sample(t) for t in types])))


def _call_sample(fn, samples):
    """``fn(*samples)``, or None when it raises (then the interpreter's
    operation raises too, or the type is simply unknown)."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fn(*samples)
        except Exception:   # noqa: BLE001 - any failure means "unknown"
            return None


def _value_type(x):
    if type(x) in _PY_KIND:
        return _WEAK_DTYPE[_PY_KIND[type(x)]], True
    if isinstance(x, (np.ndarray, np.generic)):
        return x.dtype, False
    return None, None


def _fold(init, terms, p, ext, dtype):
    """Fold ``acc = acc + term`` over an axis-form loop nest, in order.

    *terms* carry the loop axes ``p .. p+len(ext)`` (C order = iteration
    order) in front of the lane axes; every iteration adds its terms in
    statement order.  The rows (the initial value, then one per term per
    iteration) are stacked on a leading axis of a C-contiguous array and
    summed row by row with ``np.add.reduce(rows, axis=0)``: the inner loop
    runs along the lanes, so each lane's sum is the interpreter's
    sequential one.  The reduction starts from ``initial=-0.0``, the one
    value whose addition changes nothing (NumPy's default start, ``+0.0``,
    would turn a sum of ``-0.0`` rows into ``+0.0``).  With a single lane
    NumPy collapses the reduction to one contiguous reduce, which it sums
    pairwise, so then the fold runs ``np.add.accumulate``, which is
    sequential for any shape.
    """
    r, n = len(ext), math.prod(ext)
    # a term that varies with no loop axis holds the lane axis alone
    nd = max(p + r + 1, *(np.ndim(t) for t in terms))
    shapes = [(1,) * (nd - np.ndim(t)) + np.shape(t) for t in terms]
    ishape = (1,) * (nd - np.ndim(init)) + np.shape(init)
    full = np.broadcast_shapes(*shapes, ishape)
    batch, tail = full[:p], full[p + r:]
    rows = np.empty((n * len(terms) + 1,) + batch + tail, dtype)
    rows[0] = np.reshape(init, ishape[:p] + ishape[p + r:])
    for j, (t, shape) in enumerate(zip(terms, shapes)):
        t = np.broadcast_to(np.reshape(t, shape), batch + tuple(ext) + tail)
        if p:
            t = np.moveaxis(t, tuple(range(p, p + r)), tuple(range(r)))
        rows[1 + j::len(terms)] = t.reshape((n,) + batch + tail)
    if rows[0].size > 1:
        out = np.add.reduce(rows, axis=0, initial=-0.0)
    else:
        out = np.add.accumulate(rows, axis=0)[-1]
    return out.reshape(batch + (1,) * r + tail) if p else out


def _tuple_src(items) -> str:
    """Source of a tuple of ints and generated-code expressions."""
    return "(" + ", ".join(map(str, items)) + ("," if len(items) == 1
                                               else "") + ")"


def _probe(f, arg_types):
    """Result type(s) of a pure helper, by calling it on one-element
    samples: ``(dtype, weak)``, a list of those, or ``(None, None)``."""
    if not all(t[0] is not None and t[1] is not None for t, _ in arg_types):
        return None, None

    def probe():
        out = _call_sample(f, [np.ones(1, t[0]) if array else _sample(t)
                               for t, array in arg_types])
        if isinstance(out, tuple):
            return [_value_type(x) for x in out]
        return _value_type(out)
    return TYPES_MEMO.get_or_compute(("call", f, arg_types), probe)


def _slice_expression(node) -> bool:
    """The slice rule's expressions: ``+ - * /``, negation, names,
    numbers and tensor reads — operations whose results do not depend on
    the memory layout of the slice views they run on."""
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, ast.USub)
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float))
    return isinstance(node, (ast.Name, ast.Subscript))


def _reachable_seqs(values) -> List[_Seq]:
    out, seen, stack = [], set(), list(values)
    while stack:
        v = stack.pop()
        if isinstance(v, _Seq) and id(v) not in seen:
            seen.add(id(v))
            out.append(v)
            stack.extend(v.items)
    return out


class _BodyLowerer:
    """Lower one kernel body's statements into NumPy source lines.

    One emitter, two index rules (see the module docstring).  Under
    ``rule="slices"`` lane indices are affine :class:`_Axis` ranges, guard
    masks tighten them and tensor accesses become slices of one lane box;
    under ``rule="gathers"`` tensor accesses become gathers/scatters
    through the interpreter's own offset arithmetic, lane helpers and
    atomics are inlined, uniform loops run with their index as a leading
    array axis (in chunks of iterations beyond :data:`AXIS_BUDGET`), and
    barrier bodies run every block at once on a ``(block, lane)`` axis.
    Expressions are emitted by one evaluator for both.
    """

    def __init__(self, fn, env: Dict, launch: LaunchConfig, rule: str,
                 per_block: bool, ns: Dict, n: int, ir):
        self.globals = getattr(fn, "__globals__", {})
        self.rule = rule
        #: the kernel IR: the slice rule's bounds and each loop's induction
        #: variable and accumulations
        self.ir = ir
        self.launch = launch
        self.extents = _axis_extents(launch)
        #: (store components, tensor index, [reads the stored tensor]) while
        #: a slice-rule store's right-hand side is evaluated
        self.store_target = None
        self.env = env
        #: the launch and the scalar arguments, named as in IR bounds
        self.scalars = {**launch_env(launch), **{
            n: Interval(float(v.value), float(v.value)) for n, v in env.items()
            if isinstance(v, _Const) and _const_type(v.value)}}
        self.ns = ns
        self.n = n                  # generated-name counter
        self.lines: List[str] = []
        self.indent = 1
        self.frames: List[_Frame] = []
        # scope 0 is straight-line (or unrolled) code; every runtime
        # branch and axis-form loop body opens a new one
        self.scope = 0
        self.scopes = itertools.count(1)
        #: (scope, index variable, extent) of every bounds check that
        #: holds here: saved and restored with the env, and dropped for a
        #: binding's variable when :meth:`_set` rebinds it
        self.checks: set = set()
        self.per_block = per_block
        self.shared: Dict[str, _SharedArr] = {}
        self.shared_seq = 0
        self.shared_bytes = 0
        self.loads = 0
        self.axis_arrays: List[Tuple[str, int, int]] = []
        self.reads: set = set()
        self.writes: set = set()
        bd, gd = launch.block_dim, launch.grid_dim
        self.lane_bound = launch.total_threads
        self.geom = self._geometry(bd, gd)

    # ------------------------------------------------------------ geometry
    def _geometry(self, bd, gd):
        """Intrinsic components: launch extents are constants, lane indices
        the interpreter's own arrays, bound per call by the entry prelude
        (:func:`_lane_prelude`) so no compiled entry holds them."""
        geom = {"block_dim": {a: _Const(getattr(bd, a)) for a in _AXES},
                "grid_dim": {a: _Const(getattr(gd, a)) for a in _AXES}}
        int64 = np.dtype(np.int64)
        if self.per_block:
            self.nblocks, self.tpb = gd.total, bd.total
        # a one-block launch has a uniform block index: Python ints
        one_block = gd.total == 1
        geom["thread_idx"] = {a: _Dyn(f"_t{a}", int64, False, True)
                              for a in _AXES}
        if self.per_block and bd.y == bd.z == 1:
            # one-dimensional blocks: lane l of a block is thread_idx.x == l
            geom["thread_idx"]["x"].tid = 0
        geom["block_idx"] = {
            a: _Const(0) if one_block else
            _Dyn(f"_b{a}", int64, True, False, frozenset("B"))
            if self.per_block else _Dyn(f"_b{a}", int64, False, True)
            for a in _AXES}
        return geom

    # -------------------------------------------------------------- naming
    def _new(self, prefix: str = "_t") -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def _sid(self) -> int:
        self.n += 1
        return self.n

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def const_src(self, c: _Const) -> str:
        if c.src is None:
            v = c.value
            if type(v) in (int, bool) or v is None or (
                    type(v) is float and math.isfinite(v)):
                c.src = repr(v)
            else:
                known = self.ns.setdefault("_consts", {})
                c.src = known.get(id(v))
                if c.src is None:
                    c.src = known[id(v)] = f"_k{len(known)}"
                    self.ns[c.src] = v
        return c.src

    def src(self, v) -> str:
        if isinstance(v, _Const):
            if _const_type(v.value) is None and not isinstance(
                    v.value, (str, type(None))):
                raise _fail(f"{type(v.value).__name__} used as a value")
            return self.const_src(v)
        if isinstance(v, _Dyn):
            return v.src
        raise _fail(f"{type(v).__name__} used as a value")

    def vtype(self, v):
        if isinstance(v, _Const):
            t = _const_type(v.value)
            if t is None:
                raise _fail(f"{type(v.value).__name__} used as a number")
            return t
        if isinstance(v, _Dyn):
            return v.type
        raise _fail(f"{type(v).__name__} used as a number")

    def temp(self, v, name: Optional[str] = None):
        """Materialise a runtime value into a variable (Consts pass)."""
        if not isinstance(v, _Dyn) or (name is None and v.src.isidentifier()):
            return v
        target = name or self._new()
        if v.src != target:
            self.emit(f"{target} = {v.src}")
        return _Dyn(target, v.dtype, v.weak, v.lanes, v.axes, v.tid,
                    v.below)

    @staticmethod
    def lanes_of(*vals) -> bool:
        return any(isinstance(v, _Dyn) and v.lanes for v in vals)

    @staticmethod
    def axes_of(*vals):
        out = frozenset()
        for v in vals:
            if isinstance(v, _Dyn):
                out = out | v.axes
        return out

    @staticmethod
    def is_array(v) -> bool:
        return isinstance(v, _Dyn) and (v.lanes or bool(v.axes))

    # ---------------------------------------------------------- promotion
    def _operands(self, vals, arith: bool) -> List[str]:
        """Sources for an elementwise operation, casting any weak value the
        axis form turned into an array to the dtype the interpreter's
        Python scalar would have taken against the strong operands."""
        srcs = [self.src(v) for v in vals]
        if not any(isinstance(v, _Dyn) and v.axes and v.weak is not False
                   for v in vals):
            return srcs
        types = [self.vtype(v) for v in vals]
        strong = [t for t in types if t[1] is False]
        if any(t[0] is None for t in strong):
            raise _fail("axis form meets an operand of unknown dtype")
        for k, (v, t) in enumerate(zip(vals, types)):
            if not (isinstance(v, _Dyn) and v.axes):
                continue
            if t[1] is None:            # mixed weak/strong
                if not strong or any(s[0] != t[0] for s in strong) \
                        or t[0] is None:
                    raise _fail("axis form meets a value of mixed type")
                continue
            if t[1] is False:
                continue
            if not strong:
                if arith and t[0].kind == "b":
                    raise _fail("Python bool arithmetic in the axis form")
                continue
            target = np.result_type(*(s[0] for s in strong), _sample(t))
            if target != t[0]:
                srcs[k] = f"{srcs[k]}.astype({target.name!r})"
        return srcs

    # --------------------------------------------------------- expressions
    def ev(self, node):
        meth = getattr(self, "_e_" + type(node).__name__, None)
        if meth is None or (self.rule == "slices"
                            and not _slice_expression(node)):
            raise _fail(f"unsupported expression {type(node).__name__}")
        return meth(node)

    def _e_Constant(self, node):
        return _Const(node.value)

    def _e_Name(self, node):
        v = self.env.get(node.id, _MISSING)
        if v is _MISSING:
            if node.id in self.globals:
                return _Const(self.globals[node.id])
            if hasattr(builtins, node.id):
                return _Const(getattr(builtins, node.id))
            raise _fail(f"name {node.id!r} is not defined")
        if isinstance(v, _Poison):
            raise _fail(f"{node.id!r} {v.reason}")
        return v

    def _e_Attribute(self, node):
        base = self.ev(node.value)
        if not isinstance(base, _Const):
            raise _fail(f"attribute {node.attr!r} of a runtime value")
        for name, comps in self.geom.items():
            if base.value is getattr(_intrinsics, name):
                if node.attr not in comps:
                    raise _fail(f"{name}.{node.attr} is not lowerable")
                return comps[node.attr]
        try:
            return _Const(getattr(base.value, node.attr))
        except AttributeError:
            raise _fail(f"unknown attribute {node.attr!r}") from None

    def _e_Tuple(self, node):
        return _Seq([self.temp(self.ev(e)) for e in node.elts],
                    self._sid(), False, self.scope)

    def _e_List(self, node):
        seq = self._e_Tuple(node)
        seq.mutable = True
        return seq

    def _e_UnaryOp(self, node):
        v = self.ev(node.operand)
        if isinstance(v, _Const):
            try:
                return _Const({ast.USub: operator.neg, ast.UAdd: operator.pos,
                               ast.Not: operator.not_,
                               ast.Invert: operator.invert}[type(node.op)](
                                   v.value))
            except Exception:   # noqa: BLE001 - let the runtime raise
                pass
        t = self.vtype(v)
        if isinstance(node.op, ast.Not):
            if v.lanes:
                raise _fail("'not' of a lane array")
            if v.axes:
                if t[0] is None or t[0].kind != "b":
                    raise _fail("'not' of a non-boolean in the axis form")
                return _Dyn(f"(~{v.src})", t[0], True, False, v.axes)
            return _Dyn(f"(not {v.src})", np.dtype(bool), True, False)
        sym, fn = {ast.USub: ("-", operator.neg),
                   ast.UAdd: ("+", operator.pos),
                   ast.Invert: ("~", operator.invert)}[type(node.op)]
        rt = _result_type(fn, t)
        return _Dyn(f"({sym}{self.src(v)})", rt[0], rt[1], v.lanes, v.axes)

    def _e_BinOp(self, node):
        a, b = self.ev(node.left), self.ev(node.right)
        sym, fn = _BINOPS.get(type(node.op), (None, None))
        if sym is None:
            raise _fail("unsupported binary operator")
        if isinstance(a, _Seq) and sym == "*" and isinstance(b, _Const) \
                and type(b.value) is int:
            return _Seq(a.items * b.value, self._sid(), a.mutable,
                        self.scope)
        return self._arith(sym, fn, a, b)

    def _arith(self, sym, fn, a, b):
        if isinstance(a, _Const) and isinstance(b, _Const) \
                and _const_type(a.value) and _const_type(b.value):
            try:
                return _Const(fn(a.value, b.value))
            except Exception:   # noqa: BLE001 - let the runtime raise
                pass
        ta, tb = self.vtype(a), self.vtype(b)
        if sym == "**" and any(isinstance(v, _Dyn) and v.axes and v.weak
                               is not False for v in (a, b)):
            raise _fail("Python power in the axis form")
        arith = sym not in ("&", "|", "^")
        sa, sb = self._operands([a, b], arith)
        rt = _result_type(fn, ta, tb)
        out = _Dyn(f"({sa} {sym} {sb})", rt[0], rt[1],
                   self.lanes_of(a, b), self.axes_of(a, b))
        if isinstance(a, _Dyn) and a.tid is not None \
                and isinstance(b, _Const) and _is_int(b.value):
            c = int(b.value)
            if sym in ("+", "-"):
                out.tid = a.tid + c if sym == "+" else a.tid - c
            elif sym in ("<", "<="):
                out.below = min(max(c + (sym == "<=") - a.tid, 0), self.tpb)
        return out

    def _e_Compare(self, node):
        if len(node.ops) != 1 or type(node.ops[0]) not in _CMPOPS:
            raise _fail("unsupported comparison")
        sym, fn = _CMPOPS[type(node.ops[0])]
        return self._arith(sym, fn, self.ev(node.left),
                           self.ev(node.comparators[0]))

    def _pure(self, fn):
        """Evaluate *fn* requiring it to emit no statements and no loads."""
        mark, loads = len(self.lines), self.loads
        out = fn()
        if len(self.lines) != mark or self.loads != loads:
            raise _fail("conditional operand has side effects")
        return out

    def _e_BoolOp(self, node):
        vals = [self.ev(node.values[0])] + [
            self._pure(lambda e=e: self.ev(e)) for e in node.values[1:]]
        if all(isinstance(v, _Const) for v in vals):
            out = vals[0].value
            for v in vals[1:]:
                out = (out and v.value) if isinstance(node.op, ast.And) \
                    else (out or v.value)
            return _Const(out)
        if self.lanes_of(*vals):
            raise _fail("'and'/'or' of lane arrays")
        types = {self.vtype(v) for v in vals}
        # Python's and/or return an operand: its type when all agree
        dtype, weak = types.pop() if len(types) == 1 else (None, None)
        axes = self.axes_of(*vals)
        if axes:
            if dtype is None or dtype.kind != "b":
                raise _fail("'and'/'or' of non-booleans in the axis form")
            sym = " & " if isinstance(node.op, ast.And) else " | "
            return _Dyn("(" + sym.join(self.src(v) for v in vals) + ")",
                        dtype, weak, False, axes)
        sym = " and " if isinstance(node.op, ast.And) else " or "
        return _Dyn("(" + sym.join(self.src(v) for v in vals) + ")",
                    dtype, weak, False)

    def _e_IfExp(self, node):
        test = self.ev(node.test)
        if isinstance(test, _Const):
            return self.ev(node.body if test.value else node.orelse)
        a = self._pure(lambda: self.ev(node.body))
        b = self._pure(lambda: self.ev(node.orelse))
        return self._select(test, a, b)

    def _select(self, test, a, b):
        """``a if test else b`` for a uniform runtime *test*."""
        if test.lanes:
            raise _fail("conditional on a lane array")
        ta, tb = self.vtype(a), self.vtype(b)
        if test.axes:
            if ta != tb or ta[0] is None:
                raise _fail("axis-form select between different types")
            return _Dyn(f"np.where({test.src}, {self.src(a)}, {self.src(b)})",
                        ta[0], ta[1], self.lanes_of(a, b),
                        self.axes_of(test, a, b))
        same = ta == tb
        return _Dyn(f"({self.src(a)} if {test.src} else {self.src(b)})",
                    ta[0] if same else None, ta[1] if same else None,
                    self.lanes_of(a, b), self.axes_of(a, b))

    def _e_Subscript(self, node):
        if self.rule == "slices":
            return self._slice_load(node)
        base = self.ev(node.value)
        if isinstance(base, _Seq):
            idx = self.ev(node.slice)
            if not (isinstance(idx, _Const) and type(idx.value) is int):
                raise _fail("list index is not static")
            try:
                return base.items[idx.value]
            except IndexError:
                raise _fail("static list index out of range") from None
        comps = self._index(node.slice)
        if isinstance(base, _Tensor):
            return self._load(base, comps)
        if isinstance(base, _SharedArr):
            return self._shared_load(base, comps)
        raise _fail("subscript of an unsupported value")

    def _index(self, node) -> List:
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        comps = [self.ev(e) for e in elts]
        for c in comps:
            self.vtype(c)
        return comps

    # --------------------------------------------------------- memory ops
    def _offset(self, t: "_Tensor", comps) -> str:
        """The interpreter's flat offset for *comps*, after the bounds
        checks the tensor needs."""
        if len(comps) != len(t.shape):
            raise _fail("tensor subscript rank does not match its shape")
        if t.checked:
            comps = self._check(comps, t.shape)
        srcs = [self.src(c) for c in comps]
        terms = [s if st == 1 else f"{s} * {st}"
                 for s, st in zip(srcs, t.strides)]
        return " + ".join(f"({x})" for x in terms)

    def _check(self, comps, shape) -> List:
        """Check each index component against its extent, once per
        variable, extent and scope (an expression is bound to a fresh
        variable first), with the interpreter's message: the lane form
        once a lane array reaches the check (``Layout.offset`` hands the
        whole index to ``offset_array`` at its first lane array)."""
        out, lanes = [], False
        for dim, (c, extent) in enumerate(zip(comps, shape)):
            lanes = lanes or self.lanes_of(c)
            if isinstance(c, _Const):
                if not (_is_int(c.value) and 0 <= c.value < extent):
                    # the interpreter raises here; let it
                    raise _fail(f"static index {c.value!r} out of bounds")
                out.append(c)
                continue
            if c.dtype is None or c.dtype.kind not in "iu":
                # ``Layout.offset`` truncates with ``int()``; NumPy would not
                raise _fail("tensor index is not an integer")
            c = self.temp(c)
            key = (self.scope, c.src, extent)
            if key not in self.checks:
                if self.is_array(c):
                    self.emit(f"_check_index({c.src}, {dim}, {extent}, "
                              f"{lanes})")
                else:
                    self.emit(f"if not 0 <= {c.src} < {extent}:")
                    self.emit(f"    raise _index_error({c.src}, {dim}, "
                              f"{extent}, False)")
                self.checks.add(key)
            out.append(c)
        return out

    def _live_index(self, comps) -> List:
        """Inside a grid-stride trip axis, a block's trips past its own
        count gather index 0: the interpreter never runs them, so they must
        not reach a bounds check (their terms fold as ``-0.0``)."""
        live = next((f.live for f in self.frames if f.live), None)
        if live is None:
            return comps
        out = []
        for c in comps:
            if self.is_array(c):
                if c.dtype is None or c.dtype.kind not in "iu":
                    raise _fail("trip-axis index of a non-integer type")
                c = self.temp(_Dyn(f"np.where({live}, {c.src}, 0)", c.dtype,
                                   False, c.lanes, c.axes | {0}))
            out.append(c)
        return out

    def _load(self, t: "_Tensor", comps):
        self.loads += 1
        self.reads.add(t.index)
        comps = self._live_index(comps)
        if not any(self.is_array(c) for c in comps):
            off = self._offset(t, comps)
            if t.dtype == np.float64:
                return _Dyn(f"_f{t.index}.item({off})", t.dtype, True, False)
            return _Dyn(f"_f{t.index}[{off}]", t.dtype, False, False)
        lanes = self.lanes_of(*comps)
        # a float64 load without lanes is a Python float per iteration
        weak = (not lanes) and t.dtype == np.float64
        return _Dyn(f"_f{t.index}[{self._offset(t, comps)}]", t.dtype,
                    weak, lanes, self.axes_of(*comps))

    def _store(self, t: "_Tensor", comps, value) -> None:
        self._no_side_effects("tensor store")
        if not t.mut:
            # the interpreter raises LayoutError here; let it
            raise _fail(f"store into immutable tensor {t.name!r}")
        self.writes.add(t.index)
        self.emit(f"_f{t.index}[{self._offset(t, comps)}] = "
                  f"{self.src(value)}")

    def _shared_index(self, sh: _SharedArr, comps) -> str:
        if len(comps) != 1:
            raise _fail("shared arrays are one-dimensional")
        return f"{sh.src}[_bi, {self.src(comps[0])}]"

    def _shared_load(self, sh: _SharedArr, comps):
        self.loads += 1
        comps = self._live_index(comps)
        lanes = self.lanes_of(*comps)
        return _Dyn(self._shared_index(sh, comps), sh.dtype, False, lanes,
                    self.axes_of(*comps) | frozenset("B"))

    def _no_side_effects(self, what: str) -> None:
        if self.frames:
            raise _fail(f"{what} inside an axis-form loop")

    # ---------------------------------------------------------- slice rule
    def _slice_stmt(self, stmt) -> bool:
        """One statement under the slice rule, read off the kernel IR."""
        env, ir = self.env, self.ir
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            return False        # docstring
        if stmt in ir.early_guards:
            # ``if not any_lane(m): return``: lowered slices are pre-masked
            # and empty lane sets give empty slices, so the guard is a no-op
            self._mask_bounds(ir.early_guards[stmt])
            return False
        if isinstance(stmt, ast.Return) and stmt.value is None:
            return True
        if stmt in ir.clamps:
            self._compress(*ir.clamps[stmt])
            return False
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
            raise _fail(f"unsupported statement {ast.dump(stmt)[:60]}")
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            if stmt in ir.axes:
                axis = ir.axes[stmt][1]
                env[target.id] = _Axis(axis, 0, self.extents[axis])
            else:
                self._mask_bounds(ir.masks.get(stmt))
                env[target.id] = _Poison("is a guard mask")
        elif isinstance(target, ast.Subscript) \
                and isinstance(target.value, ast.Name):
            self._slice_store(target, stmt.value)
        else:
            raise _fail("unsupported assignment target")
        return False

    def _mask_bounds(self, mask) -> Dict[str, Tuple[Optional[int],
                                                   Optional[int]]]:
        """An exact IR guard mask over lane indices as integer bounds.

        Each bound is concretised with the scalar arguments and the launch;
        a mask that dropped a conjunct, constrains a non-lane name or has a
        bound that is not one integer is refused.
        """
        if mask is None or not mask.exact:
            raise _fail("guard mask is not a conjunction of lane comparisons")
        values = self.scalars
        out = {}
        for name, pairs in mask.bounds.items():
            if not isinstance(self.env.get(name), _Axis):
                raise _fail("comparison does not involve a lane index")
            lo, hi = None, None
            for plo, phi in pairs:
                if plo is not None:
                    v = self._bound(plo, values)
                    lo = v if lo is None else max(lo, v)
                if phi is not None:
                    v = self._bound(phi, values)
                    hi = v if hi is None else min(hi, v)
            out[name] = (lo, hi)
        return out

    @staticmethod
    def _bound(expr, values) -> int:
        iv = expr.interval(values)
        if iv is None or not iv.finite or not iv.point \
                or int(iv.lo) != iv.lo:
            raise _fail("guard bound is not a static integer")
        return int(iv.lo)

    def _compress(self, targets, operands, mask) -> None:
        """``i[, j, k] = compress_lanes(m, i[, j, k])`` tightens the axes."""
        names = [getattr(t, "id", None) for t in targets]
        if len(operands) != len(names) or not all(
                isinstance(o, ast.Name) and o.id == name
                and isinstance(self.env.get(name), _Axis)
                for o, name in zip(operands, names)):
            raise _fail("compress_lanes operands must be the lane indices "
                        "being reassigned")
        bounds = self._mask_bounds(mask)
        if not set(bounds) <= set(names):
            raise _fail("guard mask constrains a lane index that is not "
                        "being compressed")
        axes = [self.env[name].axis for name in names]
        if len(set(axes)) != len(axes):
            raise _fail("compress_lanes operands share a launch axis")
        for name in names:
            self.env[name] = self.env[name].tightened(*bounds.get(
                name, (None, None)))

    def _index_components(self, node) -> List[Tuple[str, int]]:
        """Subscript index -> [(lane-var name, constant offset)] per
        dimension: ``i`` or ``i +/- c`` with ``c`` a static integer."""
        comps: List[Tuple[str, int]] = []
        for e in node.elts if isinstance(node, ast.Tuple) else [node]:
            name, off, sign = getattr(e, "id", None), _Const(0), 1
            if isinstance(e, ast.BinOp) and isinstance(e.left, ast.Name) \
                    and isinstance(e.op, (ast.Add, ast.Sub)):
                name, off = e.left.id, self.ev(e.right)
                sign = -1 if isinstance(e.op, ast.Sub) else 1
            if not (isinstance(off, _Const) and _const_type(off.value)
                    and int(off.value) == off.value):
                raise _fail("tensor index is not lane-variable +/- constant")
            if not isinstance(self.env.get(name), _Axis):
                raise _fail(f"tensor index {name!r} is not a lane index")
            comps.append((name, sign * int(off.value)))
        return comps

    def _slice_store(self, target: ast.Subscript, value) -> None:
        env = self.env
        tensor = env.get(target.value.id)
        if not isinstance(tensor, _Tensor):
            raise _fail(f"store into non-tensor {target.value.id!r}")
        if not tensor.mut:
            # the interpreter raises LayoutError here; let it
            raise _fail(f"store into immutable tensor {target.value.id!r}")
        comps = self._index_components(target.slice)
        axes = [env[name].axis for name, _ in comps]
        if len(set(axes)) != len(axes):
            raise _fail("store uses one launch axis for two dimensions")
        # Every populated launch axis must drive a store dimension, or two
        # lanes would scatter different values to one element.
        live_axes = {a for a, n in self.extents.items() if n > 1}
        if not live_axes <= set(axes):
            raise _fail("store does not cover every populated launch axis")
        slices = _slices_for(comps, tensor.shape, env)
        self.store_target = (comps, tensor.index, [False])
        try:
            rhs = self.src(self.ev(value))
            reads_lhs = self.store_target[2][0]
        finally:
            self.store_target = None
        if reads_lhs:
            # The store target appears on its right-hand side: materialise
            # the RHS first, as the lane interpreter's gather does, so an
            # overlapping slice copy cannot read half-written data.
            rhs = f"({rhs}).copy()"
        tensor.stored = True
        self.emit(f"_d{tensor.index}[{slices}] = {rhs}")

    def _slice_load(self, node):
        tensor = self.env.get(getattr(node.value, "id", None))
        if not isinstance(tensor, _Tensor) or self.store_target is None:
            raise _fail("subscript outside a tensor store's right-hand side")
        lhs_comps, lhs_index, reads_lhs = self.store_target
        comps = self._index_components(node.slice)
        # Alignment: a read must enumerate lanes exactly as the store does,
        # else the slice views would pair the wrong elements.
        if [c[0] for c in comps] != [c[0] for c in lhs_comps]:
            raise _fail("tensor read indices are not aligned with the store "
                        "indices")
        if tensor.index == lhs_index:
            reads_lhs[0] = True
        if any(off for _, off in comps):
            tensor.shifted_read = True
        slices = _slices_for(comps, tensor.shape, self.env)
        return _Dyn(f"_d{tensor.index}[{slices}]", tensor.dtype, False, True)

    # ---------------------------------------------------------- call sites
    def _e_Call(self, node):
        fn = self.ev(node.func)
        if not isinstance(fn, _Const):
            raise _fail("call of a runtime value")
        f = fn.value
        kw = {k.arg: k.value for k in node.keywords}
        if None in kw or any(isinstance(a, ast.Starred) for a in node.args):
            raise _fail("star arguments")
        handler = self._HELPERS.get(id(f))
        if handler is not None:
            return getattr(self, handler)(node, kw)
        if kw:
            raise _fail(f"keyword arguments to {getattr(f, '__name__', f)}")
        args = [self.ev(a) for a in node.args]
        if isinstance(f, np.ufunc) or f is np.where:
            return self._numpy_call(f, args)
        if getattr(f, "__module__", None) == "math" or f in (
                int, float, abs):
            return self._scalar_builtin(f, args)
        if isinstance(f, types.FunctionType):
            return self._opaque_call(f, args)
        raise _fail(f"call of {getattr(f, '__name__', type(f).__name__)}")

    def _numpy_call(self, f, args):
        if all(isinstance(a, _Const) for a in args):
            return _Const(f(*(a.value for a in args)))
        types_ = [self.vtype(a) for a in args]
        srcs = self._operands(args, False)
        name = getattr(f, "__name__", "")
        ref = f"np.{name}" if getattr(np, name, None) is f else \
            self.const_src(_Const(f))
        rt = _result_type(f, *types_)
        return _Dyn(f"{ref}({', '.join(srcs)})", rt[0], False,
                    self.lanes_of(*args), self.axes_of(*args))

    def _scalar_builtin(self, f, args):
        if all(isinstance(a, _Const) for a in args):
            return _Const(f(*(a.value for a in args)))
        if len(args) != 1:
            raise _fail(f"{f.__name__} with {len(args)} arguments")
        (a,) = args
        t = self.vtype(a)
        if f is abs:
            return _Dyn(f"abs({a.src})", t[0], t[1], a.lanes, a.axes)
        if a.lanes:
            raise _fail(f"{f.__name__}() of a lane array")
        if a.axes:
            # the axis form evaluates every iteration's scalar at once
            if t[0] is None or t[0].kind not in "iuf":
                raise _fail(f"{f.__name__}() of an unknown type")
            if f is int:
                return _Dyn(f"{a.src}.astype('int64')",
                            np.dtype(np.int64), True, False, a.axes)
            if f is float:
                return _Dyn(f"{a.src}.astype('float64')",
                            np.dtype(np.float64), True, False, a.axes)
            if f is math.sqrt and t[0] == np.float64:
                return _Dyn(f"np.sqrt({a.src})", t[0], True, False, a.axes)
            raise _fail(f"math.{f.__name__} in the axis form")
        ref = f.__name__ if f in (int, float) else f"math.{f.__name__}"
        rt = _result_type(f, t)
        return _Dyn(f"{ref}({a.src})", rt[0], rt[1], False)

    def _opaque_call(self, f, args):
        code = getattr(f, "__code__", None)
        if code is None or set(code.co_names) & _KERNEL_STATE_NAMES:
            raise _fail(f"helper {f.__name__!r} touches kernel state")
        if self.axes_of(*args) and not self.lanes_of(*args):
            raise _fail(f"helper {f.__name__!r} on axis-only values")
        ref = self.const_src(_Const(f))
        call = f"{ref}({', '.join(self.src(a) for a in args)})"
        lanes, axes = self.lanes_of(*args), self.axes_of(*args)
        probe = _probe(f, tuple((self.vtype(a), self.is_array(a))
                                for a in args))
        if isinstance(probe, list):
            names = [self._new() for _ in probe]
            self.emit(f"{', '.join(names)} = {call}")
            return _Seq([_Dyn(n, t[0], t[1], lanes, axes)
                         for n, t in zip(names, probe)], self._sid(), False,
                        self.scope)
        return _Dyn(call, probe[0], probe[1], lanes, axes)

    # -- lane helpers ---------------------------------------------------
    def _h_any_lane(self, node, kw, reducer="any"):
        (m,) = [self.ev(a) for a in node.args]
        if isinstance(m, _Const):
            return _Const(bool(m.value))
        if not m.lanes:
            if m.axes:
                return m
            return _Dyn(f"bool({m.src})", np.dtype(bool), True, False)
        if self.per_block:
            return _Dyn(f"{m.src}.{reducer}(axis=-1, keepdims=True)",
                        np.dtype(bool), True, False, m.axes | frozenset("B"))
        return _Dyn(f"bool({m.src}.{reducer}())", np.dtype(bool), True,
                    False)

    def _h_all_lanes(self, node, kw):
        return self._h_any_lane(node, kw, "all")

    def _h_lane_where(self, node, kw):
        m, a, b = [self.ev(x) for x in node.args]
        if isinstance(m, _Const):
            return a if m.value else b
        if not m.lanes:
            return self._select(m, a, b)
        rt = _result_type(np.where, m.type,
                          self.vtype(a), self.vtype(b))
        sa, sb = self._operands([a, b], False)
        return _Dyn(f"np.where({m.src}, {sa}, {sb})", rt[0], False, True,
                    self.axes_of(m, a, b))

    def _h_compress_lanes(self, node, kw):
        if self.per_block:
            raise _fail("compress_lanes in a per-block body")
        vals = [self.ev(a) for a in node.args]
        m, rest = self.temp(vals[0]), vals[1:]
        out = []
        for v in rest:
            if isinstance(m, _Dyn) and m.lanes and isinstance(v, _Dyn) \
                    and v.lanes:
                if v.axes:
                    raise _fail("compress_lanes of an axis value")
                out.append(_Dyn(f"{v.src}[{m.src}]", v.dtype, v.weak, True))
            else:
                out.append(v)
        if len(out) == 1:
            return out[0]
        return _Seq([self.temp(v) for v in out], self._sid(), False,
                    self.scope)

    def _h_masked_gather(self, node, kw):
        args = [self.ev(a) for a in node.args]
        if "other" in kw:
            args.append(self.ev(kw.pop("other")))
        if kw or len(args) not in (3, 4):
            raise _fail("masked_gather arguments")
        target, index, mask = args[:3]
        other = args[3] if len(args) == 4 else _Const(0.0)
        if not (isinstance(mask, _Dyn) and mask.lanes):
            raise _fail("masked_gather with a uniform mask")
        mask = self.temp(mask)
        safe = self.temp(_Dyn(f"np.where({mask.src}, {self.src(index)}, 0)",
                              np.dtype(np.int64), False, True,
                              self.axes_of(mask, index)))
        if isinstance(target, _Tensor):
            loaded = self._load(target, [safe])
        elif isinstance(target, _SharedArr):
            loaded = self._shared_load(target, [safe])
        else:
            raise _fail("masked_gather target")
        rt = _result_type(np.where, mask.type,
                          loaded.type, self.vtype(other))
        return _Dyn(f"np.where({mask.src}, {loaded.src}, {self.src(other)})",
                    rt[0], False, True, self.axes_of(loaded, mask, other))

    @staticmethod
    def _prefix_slice(target, index, s: int) -> str:
        """``sh[:, c:c+s]``: lanes ``0 .. s`` of ``sh[thread_idx.x + c]``."""
        c = getattr(index, "tid", None)
        if not isinstance(target, _SharedArr) or c is None or c < 0 \
                or c + s > target.size:
            raise _fail("access is not a prefix slice of a shared array")
        return f"{target.src}[:, {c}:{c + s}]"

    def _prefix_value(self, node, s: int):
        """The stored value of a prefix store over the first *s* lanes:
        ufuncs and binary operators over prefix gathers
        ``masked_gather(sh, tid + c, tid < s)`` (each the slice
        ``sh[:, c:c+s]``, the lanes the mask keeps) and values that do not
        vary per lane."""
        if isinstance(node, ast.BinOp):
            sym, fn = _BINOPS.get(type(node.op), (None, None))
            if sym is None:
                raise _fail("unsupported binary operator")
            return self._arith(sym, fn, self._prefix_value(node.left, s),
                               self._prefix_value(node.right, s))
        f = self._pure(lambda: self.ev(node.func)) \
            if isinstance(node, ast.Call) else None
        f = f.value if isinstance(f, _Const) else None
        if isinstance(f, np.ufunc) and not node.keywords:
            return self._numpy_call(f, [self._prefix_value(a, s)
                                        for a in node.args])
        if f is not _intrinsics.masked_gather:
            v = self._pure(lambda: self.ev(node))
            if isinstance(v, _Dyn) and v.lanes:
                raise _fail("prefix store of a whole-block lane value")
            return v
        args = node.args + [k.value for k in node.keywords
                            if k.arg == "other"]
        if len(args) != len(node.args) + len(node.keywords) \
                or len(args) not in (3, 4):
            raise _fail("masked_gather arguments")
        target, index, mask, *other = [self._pure(lambda a=a: self.ev(a))
                                       for a in args]
        src = self._prefix_slice(target, index, s)
        if getattr(mask, "below", None) != s or _result_type(
                np.where, mask.type, (target.dtype, False),
                self.vtype(other[0] if other else _Const(0.0)))[0] \
                != target.dtype:
            raise _fail("gather is not under the store's prefix guard")
        self.loads += 1
        return _Dyn(src, target.dtype, False, True, frozenset("B"))

    def _prefix_store(self, node) -> bool:
        """``masked_store(sh, tid + c, value, tid < s)`` with static ``s``
        in straight-line per-block code, as one slice assignment::

            sh[:, c:c+s] = <value over the first s lanes>

        where *value* combines prefix gathers (:meth:`_prefix_value`).  The
        interpreter's broadcast mask and compressed scatter store the same
        elements; False when the statement has another shape (it then
        lowers as a scatter)."""
        if not self.per_block or self.scope or self.frames \
                or len(node.args) != 4:
            return False
        try:
            mask = self._pure(lambda: self.ev(node.args[3]))
        except LoweringUnsupported:
            return False
        s = getattr(mask, "below", None)
        if not s:
            return False

        def emit():
            dest = self._prefix_slice(self.ev(node.args[0]),
                                      self.ev(node.args[1]), s)
            value = self._prefix_value(node.args[2], s)
            self.emit(f"{dest} = {self.src(value)}")
        try:
            self._attempt(emit)
        except LoweringUnsupported:
            return False
        return True

    def _h_masked_store(self, node, kw):
        if kw:
            raise _fail("masked_store keywords")
        if self._prefix_store(node):
            return None
        target, index, value, mask = [self.ev(a) for a in node.args]
        self._no_side_effects("masked_store")
        if not (isinstance(mask, _Dyn) and mask.lanes):
            raise _fail("masked_store with a uniform mask")
        index, value, mask = (self.temp(v) for v in (index, value, mask))
        if self.per_block:
            shape = f"({self.nblocks}, {self.tpb})"
            m = self.temp(_Dyn(f"np.broadcast_to({mask.src}, {shape})",
                               mask.dtype, False, True))
        else:
            shape, m = f"{mask.src}.shape", mask
        self.emit(f"if {m.src}.any():")
        self.indent += 1
        idx = self.temp(_Dyn(
            f"np.broadcast_to(np.asarray({self.src(index)}), {shape})"
            f"[{m.src}]", np.dtype(np.int64), False, True))
        val = self.temp(_Dyn(
            f"np.broadcast_to(np.asarray({self.src(value)}), {shape})"
            f"[{m.src}]", None, False, True))
        if isinstance(target, _SharedArr):
            self.emit(f"{target.src}[np.broadcast_to(_bi, {shape})[{m.src}], "
                      f"{idx.src}] = {val.src}")
        elif isinstance(target, _Tensor):
            self._store(target, [idx], val)
        else:
            raise _fail("masked_store target")
        self.indent -= 1
        return None

    def _h_barrier(self, node, kw):
        if not self.per_block:
            raise _fail("barrier in a whole-grid body")
        if self.frames:
            raise _fail("barrier inside an axis-form loop")
        self.emit(f"_nbar += {self.nblocks * self.tpb}")
        return None

    def _h_shared_array(self, node, kw):
        args = [self.ev(a) for a in node.args]
        key = self.ev(kw.pop("key")) if "key" in kw else _Const(None)
        space = self.ev(kw.pop("address_space")) if "address_space" in kw \
            else _Const(_intrinsics.AddressSpace.SHARED)
        if kw or len(args) != 2 or not all(
                isinstance(v, _Const) for v in args + [key, space]):
            raise _fail("shared allocation arguments are not static")
        if space.value != _intrinsics.AddressSpace.SHARED:
            raise _fail("thread-local stack allocation")
        if not self.per_block or self.scope:
            raise _fail("shared allocation outside a static per-block body")
        key = key.value if key.value is not None \
            else f"__shared_{self.shared_seq}"
        self.shared_seq += 1
        sh = self.shared.get(key)
        if sh is None:
            dtype = np.dtype(dtype_from_any(args[1].value).to_numpy())
            sh = self.shared[key] = _SharedArr(self._new("_sh"), dtype,
                                               int(args[0].value))
            self.emit(f"{sh.src} = np.zeros(({self.nblocks}, {sh.size}), "
                      f"{dtype.name!r})")
            self.shared_bytes += sh.size * dtype.itemsize
        return sh

    def _h_fetch_add(self, node, kw):
        if kw or len(node.args) != 3:
            raise _fail("Atomic.fetch_add form")
        target = self.ev(node.args[0])
        if not isinstance(target, _Tensor):
            raise _fail("atomic target is not a tensor argument")
        comps = self._index(node.args[1])
        value = self.temp(self.ev(node.args[2]))
        self._no_side_effects("atomic")
        if not target.mut:
            raise _fail(f"atomic on immutable tensor {target.name!r}")
        self.writes.add(target.index)
        f = f"_f{target.index}"
        tuple_index = isinstance(node.args[1], ast.Tuple)
        if not any(self.is_array(c) for c in comps):
            # one read-modify-write, resolved exactly as the interpreter does
            srcs = ", ".join(self.src(c) for c in comps)
            self.ns["_Atomic"] = _atomics.Atomic
            index = f"({srcs},)" if tuple_index else srcs
            self.emit("_nat += 1")
            self.emit(f"_Atomic.fetch_add(_T{target.index}, {index}, "
                      f"{self.src(value)})")
            return None
        flat = self._new()
        if tuple_index:
            # in bounds per dimension, so in bounds of the flat storage
            self.emit(f"{flat} = np.asarray({self._offset(target, comps)}, "
                      f"dtype=np.intp)")
        else:
            self.emit(f"{flat} = np.asarray({self.src(comps[0])}, "
                      f"dtype=np.intp)")
            if target.checked:
                self.emit(f"if {flat}.size and (int({flat}.min()) < 0 or "
                          f"int({flat}.max()) >= {f}.size):")
                self.emit(f"    raise _LaunchError(f'atomic lane index out "
                          f"of bounds for size {{{f}.size}}')")
        self.emit(f"_nat += int({flat}.size)")
        self.emit("with _ATOMIC_LOCK:")
        self.emit(f"    np.add.at({f}, {flat}, {self.src(value)})")
        return None

    def _h_unsupported(self, node, kw):
        raise _fail("unsupported intrinsic call")

    # ---------------------------------------------------------- statements
    def run(self, body) -> bool:
        """Lower *body*; True when it ends in a ``return``."""
        for stmt in body:
            if self.stmt(stmt):
                return True
        return False

    def stmt(self, node) -> bool:
        if self.rule == "slices":
            return self._slice_stmt(node)
        meth = getattr(self, "_s_" + type(node).__name__, None)
        if meth is None:
            raise _fail(f"unsupported statement {type(node).__name__}")
        return bool(meth(node))

    def _s_Pass(self, node):
        return False

    def _s_Expr(self, node):
        if isinstance(node.value, ast.Constant):
            return False        # docstring
        if not isinstance(node.value, ast.Call):
            raise _fail("expression statement")
        call = node.value
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr == "append" \
                and len(call.args) == 1 and not call.keywords:
            seq = self.ev(call.func.value)
            if isinstance(seq, _Seq) and seq.mutable:
                if seq.scope != self.scope:
                    raise _fail("append to a list from an enclosing loop")
                seq.items.append(self.temp(self.ev(call.args[0])))
                return False
        fn = self.ev(call.func)
        if not (isinstance(fn, _Const)
                and self._HELPERS.get(id(fn.value)) in self._STATEMENTS):
            raise _fail("call statement with no lowerable effect")
        self.ev(node.value)
        return False

    def _s_Return(self, node):
        if node.value is not None:
            raise _fail("kernel returns a value")
        if self.frames or self.per_block:
            raise _fail("return inside an axis-form or per-block body")
        self.emit("return _nbar, _nat")
        return True

    def _s_AugAssign(self, node):
        if not isinstance(node.target, ast.Name):
            raise _fail("augmented store")
        cur = self.ev(node.target)
        sym, fn = _BINOPS.get(type(node.op), (None, None))
        if sym is None:
            raise _fail("unsupported augmented operator")
        value = self.ev(node.value)
        if isinstance(cur, _Dyn) and cur.weak is not True:
            raise _fail("in-place update of an array")
        self.bind(node.target.id, self._arith(sym, fn, cur, value))
        return False

    def _s_Assign(self, node):
        if len(node.targets) != 1:
            raise _fail("chained assignment")
        target = node.targets[0]
        if self._accumulate(node):
            return False
        if isinstance(target, ast.Subscript):
            base = self.ev(target.value)
            if isinstance(base, _Seq):
                idx = self.ev(target.slice)
                if not (isinstance(idx, _Const) and type(idx.value) is int
                        and base.mutable
                        and -len(base.items) <= idx.value < len(base.items)):
                    raise _fail("list store with a runtime index")
                self.store(("s", base, idx.value % len(base.items)),
                           self.ev(node.value))
                return False
            value = self.ev(node.value)
            comps = self._index(target.slice)
            if isinstance(base, _Tensor):
                self._store(base, comps, value)
            elif isinstance(base, _SharedArr):
                self._no_side_effects("shared store")
                self.emit(f"{self._shared_index(base, comps)} = "
                          f"{self.src(value)}")
            else:
                raise _fail("store into an unsupported value")
            return False
        self._assign(target, self.ev(node.value))
        return False

    def _assign(self, target, value) -> None:
        if isinstance(target, ast.Name):
            self.bind(target.id, value)
            return
        if not isinstance(target, (ast.Tuple, ast.List)):
            raise _fail("unsupported assignment target")
        n = len(target.elts)
        if isinstance(value, _Seq):
            if len(value.items) != n:
                raise _fail("unpacking arity mismatch")
            for t, v in zip(target.elts, list(value.items)):
                self._assign(t, v)
            return
        if isinstance(value, _Dyn) and value.dtype is None:
            names = [self._new() for _ in range(n)]
            self.emit(f"{', '.join(names)} = {value.src}")
            for t, name in zip(target.elts, names):
                self._assign(t, _Dyn(name, None, None, value.lanes,
                                     value.axes))
            return
        raise _fail("unpacking of a non-sequence")

    # -- bindings -----------------------------------------------------
    # Bindings are keyed ("n", name) for a variable and ("s", seq, index)
    # for a slot of a codegen-time list; each has one stable runtime name.
    @staticmethod
    def _stable(key) -> str:
        return f"v_{key[1]}" if key[0] == "n" else f"_q{key[1].sid}_{key[2]}"

    def _get(self, key, default=_MISSING):
        if key[0] == "n":
            return self.env.get(key[1], default)
        return key[1].items[key[2]]

    def _set(self, key, value) -> None:
        if self.checks:
            # the key's variable is rebound: its checks no longer hold
            var = self._stable(key)
            self.checks = {k for k in self.checks if k[1] != var}
        if key[0] == "n":
            self.env[key[1]] = value
        else:
            key[1].items[key[2]] = value

    def _outer_frame(self, key) -> Optional[_Frame]:
        """The outermost axis-form loop that *key* was bound before."""
        for frame in self.frames:
            if (key[1] in frame.names) if key[0] == "n" \
                    else (id(key[1]) in frame.seqs):
                return frame
        return None

    def bind(self, name: str, value) -> None:
        self.store(("n", name), value)

    def store(self, key, value) -> None:
        # the body is lowered once for all iterations: even a constant
        # (``c = c + 1`` of a constant ``c``) would be bound once, not once
        # per iteration
        if self.frames and self._outer_frame(key) is not None:
            raise _fail("a binding from outside an axis-form loop is "
                        "reassigned inside it")
        if isinstance(value, _Dyn):
            value = self.temp(value, self._stable(key))
        self._set(key, value)

    # -- accumulation ---------------------------------------------------
    def _accumulate(self, node) -> bool:
        """An IR accumulation statement inside an axis-form loop: record
        its term."""
        if not (self.frames and any(node in loop.accumulations
                                    for loop in self.ir.loops.values())):
            return False
        target, value = node.targets[0], node.value
        if isinstance(target, ast.Name):
            key = ("n", target.id)
        else:
            seq = self.ev(target.value)
            idx = self.ev(target.slice)
            if not (isinstance(seq, _Seq) and isinstance(idx, _Const)
                    and type(idx.value) is int
                    and -len(seq.items) <= idx.value < len(seq.items)):
                return False
            key = ("s", seq, idx.value % len(seq.items))
        cur = self._get(key)
        owner = self._outer_frame(key)
        if owner is None or cur is _MISSING:
            return False
        inner = self.frames[-1]
        # it folds at the end of the innermost chunk loop from its owner
        # in (the loops between run one trip at a time), else after it
        frame = next((f for f in reversed(self.frames[owner.depth:])
                      if f.chunked), owner)
        acc = frame.accums.get(key)
        if acc is None:
            if isinstance(cur, _Poison):
                raise _fail("accumulator folds in two loops")
            acc = frame.accums[key] = {
                "key": key, "init": cur, "terms": [], "inner": inner,
                "depth": owner.depth,
                "ext": tuple(f.trip for f in self.frames[owner.depth:])}
            self._set(key, _Poison("is an accumulator read inside its "
                                   "loop"))
        elif acc["inner"] is not inner:
            raise _fail("accumulator updated from two loop bodies")
        term = self.temp(self.ev(value.right))
        t = self.vtype(term)
        if owner.live is not None:
            # a trip the block does not run adds the exact IEEE no-op
            zero = {"f": "-0.0", "i": "0", "u": "0"}.get(
                getattr(t[0], "kind", None))
            if zero is None:
                raise _fail("trip-axis accumulator of a non-numeric type")
            term = self.temp(_Dyn(
                f"np.where({owner.live}, {self.src(term)}, {zero})", t[0],
                t[1], self.lanes_of(term),
                self.axes_of(term) | {owner.depth, "B"}))
        acc["terms"].append(term)
        return True

    def _fold_frame(self, frame: _Frame) -> None:
        for acc in frame.accums.values():
            init, terms = acc["init"], acc["terms"]
            t = self.vtype(init)
            for _ in range(2):
                for term in terms:
                    t = _result_type(operator.add, t, self.vtype(term))
            if t[0] is None or t[1] is None:
                raise _fail("accumulator type is not static")
            key, p = acc["key"], acc["depth"]
            name = self._stable(key)
            lanes = self.lanes_of(init, *terms)
            axes = self.axes_of(init, *terms) - frozenset(
                range(p, p + len(acc["ext"])))
            if frame.chunked and self.src(init) != name:
                raise _fail("accumulator is not in its variable across "
                            "chunks")
            if frame.live is not None:
                # a block with no trips keeps the initial value: a weak
                # start of another dtype must be a constant of the fold
                # dtype's kind that the fold dtype holds exactly
                start, (dtype, weak) = frame.starts.get(key), self.vtype(init)
                if dtype != t[0] and not (
                        isinstance(start, _Const) and weak
                        and dtype.kind == t[0].kind
                        and t[0].type(start.value).item() == start.value):
                    raise _fail("trip-axis accumulator starts at a value "
                                "its fold dtype does not hold")
                if self.vtype(init) != t:
                    # a Python scalar or an array of t[0] (see _operands)
                    t = (t[0], None)
            srcs = [self.src(x) for x in terms]
            if set(acc["ext"]) == {1}:
                # one trip per chunk: the interpreter's own additions
                self.emit(f"{name} = {' + '.join([self.src(init)] + srcs)}")
            else:
                self.emit(f"{name} = _fold({self.src(init)}, "
                          f"({''.join(x + ', ' for x in srcs)}), "
                          f"{p}, {_tuple_src(acc['ext'])}, "
                          f"{t[0].name!r})")
                if not lanes and not axes:
                    self.emit(f"{name} = {name}.item()" if t[1] else
                              f"{name} = {name}[0]")
            self._set(key, _Dyn(name, t[0], t[1], lanes, axes))

    # ---------------------------------------------------------------- if
    def _s_If(self, node):
        test = self.ev(node.test)
        if isinstance(test, _Const):
            return self.run(node.body if test.value else node.orelse)
        if test.lanes:
            raise _fail("if on a lane array")
        if test.axes:
            return self._if_select(test, node)
        return self._if_runtime(test, node)

    def _if_select(self, test, node) -> bool:
        """An axis-varying test: both branches are pure assignments merged
        with ``np.where``, as the interpreter's per-iteration branch."""
        test = self.temp(test)
        results = []
        before = dict(self.env)
        for body in (node.body, node.orelse):
            self.env = dict(before)
            for stmt in body:
                if not (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    raise _fail("axis-form branch is not pure assignments")
                value = self._pure(lambda s=stmt: self.ev(s.value))
                self.env[stmt.targets[0].id] = value
            results.append(self.env)
        self.env = before
        for name in sorted(set(results[0]) | set(results[1])):
            a, b = results[0].get(name), results[1].get(name)
            if a is b:
                continue
            if a is None or b is None:
                self.env[name] = _Poison("is bound on one branch only")
                continue
            self.bind(name, self._select(test, a, b))
        return False

    def _if_runtime(self, test, node) -> bool:
        assigned = assigned_names(node.body + node.orelse)
        for name in sorted(assigned):
            cur = self.env.get(name)
            if isinstance(cur, _Const) and _const_type(cur.value):
                self.bind(name, _Dyn(self.const_src(cur),
                                     *_const_type(cur.value), False))
        saved, before = self._save_env(), self._bindings()
        live = []
        scope, self.scope = self.scope, next(self.scopes)
        for header, body in ((f"if {test.src}:", node.body),
                             ("else:", node.orelse)):
            self._restore_env(saved)
            if body:
                self.emit(header)
                self.indent += 1
                mark = len(self.lines)
                if self.run(body):
                    self.indent -= 1
                    continue            # this branch returned
                if len(self.lines) == mark:
                    self.emit("pass")
                self.indent -= 1
            live.append(self._bindings())
        self.scope = scope
        self._restore_env(saved)
        if not live:
            return True
        for key in set().union(*live):
            vals = [b.get(key, _MISSING) for b in live]
            old = before.get(key, _MISSING)
            if all(v is old for v in vals):
                continue
            first = vals[0]
            if all(v is first for v in vals):
                self._set(key, first)
            elif all(isinstance(v, _Dyn) and (v.src, v.type, v.lanes, v.axes)
                     == (first.src, first.type, first.lanes, first.axes)
                     for v in vals):
                # one variable, assigned on both branches: only its type
                # is known to agree
                self._set(key, first.untagged())
            elif key[0] == "n" or old is not _MISSING:
                self._set(key, _Poison("differs between branches"))
        return False

    # -------------------------------------------------------------- loops
    def _s_For(self, node):
        it = node.iter
        if node.orelse or not isinstance(node.target, ast.Name) or not (
                isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                and it.func.id == "range" and not it.keywords
                and 1 <= len(it.args) <= 3):
            raise _fail("loop is not 'for name in range(...)'")
        bounds = [self.ev(a) for a in it.args]
        if not all(isinstance(b, _Const)
                   and isinstance(b.value, (int, np.integer)) for b in bounds):
            raise _fail("range() with a runtime bound")
        trip = range(*(int(b.value) for b in bounds))
        var = node.target.id
        if len(trip) > 1 and len(it.args) == 1:
            try:
                return self._attempt(lambda: self._for_axis(
                    node, var, len(trip)))
            except LoweringUnsupported:
                if len(trip) > UNROLL_MAX:
                    raise   # over budget: an enclosing loop takes fewer trips
        elif len(trip) > UNROLL_MAX:
            raise _fail("long loop over range() with a start or a step")
        return self._unroll(node.body, var, trip)

    def _unroll(self, body, var: str, trip) -> bool:
        for k in trip:
            self.env[var] = _Const(k)
            if self.run(body):
                return True
        return False

    def _attempt(self, fn):
        state = self._save()
        try:
            return fn()
        except LoweringUnsupported:
            self._restore(state)
            raise

    def _save_env(self):
        seqs = _reachable_seqs(list(self.env.values()))
        return (dict(self.env), [(s, list(s.items)) for s in seqs],
                set(self.checks))

    def _restore_env(self, saved) -> None:
        env, seqs, checks = saved
        self.env = dict(env)
        self.checks = set(checks)
        for seq, items in seqs:
            seq.items = list(items)

    def _bindings(self) -> Dict:
        out = {("n", k): v for k, v in self.env.items()}
        for seq in _reachable_seqs(list(self.env.values())):
            for i, v in enumerate(seq.items):
                out[("s", seq, i)] = v
        return out

    def _save(self):
        return (self._save_env(), len(self.lines), self.loads,
                dict(self.shared), self.shared_seq, self.shared_bytes,
                len(self.axis_arrays), set(self.reads), set(self.writes),
                self.n, self.indent)

    def _restore(self, state) -> None:
        (saved, nlines, self.loads, self.shared, self.shared_seq,
         self.shared_bytes, naxes, self.reads, self.writes, self.n,
         self.indent) = state
        self._restore_env(saved)
        del self.lines[nlines:]
        del self.axis_arrays[naxes:]

    def _for_axis(self, node, var: str, trip: int) -> bool:
        """A static loop with its index on an array axis.

        All trips run at once when the nest's temporaries fit
        :data:`AXIS_BUDGET` elements.  Otherwise, when every enclosing
        axis-form loop runs one trip at a time, the loop runs in chunks of
        the most trips that fit, and a chunk of one always fits (its
        temporaries are those of straight-line code); when an enclosing
        loop runs several trips at once this raises :class:`_OverBudget`
        and that loop retries with fewer trips per chunk.  Chunks run in
        iteration order, so the folds keep the interpreter's order.
        """
        if self.per_block:
            raise _fail("axis form in a per-block body")
        outer = self.lane_bound * math.prod(f.size for f in self.frames)
        nested = any(f.size > 1 for f in self.frames)
        size = min(trip, AXIS_BUDGET // outer)
        if size < trip and nested:
            raise _OverBudget(trip * outer)
        size = max(size, 1)
        while True:
            try:
                return self._attempt(lambda: self._for_chunks(
                    node, var, trip, size))
            except _OverBudget as exc:
                if nested or size == 1:
                    raise
                size = max(1, min(size - 1, size * AXIS_BUDGET // exc.extent))

    def _for_chunks(self, node, var: str, trip: int, size: int) -> bool:
        depth = len(self.frames)
        if size < trip:
            self._stabilise_accumulators(node)
        index, axes = None, frozenset()     # one trip at a time: a scalar
        if size > 1:
            src = self._new("_ax")
            self.axis_arrays.append((src, depth, trip))
            index, axes = src, frozenset({depth})
            if size < trip:
                index = f"{src}[{':, ' * depth}{{c}}:{{c}} + {size}]"

        def bind(frame, k):
            self.env[var] = _Dyn(k, np.dtype(np.int64), True, False, axes)
        self._axis_loop(node.body, trip, size, bind, index)
        self.env[var] = _Const(trip - 1)
        return False

    def _axis_loop(self, body, trips, size: int, bind, index) -> None:
        """Lower *body* once for all *trips* trips of a loop (an int, or the
        source of a runtime count), the trip index *index* on a new array
        axis.

        When *size* is not *trips*, the trips run *size* at a time in a
        chunk loop, *index* formatting the chunk's trip indices from its
        first trip ``{c}`` (None: one trip per chunk, the scalar ``c``
        itself): each accumulator the loop owns lives in its variable
        across chunks (:meth:`_stabilise_accumulators`) and folds once per
        chunk.  *bind(frame, k)* binds the loop's names from the trip
        indices *k*.  A name the body binds is local to the loop, and so is
        a constant when a block may run no trip.
        """
        depth, k = len(self.frames), index
        chunked = size != trips
        if chunked:
            c = self._new("_chunk")
            self.emit(f"for {c} in range(0, {trips}, {size}):")
            self.indent += 1
            k, trips = c, 1
            if index is not None:
                k = self._new("_trip")
                self.emit(f"{k} = {index.format(c=c)}")
                trips = f"len({k})" if depth == 0 else f"{k}.shape[{depth}]"
        names = {n for n, v in self.env.items() if not isinstance(v, _Poison)}
        frame = _Frame(depth, trips, size, chunked, names, {
            id(s) for s in _reachable_seqs(list(self.env.values()))})
        bind(frame, k)
        self.frames.append(frame)
        scope, self.scope = self.scope, next(self.scopes)
        try:
            self.run(body)
        finally:
            self.frames.pop()
            self.scope = scope
        self._fold_frame(frame)
        if chunked:
            self.indent -= 1
        kept = _Poison if frame.live else (_Const, _Poison)
        for name, v in list(self.env.items()):
            if name not in names and not isinstance(v, kept):
                self.env[name] = _Poison("is local to an axis-form loop")

    def _stabilise_accumulators(self, node, skip=None) -> Dict:
        """Materialise each number that the loop's accumulation statements
        target (names other than *skip*, and every slot of a targeted
        local list) into its stable variable, where a chunk loop carries
        it; returns each one's binding before.  Prefix facts hold for one
        iteration only, so they are dropped."""
        names, seqs = set(), {}
        for stmt in self.ir.loops[node].accumulations:
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(self.env.get(target.value.id), _Seq):
                seq = self.env[target.value.id]
                seqs[seq.sid] = seq
        keys = [("n", n) for n in sorted(names - {skip}) if n in self.env]
        keys += [("s", seqs[sid], i) for sid in sorted(seqs)
                 for i in range(len(seqs[sid].items))]
        starts = {}
        for key in keys:
            v = starts[key] = self._get(key)
            if isinstance(v, _Const) and _const_type(v.value):
                v = _Dyn(self.const_src(v), *_const_type(v.value), False)
            if isinstance(v, _Dyn):
                self._set(key, self.temp(v.untagged(), self._stable(key)))
        return starts

    def _s_While(self, node):
        if node.orelse:
            raise _fail("while/else")
        for _ in range(_STATIC_WHILE_MAX):
            state = self._save()
            test = self.ev(node.test)
            if not isinstance(test, _Const):
                self._restore(state)
                break
            if not test.value:
                return False
            if self.run(node.body):
                return True
        else:
            raise _fail("static while loop does not terminate")
        if self.frames:
            raise _fail("runtime while inside an axis-form loop")
        if test.lanes:
            raise _fail("while on a lane array")
        if not test.axes:
            raise _fail("while loop with a runtime test")
        return self._while_trips(node)

    def _while_trips(self, node) -> bool:
        """A per-block grid-stride loop on a leading trip axis::

            while any_lane(i < n):      # n a static int
                ...                     # no stores, barriers, returns
                                        # or loops
                i = i + s               # s a static positive int

        The kernel IR names the loop's induction variable ``i``, its step
        ``s`` and the limit ``n`` of its test.  Block ``b`` runs ``T_b =
        ceil((n - min_lanes i) / s)`` trips (the test is monotone in the
        trip), so trip ``k`` sees ``i + k*s`` on a ``(trips, blocks,
        lanes)`` array, the body runs once over it and ``live[k, b] = k <
        T_b`` is the loop test itself.  The IR's accumulation statements
        fold along the trip axis in iteration order (:func:`_fold`); a trip
        the block does not run adds ``-0.0`` and gathers index 0 instead
        of its own.  Trips run in chunks that keep the arrays within
        :data:`AXIS_BUDGET` elements (:meth:`_axis_loop`), and ``i``
        leaves the loop at ``i + T_b*s``, as in the interpreter.  A name
        bound before the loop may change inside it only as an accumulator;
        any other rebinding, even to a constant, refuses the form.
        """
        loop = self.ir.loops[node]
        induction = loop.induction
        if induction is None or induction.limit is None:
            raise _fail("while loop is not a grid-stride loop")
        if any(isinstance(n, (ast.While, ast.For))
               for stmt in node.body for n in ast.walk(stmt)):
            raise _fail("loop inside a grid-stride loop")
        var, body = induction.name, node.body[:-1]
        limit = self._bound(induction.limit, self.scalars)
        stride = self._pure(lambda: self.ev(induction.step))
        i0 = self.env.get(var)
        if not (body and isinstance(stride, _Const) and _is_int(stride.value)
                and stride.value > 0 and isinstance(i0, _Dyn) and i0.lanes
                and getattr(i0.dtype, "kind", None) == "i"
                and i0.axes <= {"B"}):
            raise _fail("grid-stride loop is not lane-affine with a "
                        "uniform stride")
        stride = int(stride.value)
        starts = self._stabilise_accumulators(node, skip=var)
        i0 = self.temp(i0)
        trips = self._new("_trips")
        chunk = max(1, AXIS_BUDGET // self.lane_bound)
        self.emit(f"{trips} = max(0, -((int({i0.src}.min()) - {limit}) "
                  f"// {stride}))")

        def bind(frame, k):
            frame.starts = starts
            self.env[var] = self.temp(_Dyn(f"({i0.src} + {k} * {stride})",
                                           i0.dtype, False, True,
                                           i0.axes | {0}))
            frame.live = self.temp(self.ev(node.test)).src
        self._axis_loop(body, trips, chunk, bind, "np.arange({c}, min({c} + "
                        f"{chunk}, {trips})).reshape(-1, 1, 1)")
        self.env[var] = _Dyn(
            f"({i0.src} + {stride} * np.maximum(0, -(({i0.src}.min(axis=-1, "
            f"keepdims=True) - {limit}) // {stride})))", i0.dtype, False,
            True, i0.axes)
        return False


#: names whose use inside a helper means it reads per-thread kernel state,
#: which generated code does not bind
_KERNEL_STATE_NAMES = frozenset(
    sum((list(v) for v in _intrinsics.SIMT_MODEL.values()), [])
    + ["current_thread_state", "bind_thread_state", "Atomic",
       *_atomics.ATOMIC_FUNCTIONS])
_BodyLowerer._HELPERS = {id(f): h for f, h in (
    (_intrinsics.any_lane, "_h_any_lane"),
    (_intrinsics.all_lanes, "_h_all_lanes"),
    (_intrinsics.lane_where, "_h_lane_where"),
    (_intrinsics.compress_lanes, "_h_compress_lanes"),
    (_intrinsics.masked_gather, "_h_masked_gather"),
    (_intrinsics.masked_store, "_h_masked_store"),
    (_intrinsics.barrier, "_h_barrier"),
    (_intrinsics.shared_array, "_h_shared_array"),
    (_intrinsics.stack_allocation, "_h_shared_array"),
    (_atomics.Atomic.fetch_add, "_h_fetch_add"),
    (_intrinsics.global_idx, "_h_unsupported"),
    (_intrinsics.current_thread_state, "_h_unsupported"),
    (_atomics.Atomic.fetch_max, "_h_unsupported"),
    (_atomics.Atomic.fetch_min, "_h_unsupported"),
    (_atomics.Atomic.compare_exchange, "_h_unsupported"),
    (_atomics.atomic_add, "_h_unsupported"),
    (_atomics.atomic_max, "_h_unsupported"),
    (_atomics.atomic_min, "_h_unsupported"))}
_BodyLowerer._STATEMENTS = frozenset(
    {"_h_masked_store", "_h_barrier", "_h_fetch_add"})


# ------------------------------------------------------------------ assembly
def _arg_signature(args: Sequence) -> Tuple:
    sig = []
    for a in args:
        if isinstance(a, LayoutTensor):
            lay = a.layout
            sig.append(("T", lay.shape, a.dtype.name, lay.order, lay.strides,
                        a.mut))
        elif isinstance(a, (int, float, np.integer, np.floating)):
            sig.append(("S", type(a).__name__, a))
        else:
            raise _fail(f"unsupported argument type {type(a).__name__}")
    return tuple(sig)


def _bind_params(fn, args: Sequence, indices: Sequence[int],
                 tensors: Dict[int, _Tensor], in_bounds: frozenset):
    """Bind *fn*'s parameters to combined-arg symbols: (env, kernel IR).
    Tensors outside *in_bounds* get bounds checks."""
    ir = kernel_ir(fn)
    if ir is None or not isinstance(ir.fndef, ast.FunctionDef):
        raise _fail("kernel source is unavailable")
    fdef = ir.fndef
    params = [p.arg for p in fdef.args.args]
    if len(params) != len(indices) or fdef.args.vararg or fdef.args.kwarg \
            or fdef.args.kwonlyargs:
        raise _fail("kernel signature does not match its captured arguments")
    env: Dict[str, object] = {}
    for pname, idx in zip(params, indices):
        a = args[idx]
        if isinstance(a, LayoutTensor):
            if a.layout.order != "row_major" or not a.layout.is_contiguous:
                raise _fail(f"tensor {pname!r} is not row-major contiguous")
            sym = tensors.get(idx)
            if sym is None:
                sym = tensors[idx] = _Tensor(idx, a, pname,
                                             idx not in in_bounds)
            env[pname] = sym
        elif isinstance(a, (int, float, np.integer, np.floating)):
            env[pname] = _Const(a, f"_s{idx}")
        else:
            raise _fail(f"unsupported argument type {type(a).__name__}")
    return env, ir


def _fused_parts(kern) -> Optional[Tuple]:
    fn = kern.fn if isinstance(kern, Kernel) else kern
    return getattr(fn, "_repro_fused_parts", None)


def _kernel_parts(kern, args: Sequence):
    parts = _fused_parts(kern)
    if parts is None:
        fn = kern.fn if isinstance(kern, Kernel) else kern
        parts = ((fn, tuple(range(len(args)))),)
    return [(fn.fn if isinstance(fn, Kernel) else fn, indices)
            for fn, indices in parts]


def _kernel_name(kern) -> str:
    return kern.name if isinstance(kern, Kernel) else \
        getattr(kern, "__name__", "kernel")


def _compile(kern, launch, source: str, ns: Optional[Dict] = None):
    name = _kernel_name(kern)
    source = f"# lowered from kernel {name!r} for launch {launch}\n{source}"
    module = types.ModuleType(f"_repro_lowered_{name}")
    module.__dict__.update(ns or {})
    exec(compile(source, f"<lowered:{name}>", "exec"), module.__dict__)
    return module._entry, source


#: generated-code references to argument ``i``: flat data, tensor, scalar,
#: and the row-major view the slice rule indexes
_ARG_TOKEN = re.compile(r"(?<![\w])_([fTsd])(\d+)\b")
_ARG_PRELUDE = {"f": "args[{i}].ptr", "T": "args[{i}]", "s": "args[{i}]",
                "d": "args[{i}].ptr[:{size}].reshape({shape!r})"}
#: generated-code references to lane index arrays
_LANE_TOKEN = re.compile(r"(?<![\w])_(?:[tb][xyz]|bi)\b")


def _lane_prelude(lines: Sequence[str], launch: LaunchConfig,
                  per_block: bool) -> List[str]:
    """Bind the lane index arrays *lines* use: the interpreter's own lane
    geometry for this launch (:mod:`repro.gpu.vector_executor`, memoised
    for a single-chunk launch), as the whole-grid chunk, or per block one
    row of thread indices and one column of block indices."""
    used = {m for line in lines for m in _LANE_TOKEN.findall(line)}
    if not used:
        return []
    bd, gd = launch.block_dim, launch.grid_dim
    if per_block:
        out = [f"_g = _block_geometry(_Dim3{tuple(bd)}, _Dim3{tuple(gd)})",
               "_tx, _ty, _tz = (_c.reshape(1, -1) for _c in "
               "(_g.tx, _g.ty, _g.tz))",
               "_bx, _by, _bz = (_c.reshape(-1, 1) for _c in "
               "(_g.bx, _g.by, _g.bz))"]
        if "_bi" in used:
            out.append(f"_bi = np.arange({gd.total}).reshape(-1, 1)")
        return out
    return [f"_lt, _lb, _ = next(iter(_grid_geometry(_Dim3{tuple(bd)}, "
            f"_Dim3{tuple(gd)})))",
            "_tx, _ty, _tz = _lt.x, _lt.y, _lt.z",
            "_bx, _by, _bz = _lb.x, _lb.y, _lb.z"]


def _generate_rule(kern, args: Sequence, launch: LaunchConfig,
                   rule: str) -> Tuple[object, str]:
    """(entry, source) under one index rule; raises LoweringUnsupported.

    Each kernel body (several for a fused kernel) becomes a ``_part``
    function returning its barrier and atomic counts; ``_entry`` runs them
    in order and adds the shared bytes per block.
    """
    gathers = rule == "gathers"
    if gathers and not single_chunk(launch):
        raise _fail("multi-chunk launch: the interpreter's lane sets are "
                    "per chunk")
    per_block = kernel_uses_barrier(kern)
    ns = {"np": np, "math": math, "_fold": _fold, "_LaunchError": LaunchError,
          "_ATOMIC_LOCK": _atomics._ATOMIC_LOCK, "_Dim3": Dim3,
          "_grid_geometry": _grid_geometry,
          "_block_geometry": _block_geometry, "_check_index": check_index,
          "_index_error": index_error}
    regions = concretize_launch(kern, args, launch)
    in_bounds = regions.in_bounds if regions is not None else frozenset()
    tensors: Dict[int, _Tensor] = {}
    funcs, calls, axis_arrays, n, shared = [], [], [], 0, 0
    for k, (fn, indices) in enumerate(_kernel_parts(kern, args)):
        env, ir = _bind_params(fn, args, indices, tensors, in_bounds)
        low = _BodyLowerer(fn, env, launch, rule, per_block, ns, n, ir)
        low.run(ir.fndef.body)
        if not gathers and not low.lines:
            raise _fail("kernel body lowered to no stores")
        if per_block and launch.grid_dim.total > 1 and low.reads & low.writes:
            # the interpreter runs blocks one after another; a block would
            # read what an earlier block wrote
            raise _fail("per-block body reads a tensor it writes")
        n, shared = low.n, shared + low.shared_bytes
        axis_arrays.extend(low.axis_arrays)
        refs = sorted({(kind, int(i)) for line in low.lines
                       for kind, i in _ARG_TOKEN.findall(line)},
                      key=lambda r: (r[1], r[0]))
        prelude = [f"_{kind}{i} = " + _ARG_PRELUDE[kind].format(
            i=i, shape=getattr(args[i], "shape", ()),
            size=getattr(args[i], "size", 1)) for kind, i in refs]
        prelude += _lane_prelude(low.lines, launch, per_block)
        body = "\n".join(["    _nbar = 0", "    _nat = 0"]
                         + ["    " + line for line in prelude] + low.lines
                         + ["    return _nbar, _nat"])
        funcs.append(f"def _part{k}(*args):\n{body}\n")
        calls.append(f"_part{k}(*args)")
    if not gathers and not single_chunk(launch) and any(
            t.stored and t.shifted_read for t in tensors.values()):
        # The lane interpreter runs such a launch chunk by chunk, so later
        # chunks read what earlier ones stored; whole-array slices cannot.
        raise _fail("multi-chunk launch reads a stored tensor at a shifted "
                    "index")
    rank = 1 + max((depth for _, depth, _ in axis_arrays), default=-1)
    for src, depth, trip in axis_arrays:
        shape = [1] * (rank + 1)
        shape[depth] = trip
        ns[src] = np.arange(trip, dtype=np.int64).reshape(shape)
    if len(calls) == 1:
        entry = f"def _entry(*args):\n    return (*{calls[0]}, {shared})\n"
    else:
        entry = ("def _entry(*args):\n    _nbar = _nat = 0\n"
                 + "".join(f"    _b, _a = {c}\n    _nbar += _b\n"
                           f"    _nat += _a\n" for c in calls)
                 + f"    return _nbar, _nat, {shared}\n")
    return _compile(kern, launch, "\n\n".join(funcs + [entry]), ns)


def _generate(kern, args: Sequence, launch: LaunchConfig) -> Tuple[object, str]:
    """Build (entry, source) for a launch; raises LoweringUnsupported.

    The slice rule when every access is lane-affine, else the gather rule.
    """
    try:
        return _generate_rule(kern, args, launch, "slices")
    except LoweringUnsupported:
        return _generate_rule(kern, args, launch, "gathers")


# -------------------------------------------------------------------- public
def _lower(kern, args: Sequence, launch: LaunchConfig):
    """(entry, source-or-reason): memoised lowering of one specialisation."""
    fn = kern.fn if isinstance(kern, Kernel) else kern
    bd, gd = launch.block_dim, launch.grid_dim
    try:
        key = (fn, (bd.x, bd.y, bd.z, gd.x, gd.y, gd.z), single_chunk(launch),
               _arg_signature(args))
    except LoweringUnsupported as exc:
        return None, str(exc)

    def generate():
        try:
            return _generate(kern, args, launch)
        except LoweringUnsupported as exc:
            return None, str(exc)

    return LOWERED_MEMO.get_or_compute(key, generate)


def lower_launch(kern, args: Sequence, launch: LaunchConfig):
    """Compiled NumPy-slice entry for the launch, or None when unsupported.

    The entry takes the original positional ``*args`` and performs exactly
    the stores the kernel body would; the executor's ``auto`` / ``lowered``
    dispatch runs it and falls back to the interpreter on None.
    """
    return _lower(kern, args, launch)[0]


def lower_source(kern, args: Sequence, launch: LaunchConfig) -> Optional[str]:
    """The generated module source for the launch, or None when unsupported."""
    entry, source = _lower(kern, args, launch)
    return source if entry is not None else None


def lowering_report(kern, args: Sequence, launch: LaunchConfig) -> Dict[str, object]:
    """Structured lowering outcome for inspection tools (``repro graph``)."""
    entry, detail = _lower(kern, args, launch)
    name = kern.name if isinstance(kern, Kernel) else \
        getattr(kern, "__name__", "kernel")
    return {"kernel": name, "lowered": entry is not None,
            ("source" if entry is not None else "reason"): detail}
