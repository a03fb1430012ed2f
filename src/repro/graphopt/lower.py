"""Lowering tier: compile vector-safe kernel bodies to NumPy-slice code.

The vectorized executor (:mod:`repro.gpu.vector_executor`) already amortises
the Python interpreter over whole lane sets, but every tensor subscript in
the kernel body still pays a fancy-indexing gather/scatter through per-lane
index arrays.  This module goes one step further, the way the paper's MLIR
stack lowers its parametric kernels to target code: a vector-safe body whose
lane indices are *affine* in the launch axes is rewritten — via AST analysis,
not execution — into plain NumPy whole-array slicing, compiled with
``exec`` into a synthetic module, and dispatched by the executor: every
``auto`` (or ``lowered``) launch of a declared vector-safe kernel tries this
tier first.

The contract mirrors a real compiler's legality checking: lowering is a
*best-effort specialisation*.  ``lower_launch`` returns a compiled entry
point when the body fits the supported shape and ``None`` otherwise, and the
executor falls back to the lockstep interpreter — behaviour, counters and
results stay identical either way (the generated code performs the very same
NumPy element operations, in the same order and dtype, that the lane
interpreter would, so results are bit-identical; the property suite in
``tests/property`` holds the compiler to that).

Supported body shape (the SIMT-generic idiom all four science kernels use):

* lane indices bound from affine intrinsics, e.g.
  ``i = block_dim.x * block_idx.x + thread_idx.x`` (any operand order);
* guard masks that are conjunctions of comparisons between a lane index and
  a statically evaluable scalar expression, e.g.
  ``interior = (i > 0) & (i < nx - 1) & ...``;
* the ``if not any_lane(m): return`` early-exit idiom;
* ``i = compress_lanes(m, i)`` / ``i, j, k = compress_lanes(m, i, j, k)``
  range tightening;
* whole-tensor stores ``t[i, j, k] = expr`` whose indices are lane
  variables with constant offsets (``u[i - 1, j, k]``) and whose right-hand
  side is built from ``+ - * /``, scalar arguments, constants and aligned
  tensor reads.

Everything else — ``while`` loops, ``barrier()``, shared memory, masked
gathers, data-dependent indexing, stores into immutable tensors, and
multi-chunk launches that read a stored tensor at a shifted index (the lane
interpreter would see some lanes' writes; whole-array slicing sees none) —
raises :class:`LoweringUnsupported` internally and surfaces as a ``None``
entry (i.e. "keep interpreting"), so the interpreter reports exactly what
it would have.

Specialisation key: the generated source bakes slice *bounds* (derived from
launch extents, scalar argument values and tensor shapes) and is legal only
for row-major contiguous, mutable-where-stored tensors, so compiled entries
are memoised in :data:`LOWERED_MEMO` on (kernel function, launch, whether
the launch is one lane chunk, argument signature), where a tensor's
signature is its shape, dtype, layout order, strides and mutability.  Each
kernel body is parsed once, shared with the static analyses
(:func:`repro.analysis.verifier.kernel_ast`).
Tensor *data* is rebound on every call (the entry re-reads
``args[i].ptr``), so replaying a graph with new H2D bindings reuses the
compiled module.
"""

from __future__ import annotations

import ast
import re
import types
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.verifier import kernel_ast
from ..core.kernel import Kernel, LaunchConfig
from ..core.layout import LayoutTensor
from ..core.memo import Memo
from ..gpu.vector_executor import single_chunk

__all__ = ["LOWERED_MEMO", "LoweringUnsupported", "lower_launch",
           "lower_source", "lowering_report"]

#: ``(entry, source)`` or ``(None, reason)`` per lowered specialisation
LOWERED_MEMO = Memo("lowered")


class LoweringUnsupported(Exception):
    """The kernel body falls outside the lowerable subset (internal)."""


#: intrinsic names whose attributes form affine lane-index expressions
_AXIS_INTRINSICS = ("thread_idx", "block_idx", "block_dim")
_AXES = ("x", "y", "z")
#: scalar-argument references in generated source ("_s<combined index>")
_SCALAR_TOKEN = re.compile(r"_s(\d+)")


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


class _Mask:
    """A guard mask: per-lane-variable half-open bounds."""

    __slots__ = ("bounds",)

    def __init__(self, bounds: Dict[str, Tuple[Optional[int], Optional[int]]]):
        self.bounds = bounds


class _Tensor:
    """A tensor argument: combined-arg index, shape, mutability and whether
    the body stores to it and reads it at a non-zero lane offset."""

    __slots__ = ("index", "shape", "mut", "stored", "shifted_read")

    def __init__(self, index: int, shape: Tuple[int, ...], mut: bool):
        self.index = index
        self.shape = shape
        self.mut = mut
        self.stored = False
        self.shifted_read = False


class _Scalar:
    """A scalar argument: combined-arg index plus its captured value."""

    __slots__ = ("index", "value")

    def __init__(self, index: int, value):
        self.index = index
        self.value = value


def _fail(reason: str) -> "LoweringUnsupported":
    return LoweringUnsupported(reason)


def _axis_extents(launch: LaunchConfig) -> Dict[str, int]:
    bd, gd = launch.block_dim, launch.grid_dim
    return {"x": bd.x * gd.x, "y": bd.y * gd.y, "z": bd.z * gd.z}


# --------------------------------------------------------------------- match
def _intrinsic_component(node) -> Optional[Tuple[str, str]]:
    """``thread_idx.x`` -> ("thread_idx", "x"), else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in _AXIS_INTRINSICS and node.attr in _AXES:
        return node.value.id, node.attr
    return None


def _match_axis_expr(node) -> str:
    """Match the global-linear-index idiom; returns the axis letter.

    Accepts ``thread_idx.A + block_idx.A * block_dim.A`` with the addition
    and the multiplication operands in either order.
    """
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        raise _fail("lane index is not of the form thread_idx + block_idx*block_dim")
    sides = (node.left, node.right)
    thread = next((s for s in sides
                   if (_intrinsic_component(s) or ("", ""))[0] == "thread_idx"),
                  None)
    mult = next((s for s in sides
                 if isinstance(s, ast.BinOp) and isinstance(s.op, ast.Mult)),
                None)
    if thread is None or mult is None:
        raise _fail("lane index is not of the form thread_idx + block_idx*block_dim")
    axis = _intrinsic_component(thread)[1]
    parts = {}
    for s in (mult.left, mult.right):
        comp = _intrinsic_component(s)
        if comp is None:
            raise _fail("lane-index multiplication has a non-intrinsic operand")
        parts[comp[0]] = comp[1]
    if set(parts) != {"block_idx", "block_dim"} \
            or parts["block_idx"] != axis or parts["block_dim"] != axis:
        raise _fail("lane-index terms mix launch axes")
    return axis


def _eval_static(node, env) -> float:
    """Numerically evaluate a scalar expression from constants and scalar args."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value
    if isinstance(node, ast.Name):
        sym = env.get(node.id)
        if isinstance(sym, _Scalar):
            return sym.value
        raise _fail(f"name {node.id!r} is not a scalar argument")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_eval_static(node.operand, env)
    if isinstance(node, ast.BinOp):
        left = _eval_static(node.left, env)
        right = _eval_static(node.right, env)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.FloorDiv):
            return left // right
        if isinstance(node.op, ast.Div):
            return left / right
    raise _fail("bound expression is not statically evaluable")


def _static_int(node, env) -> int:
    value = _eval_static(node, env)
    if int(value) != value:
        raise _fail(f"bound expression evaluates to non-integer {value}")
    return int(value)


def _merge_bounds(into: Dict, frm: Dict) -> None:
    for var, (lo, hi) in frm.items():
        old_lo, old_hi = into.get(var, (None, None))
        if lo is not None:
            old_lo = lo if old_lo is None else max(old_lo, lo)
        if hi is not None:
            old_hi = hi if old_hi is None else min(old_hi, hi)
        into[var] = (old_lo, old_hi)


def _match_mask(node, env) -> _Mask:
    """Match a conjunction of lane-variable comparisons into a :class:`_Mask`."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        bounds: Dict[str, Tuple[Optional[int], Optional[int]]] = {}
        _merge_bounds(bounds, _match_mask(node.left, env).bounds)
        _merge_bounds(bounds, _match_mask(node.right, env).bounds)
        return _Mask(bounds)
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        op = node.ops[0]
        left, right = node.left, node.comparators[0]
        if isinstance(left, ast.Name) and isinstance(env.get(left.id), _Axis):
            var, bound_node, flip = left.id, right, False
        elif isinstance(right, ast.Name) \
                and isinstance(env.get(right.id), _Axis):
            var, bound_node, flip = right.id, left, True
        else:
            raise _fail("comparison does not involve a lane index")
        bound = _static_int(bound_node, env)
        if flip:  # "bound OP var" -> invert the operator direction
            op = {ast.Lt: ast.Gt, ast.Gt: ast.Lt,
                  ast.LtE: ast.GtE, ast.GtE: ast.LtE}.get(type(op), type(op))()
        if isinstance(op, ast.Lt):
            return _Mask({var: (None, bound)})
        if isinstance(op, ast.LtE):
            return _Mask({var: (None, bound + 1)})
        if isinstance(op, ast.Gt):
            return _Mask({var: (bound + 1, None)})
        if isinstance(op, ast.GtE):
            return _Mask({var: (bound, None)})
        raise _fail("unsupported comparison operator in guard mask")
    raise _fail("guard mask is not a conjunction of lane comparisons")


def _is_guard_return(stmt, env) -> bool:
    """Match ``if not any_lane(m): return`` (lowered slices are pre-masked)."""
    if not (isinstance(stmt, ast.If) and not stmt.orelse
            and len(stmt.body) == 1 and isinstance(stmt.body[0], ast.Return)
            and stmt.body[0].value is None):
        return False
    test = stmt.test
    if not (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)):
        return False
    call = test.operand
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "any_lane" and len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and isinstance(env.get(call.args[0].id), _Mask))


def _match_compress(stmt, env) -> Optional[Tuple[List[str], str]]:
    """Match ``i[, j, k] = compress_lanes(m, i[, j, k])`` -> (vars, mask)."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
        return None
    value = stmt.value
    if not (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "compress_lanes"):
        return None
    target = stmt.targets[0]
    if isinstance(target, ast.Name):
        names = [target.id]
    elif isinstance(target, ast.Tuple) \
            and all(isinstance(e, ast.Name) for e in target.elts):
        names = [e.id for e in target.elts]
    else:
        raise _fail("compress_lanes target is not a name tuple")
    if len(value.args) != len(names) + 1:
        raise _fail("compress_lanes arity does not match its targets")
    mask_node, var_nodes = value.args[0], value.args[1:]
    if not (isinstance(mask_node, ast.Name)
            and isinstance(env.get(mask_node.id), _Mask)):
        raise _fail("compress_lanes mask is not a known guard mask")
    for name, node in zip(names, var_nodes):
        if not (isinstance(node, ast.Name) and node.id == name
                and isinstance(env.get(name), _Axis)):
            raise _fail("compress_lanes operands must be the lane indices "
                        "being reassigned")
    return names, mask_node.id


def _apply_compress(names: Sequence[str], mask_name: str, env) -> None:
    mask: _Mask = env[mask_name]
    if not set(mask.bounds) <= set(names):
        raise _fail("guard mask constrains a lane index that is not "
                    "being compressed")
    axes = [env[n].axis for n in names]
    if len(set(axes)) != len(axes):
        raise _fail("compress_lanes operands share a launch axis")
    for name in names:
        lo, hi = mask.bounds.get(name, (None, None))
        env[name] = env[name].tightened(lo, hi)


# ------------------------------------------------------------------- codegen
def _index_components(node, env) -> List[Tuple[str, int]]:
    """Subscript index -> [(lane-var name, constant offset)] per dimension."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    comps: List[Tuple[str, int]] = []
    for e in elts:
        if isinstance(e, ast.Name):
            name, off = e.id, 0
        elif isinstance(e, ast.BinOp) and isinstance(e.left, ast.Name) \
                and isinstance(e.op, (ast.Add, ast.Sub)):
            name = e.left.id
            off = _static_int(e.right, env)
            if isinstance(e.op, ast.Sub):
                off = -off
        else:
            raise _fail("tensor index is not lane-variable +/- constant")
        if not isinstance(env.get(name), _Axis):
            raise _fail(f"tensor index {name!r} is not a lane index")
        comps.append((name, off))
    return comps


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


class _BodyLowerer:
    """Lower one kernel body's statements into NumPy-slice source lines."""

    def __init__(self, env: Dict[str, object], extents: Dict[str, int],
                 tensors: Dict[int, _Tensor]):
        self.env = env
        self.extents = extents
        self.tensors = tensors
        self.lines: List[str] = []

    # ------------------------------------------------------------ expression
    def _emit_expr(self, node, lhs_comps, lhs_index: int,
                   reads_lhs: List[bool]) -> str:
        env = self.env
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (int, float)):
            return repr(node.value)
        if isinstance(node, ast.Name):
            sym = env.get(node.id)
            if isinstance(sym, _Scalar):
                return f"_s{sym.index}"
            raise _fail(f"unsupported value {node.id!r} in expression")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self._emit_expr(node.operand, lhs_comps, lhs_index, reads_lhs)})"
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
            sym = ops.get(type(node.op))
            if sym is None:
                raise _fail("unsupported arithmetic operator")
            left = self._emit_expr(node.left, lhs_comps, lhs_index, reads_lhs)
            right = self._emit_expr(node.right, lhs_comps, lhs_index, reads_lhs)
            return f"({left} {sym} {right})"
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            tensor = env.get(node.value.id)
            if not isinstance(tensor, _Tensor):
                raise _fail(f"subscript of non-tensor {node.value.id!r}")
            comps = _index_components(node.slice, env)
            # Alignment: a read must enumerate lanes exactly as the store
            # does, else the slice views would pair the wrong elements.
            if [c[0] for c in comps] != [c[0] for c in lhs_comps]:
                raise _fail("tensor read indices are not aligned with the "
                            "store indices")
            if tensor.index == lhs_index:
                reads_lhs[0] = True
            if any(off for _, off in comps):
                tensor.shifted_read = True
            return f"_d{tensor.index}[{_slices_for(comps, tensor.shape, env)}]"
        raise _fail("unsupported expression in kernel body")

    # ------------------------------------------------------------- statement
    def lower_statements(self, body: Sequence[ast.stmt]) -> None:
        env = self.env
        for stmt in body:
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                continue  # docstring
            if _is_guard_return(stmt, env):
                continue  # empty lane sets produce empty slices: a no-op
            if isinstance(stmt, ast.Return) and stmt.value is None:
                break
            compress = _match_compress(stmt, env) \
                if isinstance(stmt, ast.Assign) else None
            if compress is not None:
                _apply_compress(compress[0], compress[1], env)
                continue
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
                raise _fail(f"unsupported statement {ast.dump(stmt)[:60]}")
            target = stmt.targets[0]
            if isinstance(target, ast.Name):
                self._lower_binding(target.id, stmt.value)
            elif isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name):
                self._lower_store(target, stmt.value)
            else:
                raise _fail("unsupported assignment target")

    def _lower_binding(self, name: str, value) -> None:
        env = self.env
        try:
            axis = _match_axis_expr(value)
        except LoweringUnsupported:
            env[name] = _match_mask(value, env)
            return
        env[name] = _Axis(axis, 0, self.extents[axis])

    def _lower_store(self, target: ast.Subscript, value) -> None:
        env = self.env
        tensor = env.get(target.value.id)
        if not isinstance(tensor, _Tensor):
            raise _fail(f"store into non-tensor {target.value.id!r}")
        if not tensor.mut:
            # the interpreter raises LayoutError here; let it
            raise _fail(f"store into immutable tensor {target.value.id!r}")
        comps = _index_components(target.slice, env)
        axes = [env[name].axis for name, _ in comps]
        if len(set(axes)) != len(axes):
            raise _fail("store uses one launch axis for two dimensions")
        # Every populated launch axis must drive a store dimension, or two
        # lanes would scatter different values to one element.
        live_axes = {a for a, n in self.extents.items() if n > 1}
        if not live_axes <= set(axes):
            raise _fail("store does not cover every populated launch axis")
        slices = _slices_for(comps, tensor.shape, env)
        reads_lhs = [False]
        rhs = self._emit_expr(value, comps, tensor.index, reads_lhs)
        if reads_lhs[0]:
            # The store target appears on its right-hand side: materialise
            # the RHS first, as the lane interpreter's gather does, so an
            # overlapping slice copy cannot read half-written data.
            rhs = f"({rhs}).copy()"
        tensor.stored = True
        self.lines.append(f"_d{tensor.index}[{slices}] = {rhs}")


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
                 tensors: Dict[int, _Tensor]) -> Tuple[Dict, ast.FunctionDef]:
    """Bind *fn*'s parameters to combined-arg symbols."""
    fdef = kernel_ast(fn)
    if not isinstance(fdef, ast.FunctionDef):
        raise _fail("kernel source is unavailable")
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
                sym = tensors[idx] = _Tensor(idx, a.shape, a.mut)
            env[pname] = sym
        elif isinstance(a, (int, float, np.integer, np.floating)):
            env[pname] = _Scalar(idx, a)
        else:
            raise _fail(f"unsupported argument type {type(a).__name__}")
    return env, fdef


def _fused_parts(kern) -> Optional[Tuple]:
    fn = kern.fn if isinstance(kern, Kernel) else kern
    return getattr(fn, "_repro_fused_parts", None)


def _generate(kern, args: Sequence, launch: LaunchConfig) -> Tuple[object, str]:
    """Build (entry, source) for a launch; raises LoweringUnsupported."""
    extents = _axis_extents(launch)
    parts = _fused_parts(kern)
    if parts is None:
        fn = kern.fn if isinstance(kern, Kernel) else kern
        parts = ((fn, tuple(range(len(args)))),)
    tensors: Dict[int, _Tensor] = {}
    body_lines: List[str] = []
    for fn, indices in parts:
        fn = fn.fn if isinstance(fn, Kernel) else fn
        env, fdef = _bind_params(fn, args, indices, tensors)
        lowerer = _BodyLowerer(env, extents, tensors)
        lowerer.lower_statements(fdef.body)
        if not lowerer.lines:
            raise _fail("kernel body lowered to no stores")
        body_lines.extend(lowerer.lines)
    if not single_chunk(launch) and any(t.stored and t.shifted_read
                                        for t in tensors.values()):
        # The lane interpreter runs such a launch chunk by chunk, so later
        # chunks read what earlier ones stored; whole-array slices cannot.
        raise _fail("multi-chunk launch reads a stored tensor at a shifted "
                    "index")

    name = kern.name if isinstance(kern, Kernel) else \
        getattr(kern, "__name__", "kernel")
    prelude = []
    for idx in sorted(tensors):
        shape = tensors[idx].shape
        size = int(np.prod(shape))
        prelude.append(
            f"_d{idx} = args[{idx}].ptr[:{size}].reshape({shape!r})")
    # Scalar prelude: reference every scalar index the body mentions.
    scalar_idx = sorted({int(m) for line in body_lines
                         for m in _SCALAR_TOKEN.findall(line)})
    for idx in scalar_idx:
        prelude.append(f"_s{idx} = args[{idx}]")
    indent = "\n    ".join(prelude + body_lines)
    source = (f"# lowered from kernel {name!r} for launch {launch}\n"
              f"def _entry(*args):\n    {indent}\n")
    module = types.ModuleType(f"_repro_lowered_{name}")
    code = compile(source, f"<lowered:{name}>", "exec")
    exec(code, module.__dict__)
    return module._entry, source


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
