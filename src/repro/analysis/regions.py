"""Symbolic access-region analysis for registered kernel bodies.

A kernel's access regions are read off the shared kernel IR
(:mod:`repro.analysis.kernel_ir`): for every buffer parameter, the
symbolic index of each access — per-dimension
:mod:`~repro.analysis.symexpr` expressions in the launch variables
(``thread_idx.x`` … ``grid_dim.z``) and the kernel's scalar parameters,
tightened by the guard masks, ``compress_lanes`` clamps and ``lane_where``
selects the front end recognises (the same facts the verifier and the
lowering tier read).  The symbolic summary is launch-independent and
memoised on the kernel function; *concretizing* it against an actual launch
and argument list yields integer index boxes per buffer, which feed five
consumers:

* **racecheck** — provably disjoint cross-stream boxes suppress GR201;
  partial overlaps fire ``GR204`` with the exact conflicting interval.
* **verifier/lint** — boxes escaping the buffer extent under a shipped
  launch fire ``KV106``; boxes proven in-bounds discharge syntactic
  ``KV103`` warnings at the same source line.
* **graphopt fusion** — :func:`covers` grants cover-set fusion legality
  when a leader launch reproduces a follower's exact regions.
* **tuning** — :func:`launch_traffic` replaces the heuristic
  bytes-per-thread roofline inputs with exact per-buffer byte counts.
* **bounds checks** — a tensor argument whose every access is proven
  inside its extent (:attr:`ArgRegion.in_bounds`) runs unchecked: the
  executor's interpreters get an unchecked view of it and the lowering
  tier emits no check for it.

Soundness
---------
The front end *over-approximates*: every index a lane can actually
produce lies inside the reported region.  Anything it cannot model — loop
carried variables, calls into helpers, data-dependent indices — degrades
the access to ⊤ (the whole buffer), never to a smaller set.  The one loop
carried exception is an induction variable (``i = i + s`` ends the body
and is ``i``'s only rebinding, ``s`` uniform): in its loop and after it
(zero trips and ``break`` included) it reads ``[start, inf)`` while ``s``
is positive under the launch, else ⊤, so only a guard such as ``i < n``
bounds it, and it is never endpoint-exact.  Disjointness
conclusions drawn from regions are therefore sound.  The opposite
direction (an access *must* go out of bounds) additionally requires the
expression to be endpoint-exact — affine with single-occurrence variables
— and unguarded; only then does ``KV106`` fire as an error.  ``in_bounds``
is the sound direction again: it needs a finite, non-empty box inside the
extent for every access, and a parameter the body never hands anywhere
else (``KernelIR.escapes``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.memo import Memo
from .diagnostics import Diagnostic, Severity
from .kernel_ir import Access, kernel_ir, underlying_fn
from .symexpr import Interval, launch_env

__all__ = [
    "TensorSpec",
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
class RegionSummary:
    """Launch-independent symbolic access summary of one kernel body."""

    kernel: str
    source: str
    params: Tuple[str, ...]
    accesses: Tuple[Access, ...]
    analyzable: bool
    reasons: Tuple[str, ...] = ()
    #: parameters used other than as an access's tensor
    escapes: frozenset = frozenset()


# --------------------------------------------------------------------------
# summaries (launch independent)
# --------------------------------------------------------------------------

#: symbolic access summary per kernel function
REGION_SUMMARY_MEMO = Memo("region_summary")


def kernel_regions(kern) -> RegionSummary:
    """Symbolic access summary of a kernel body; memoised per function."""
    fn = underlying_fn(kern)
    name = getattr(kern, "name", None) or getattr(fn, "__name__", "<kernel>")
    return REGION_SUMMARY_MEMO.get_or_compute(
        fn, lambda: _build_summary(fn, name))


def _build_summary(fn, name: str) -> RegionSummary:
    ir = kernel_ir(fn)
    if ir is None:
        return RegionSummary(kernel=name, source="", params=(),
                             accesses=(), analyzable=False,
                             reasons=("source unavailable",))
    if not ir.analyzable:  # pragma: no cover - pathological bodies
        return RegionSummary(kernel=name, source=ir.source, params=ir.params,
                             accesses=tuple(
                                 Access(p, i, k, 0, None, True, False)
                                 for i, p in enumerate(ir.params)
                                 for k in ("r", "w")),
                             analyzable=False, reasons=("body too deep",))
    return RegionSummary(kernel=name, source=ir.source, params=ir.params,
                         accesses=tuple(a for a in ir.accesses
                                        if a.index is not None),
                         analyzable=True, reasons=ir.unmodelled,
                         escapes=ir.escapes)


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
    populations look identical at the boundary.  ``in_bounds`` is the
    proof that every access stays inside the extent under this launch, so
    the argument runs without bounds checks.
    """

    index: int
    param: str
    shape: Tuple[int, ...]
    elem_bytes: int
    reads: Tuple[Box, ...]
    writes: Tuple[Box, ...]
    exact: bool                       # no ⊤ access hit this argument
    access_key: Tuple = ()            # ((kind, line, raw box | None), ...)
    in_bounds: bool = False           # every access proven inside the extent


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

    @property
    def in_bounds(self) -> frozenset:
        """Positions of the tensor arguments that run unchecked."""
        return frozenset(r.index for r in self.regions if r.in_bounds)


def _arg_key(arg) -> Tuple:
    shape = _arg_shape(arg)
    if shape is not None:
        return ("T", shape, _arg_elem_bytes(arg))
    if isinstance(arg, (bool, int, float, np.generic)):
        return ("S", float(arg))
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


#: concrete access boxes per (kernel function, launch dims, argument
#: signature)
LAUNCH_REGIONS_MEMO = Memo("launch_regions")


def concretize_launch(kern, args, launch) -> Optional[LaunchRegions]:
    """Integer access boxes of *kern* under *launch* with *args* bound.

    Memoised per ``(kernel function, launch dims, argument signature)`` in
    :data:`LAUNCH_REGIONS_MEMO`.  Returns ``None`` when the body source is
    unavailable (the caller falls back to whole-buffer reasoning).
    """
    key = (underlying_fn(kern), _launch_key(launch),
           tuple(_arg_key(a) for a in args))
    return LAUNCH_REGIONS_MEMO.get_or_compute(
        key, lambda: _concretize_uncached(kern, args, launch))


def _concretize_uncached(kern, args, launch) -> Optional[LaunchRegions]:
    fn = underlying_fn(kern)
    parts = getattr(fn, "_repro_fused_parts", None)
    if parts:
        return _concretize_fused(kern, parts, args, launch)
    summary = kernel_regions(kern)
    if not summary.analyzable:
        return None
    return _concretize_summary(summary, args, launch)


def _concretize_fused(kern, parts, args, launch) -> Optional[LaunchRegions]:
    name = getattr(kern, "name", None) or underlying_fn(kern).__name__
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
                    access_key=region.access_key,
                    in_bounds=region.in_bounds)
            else:
                merged[pos] = ArgRegion(
                    index=pos, param=prev.param, shape=prev.shape,
                    elem_bytes=prev.elem_bytes,
                    reads=prev.reads + region.reads,
                    writes=prev.writes + region.writes,
                    exact=prev.exact and region.exact
                    and prev.shape == region.shape,
                    access_key=prev.access_key + region.access_key,
                    in_bounds=prev.in_bounds and region.in_bounds)
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
        key = _arg_key(arg)
        if key[0] == "T":
            shapes[i], elems[i] = key[1], key[2]
        elif key[0] == "S":
            env[pname] = Interval(key[1], key[1])

    reads: Dict[int, List[Box]] = {}
    writes: Dict[int, List[Box]] = {}
    inexact: Set[int] = set()
    # an escaping parameter may be indexed where no access records it
    checked: Set[int] = {i for i in shapes
                         if summary.params[i] in summary.escapes}
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
            checked.add(acc.index)
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
            checked.add(acc.index)
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
            access_key=tuple(keys.get(idx, ())),
            in_bounds=idx not in checked))
    return LaunchRegions(
        kernel=summary.kernel, source=summary.source,
        regions=tuple(regions), oob=tuple(oob),
        proven_lines=frozenset(proven - unproven),
        unproven_lines=frozenset(unproven),
        read_bytes=rb, write_bytes=wb)


def _concrete_box(acc: Access, shape: Tuple[int, ...],
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
    fn = underlying_fn(kern)
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
