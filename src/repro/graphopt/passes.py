"""Optimizing passes over captured :class:`~repro.core.device.DeviceGraph`.

The graph compiler's middle end.  Each pass consumes an ordered op list (the
graph IR recorded at capture) and produces a rewritten list; the pipeline
then re-lowers the result through :meth:`DeviceGraph.rewritten` into fresh
replay steps and a new cached makespan.  Two passes exist, applied in the
canonical order ``elide -> fuse``:

``elide``
    Drop dead and redundant data movement: an H2D copy or memset whose
    buffer nothing reads afterwards (the optimization form of racecheck's
    ``GR203`` *warning*), or whose buffer is fully overwritten before any
    read.  Elision is one forward sweep.

``fuse``
    Merge runs of *adjacent* vector-safe kernels on one stream that share a
    buffer and an identical launch into a single fused kernel, so a replay
    pays one lane-set sweep (one state bind, one geometry fetch, one thunk)
    instead of N.  Legality comes from the static analyses: both bodies
    must be proven lockstep-safe
    (:func:`~repro.gpu.vector_executor.kernel_vector_safe`, the verdict the
    executor dispatches on) and barrier-free, the follower must carry no event
    waits (the leader's waits transfer to the fused op), and the launch must
    fit a single lane chunk (:func:`~repro.gpu.vector_executor.single_chunk`)
    — chunked execution interleaves part bodies per chunk, which is not
    equivalent to running each part over the whole grid in sequence.
    Kernels with barriers/shared memory (e.g. the BabelStream dot reduction)
    and cross-stream neighbours never fuse.

Rewrites never mutate the input graph: modified ops are cloned, removed ops
stay in the rewritten list as *tombstones* (``meta["elided"]`` plus a
``meta["graphopt"]`` provenance record naming the pass and action), which
keeps inspection honest (``repro graph`` shows what was cut) and lets the
race detector skip them while still crediting their reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.racecheck import op_accesses
from ..core.errors import AnalysisError, ConfigurationError
from ..core.kernel import Kernel
from ..gpu.executor import kernel_uses_barrier
from ..gpu.vector_executor import kernel_vector_safe, single_chunk
from ..obs import metrics as _obs_metrics

__all__ = ["GraphOptReport", "PASS_NAMES", "optimize_graph", "parse_passes"]

#: canonical pass order (elision first widens fusion adjacency)
PASS_NAMES = ("elide", "fuse")


@dataclass
class GraphOptReport:
    """What the pipeline did to one graph, for CLI dumps and tests."""

    graph: str
    optimized: str
    passes: Tuple[str, ...]
    ops_before: int = 0
    ops_after: int = 0
    kernels_before: int = 0
    kernels_after: int = 0
    fused: List[dict] = field(default_factory=list)
    elided: List[dict] = field(default_factory=list)
    makespan_before_ms: float = 0.0
    makespan_after_ms: float = 0.0

    def as_dict(self) -> dict:
        return {
            "graph": self.graph,
            "optimized": self.optimized,
            "passes": list(self.passes),
            "ops_before": self.ops_before,
            "ops_after": self.ops_after,
            "kernels_before": self.kernels_before,
            "kernels_after": self.kernels_after,
            "fused": list(self.fused),
            "elided": list(self.elided),
            "makespan_before_ms": self.makespan_before_ms,
            "makespan_after_ms": self.makespan_after_ms,
        }


def parse_passes(passes) -> Tuple[str, ...]:
    """Normalise a pass selection into a canonical-order tuple.

    Accepts ``"all"``, ``"none"``, a comma-separated string or an iterable
    of pass names; unknown names raise :class:`ConfigurationError`.
    """
    if passes is None:
        return ()
    if isinstance(passes, str):
        tokens = [t.strip() for t in passes.split(",") if t.strip()]
    else:
        tokens = [str(t) for t in passes]
    if tokens == ["all"]:
        return PASS_NAMES
    if tokens in ([], ["none"]):
        return ()
    unknown = sorted(set(tokens) - set(PASS_NAMES))
    if unknown:
        raise ConfigurationError(
            f"unknown graphopt pass(es) {unknown}; expected 'all', 'none' "
            f"or a comma list of {PASS_NAMES}"
        )
    return tuple(p for p in PASS_NAMES if p in tokens)


# ------------------------------------------------------------------ plumbing
def _is_elided(op) -> bool:
    return bool((op.meta or {}).get("elided"))


def _clone(op, meta: dict):
    new = op.__class__(op.kind, op.name, op.stream, op.waits, op.buffers,
                       op.work, op.event, meta, op.reads, op.writes)
    new.site = op.site
    return new


def _tombstone(op, pass_name: str, action: str, **extra):
    meta = dict(op.meta or {})
    meta["elided"] = True
    meta["graphopt"] = {"pass": pass_name, "action": action, **extra}
    return _clone(op, meta)


def _kernel_duration_ms(ctx, op) -> float:
    """An op's modelled kernel duration, as ``DeviceGraph._compile`` sees it."""
    meta = op.meta or {}
    timing = meta.get("timing")
    if timing is not None:
        return float(getattr(timing, "kernel_time_ms", timing))
    model = meta.get("model")
    if model is not None:
        return ctx._predict_time(model, meta["launch"])
    return 0.0


# ----------------------------------------------------------------- elide pass
def _next_access(ops: Sequence, start: int, buf) -> Optional[str]:
    """First access kind to *buf* after *start*: "read", "overwrite" or None.

    Elided tombstones are skipped — their effects are gone from the replay.
    Kernel accesses count as reads (a ``mut=True`` tensor is conservatively
    read+write, so a kernel never proves a full overwrite).
    """
    for j in range(start + 1, len(ops)):
        op = ops[j]
        if _is_elided(op):
            continue
        reads, writes = op_accesses(op)
        if any(b is buf for b in reads):
            return "read"
        if op.kind in ("h2d", "memset") and any(b is buf for b in writes):
            return "overwrite"
    return None


def _elide_pass(ops: List, report: GraphOptReport) -> List:
    """One forward sweep: eliding a later write never turns an earlier
    write's next access into a read, so no decision needs revisiting."""
    for i, op in enumerate(ops):
        if _is_elided(op) or op.waits or op.kind not in ("h2d", "memset"):
            # Ops carrying event waits are never elided: the race
            # detector skips tombstones when chaining happens-before,
            # which is only sound for ops that add no event edges.
            continue
        buf = op.buffers[0]
        nxt = _next_access(ops, i, buf)
        if nxt == "read":
            continue
        action = "dead-write" if nxt is None else "redundant-write"
        ops[i] = _tombstone(op, "elide", action, buffer=buf.label)
        report.elided.append({"kind": op.kind, "name": op.name,
                              "buffer": buf.label, "action": action})
    return ops


# ------------------------------------------------------------------ fuse pass
def _fusable_kernel(op) -> bool:
    if op.kind != "kernel" or _is_elided(op):
        return False
    meta = op.meta or {}
    if meta.get("mode", "auto") not in ("auto", "vectorized"):
        return False
    kern = meta.get("kern")
    launch = meta.get("launch")
    if kern is None or launch is None or not single_chunk(launch):
        return False
    return kernel_vector_safe(kern) and not kernel_uses_barrier(kern)


def _same_launch(a, b) -> bool:
    return (a.grid_dim.x, a.grid_dim.y, a.grid_dim.z,
            a.block_dim.x, a.block_dim.y, a.block_dim.z) == \
           (b.grid_dim.x, b.grid_dim.y, b.grid_dim.z,
            b.block_dim.x, b.block_dim.y, b.block_dim.z)


def _launch_compatible(op, leader) -> bool:
    """Fusion launch legality: identical launches, or a proven cover set.

    Identical ``Dim3`` pairs fuse as before.  Otherwise the follower may
    join the run when the symbolic region analysis proves that running it
    under the *leader's* launch touches exactly the same index regions as
    under its own (the extra lanes are all masked off by the kernel's own
    guards) with no access leaving its buffers — then substituting the
    leader's geometry is observationally equivalent and replay stays
    bit-identical.
    """
    la = leader.meta["launch"]
    lb = op.meta["launch"]
    if _same_launch(la, lb):
        return True
    try:
        from ..analysis.regions import covers
        return covers(op.meta["kern"], op.meta["args"], lb, la)
    except Exception:  # pragma: no cover - never let analysis break replay
        return False


def _op_buffer_ids(op) -> set:
    return {id(b) for b in op.buffers}


def _build_fused_kernel(part_ops: Sequence) -> Tuple[Kernel, tuple]:
    """One vector-safe kernel running every part body over the shared args.

    Arguments are deduplicated by identity across parts; each part body is
    invoked with its own argument selection.  Sequencing whole bodies is
    sound exactly because fusion is restricted to single-chunk launches:
    every lane of part *i* completes before part *i+1* reads its output,
    matching the per-kernel replay the unfused graph performs.
    """
    kernels = [op.meta["kern"] for op in part_ops]
    combined: List = []
    positions: Dict[int, int] = {}
    index_map: List[Tuple[int, ...]] = []
    for op in part_ops:
        idxs = []
        for a in op.meta["args"]:
            pos = positions.get(id(a))
            if pos is None:
                pos = positions[id(a)] = len(combined)
                combined.append(a)
            idxs.append(pos)
        index_map.append(tuple(idxs))
    specs = tuple((k, idxs) for k, idxs in zip(kernels, index_map))
    call_specs = tuple((k.fn if isinstance(k, Kernel) else k, idxs)
                       for k, idxs in specs)

    def fused_fn(*fargs):
        for fn, idxs in call_specs:
            fn(*[fargs[x] for x in idxs])

    name = "fused(" + "+".join(k.name for k in kernels) + ")"
    fused_fn.__name__ = fused_fn.__qualname__ = name
    # The wrapper's own source (this loop) is meaningless to the static
    # analyses: the part table is where the verifier, the barrier check,
    # the region analysis and the lowering tier read the parts' facts.
    fused_fn._repro_fused_parts = specs
    return Kernel(fused_fn, name=name), tuple(combined)


def _union_accesses(part_ops: Sequence) -> Tuple[tuple, tuple, tuple]:
    buffers: Dict[int, object] = {}
    reads: Dict[int, object] = {}
    writes: Dict[int, object] = {}
    for op in part_ops:
        for b in op.buffers:
            buffers[id(b)] = b
        r, w = op_accesses(op)
        for b in r:
            reads[id(b)] = b
        for b in w:
            writes[id(b)] = b
    return (tuple(buffers.values()), tuple(reads.values()),
            tuple(writes.values()))


def _emit_fused(ctx, run: List, out: List, report: GraphOptReport) -> None:
    if len(run) < 2:
        out.extend(run)
        return
    first = run[0]
    fused_kern, combined = _build_fused_kernel(run)
    buffers, reads, writes = _union_accesses(run)
    total_ms = sum(_kernel_duration_ms(ctx, op) for op in run)

    def _no_direct_execution():  # pragma: no cover - replay never calls it
        raise AnalysisError(
            f"fused op {fused_kern.name!r} executes through graph replay "
            f"steps only"
        )

    # Fused bodies dispatch through the lowering tier: "lowered" first
    # tries the NumPy-codegen entry for the merged body (one whole-array
    # expression per part store instead of N lockstep sweeps) and falls
    # back to the vector executor when codegen declines the body — so the
    # override can only change speed, never semantics.
    meta = {"kern": fused_kern, "args": combined,
            "launch": first.meta["launch"], "mode": "lowered", "model": None,
            "timing": total_ms,
            "graphopt": {"pass": "fuse",
                         "parts": [op.meta["kern"].name for op in run]}}
    fused_op = first.__class__("kernel", fused_kern.name, first.stream,
                               first.waits, buffers, _no_direct_execution,
                               None, meta, reads, writes)
    fused_op.site = first.site
    out.append(fused_op)
    for op in run:
        out.append(_tombstone(op, "fuse", "fused-into", into=fused_kern.name))
    report.fused.append({"name": fused_kern.name,
                         "parts": [op.meta["kern"].name for op in run],
                         "timing_ms": total_ms})


def _fuse_pass(ctx, ops: List, report: GraphOptReport) -> List:
    out: List = []
    run: List = []
    pending_tombstones: List = []

    def flush():
        _emit_fused(ctx, run, out, report)
        out.extend(pending_tombstones)
        run.clear()
        pending_tombstones.clear()

    for op in ops:
        if _is_elided(op):
            # Tombstones are transparent for adjacency but must keep their
            # position relative to the run they interrupt.
            (pending_tombstones if run else out).append(op)
            continue
        extends = (run and _fusable_kernel(op) and not op.waits
                   and op.stream is run[0].stream
                   and _launch_compatible(op, run[0])
                   and (_op_buffer_ids(op)
                        & set().union(*map(_op_buffer_ids, run))))
        if extends:
            run.append(op)
            continue
        flush()
        if _fusable_kernel(op):
            run.append(op)
        else:
            out.append(op)
    flush()
    return out


# ------------------------------------------------------------------ pipeline
def optimize_graph(graph, passes="all", *, name: Optional[str] = None,
                   check: bool = True):
    """Run the selected passes over *graph*; returns ``(optimized, report)``.

    The input graph is left untouched and stays replayable — the rewritten
    graph is a sibling on the same context (and the same device buffers).
    With ``check=True`` (default) the transformed op list is re-linted
    through the happens-before race detector and any error-severity finding
    raises :class:`~repro.core.errors.AnalysisError`, mirroring
    ``ctx.capture(check=True)`` for compiler output.
    """
    selected = parse_passes(passes)
    ops = list(graph.ops)
    report = GraphOptReport(
        graph=graph.name, optimized=name or f"{graph.name}+opt",
        passes=selected, ops_before=len(ops),
        kernels_before=sum(1 for op in ops
                           if op.kind == "kernel" and not _is_elided(op)),
        makespan_before_ms=graph.makespan_ms)
    if "elide" in selected:
        ops = _elide_pass(ops, report)
    if "fuse" in selected:
        ops = _fuse_pass(graph.ctx, ops, report)
    optimized = graph.rewritten(ops, name=report.optimized)
    optimized._graphopt_report = report
    report.ops_after = sum(1 for op in ops if not _is_elided(op))
    report.kernels_after = optimized.num_kernels
    report.makespan_after_ms = optimized.makespan_ms
    _obs_metrics.inc("graphopt_ops_elided_total", len(report.elided))
    _obs_metrics.inc("graphopt_ops_fused_total", len(report.fused))
    if check:
        from ..analysis.racecheck import analyze_graph

        errors = [d for d in analyze_graph(optimized)
                  if d.severity == "error"]
        if errors:
            findings = "\n".join(f"  {d}" for d in errors)
            raise AnalysisError(
                f"optimized graph {optimized.name!r} failed the race "
                f"check:\n{findings}"
            )
    return optimized, report
