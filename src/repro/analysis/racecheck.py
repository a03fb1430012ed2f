"""Happens-before race analysis over enqueued device operations.

The modelled-GPU analogue of compute-sanitizer's racecheck.  The input is
an ordered list of device operations — a captured
:class:`~repro.core.device.DeviceGraph`'s ops — and the analysis rebuilds the ordering the runtime itself guarantees:

* **program order** within one stream (streams are FIFO), and
* **event edges**: an operation that waits on an event happens-after the
  latest ``record`` of that event preceding it in enqueue order (the same
  resolution rule ``DeviceGraph._compile`` uses).

Two operations on *different* streams with no happens-before path between
them run concurrently on the modelled device.  If one of them writes a
buffer the other touches, the replayed interleaving the runtime happens to
pick is the only thing standing between the program and a wrong answer —
that is rule ``GR201``.

Whole-buffer conflicts are refined by the symbolic region analysis
(:mod:`repro.analysis.regions`): when both sides' concretized access boxes
are exact, provably disjoint index sets are *not* a race and the pair is
suppressed; overlapping-but-not-identical boxes downgrade to the more
precise ``GR204``.  Inexact (⊤) regions keep the conservative ``GR201``
verdict, so region precision never hides a real race.

Rules
-----
``GR201`` cross-stream race — conflicting accesses (write/write or
read/write) to one buffer from unordered operations on different streams,
where the region analysis cannot prove the index sets disjoint (identical
or unanalyzable regions).

``GR204`` partial-overlap race — the region-precision form of ``GR201``:
both operations' access boxes are exact, they overlap without coinciding,
and the diagnostic names the exact conflicting index interval.  These are
the subtlest races (tile halos, off-by-one partitions), so the extra
precision goes straight into the message.

``GR202`` use-after-free — an operation whose buffer was freed before the
analysis ran (the op would raise at replay; the diagnostic names the
enqueue site when the runtime captured one).

``GR203`` dead transfer — an H2D copy or memset whose buffer is never read
afterwards (no kernel consumes it, no D2H downloads it): the transfer's
modelled bandwidth cost buys nothing.  Warning severity.

The walk is duck-typed over the runtime's ``_Op`` records (``kind`` /
``stream`` / ``waits`` / ``event`` / ``buffers`` / ``meta``), so this
module never imports :mod:`repro.core.device` — the device layer can
lazily import *us* for ``ctx.capture(check=True)`` without a cycle.
Kernel operations that carry explicit ``reads`` / ``writes`` buffer sets
use them; otherwise access sets are derived from the captured argument
list (``mut=False`` tensors are read-only, ``mut=True`` tensors and bare
buffers conservatively read+write).

Graph-compiler provenance: ops tombstoned by a :mod:`repro.graphopt` pass
(``meta["elided"]`` with a ``meta["graphopt"]`` record) contribute no
replay step, so they are skipped as *subjects* of every rule and are
transparent to the happens-before chains (sound because the passes never
elide an op carrying event waits or records).  Their *reads* still count
when deciding whether a write is dead; a fused part reads only what its
fused kernel, placed before it, reads too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from .diagnostics import Diagnostic, Severity

__all__ = [
    "RULE_CROSS_STREAM_RACE",
    "RULE_USE_AFTER_FREE",
    "RULE_DEAD_TRANSFER",
    "RULE_PARTIAL_OVERLAP",
    "analyze_graph",
    "analyze_ops",
    "op_accesses",
    "op_elided",
]

RULE_CROSS_STREAM_RACE = "GR201"
RULE_USE_AFTER_FREE = "GR202"
RULE_DEAD_TRANSFER = "GR203"
RULE_PARTIAL_OVERLAP = "GR204"

#: op kinds that only write their buffer
_WRITE_KINDS = ("h2d", "memset")
#: op kinds that only read their buffer
_READ_KINDS = ("d2h",)


def _is_buffer(obj) -> bool:
    return hasattr(obj, "freed") and hasattr(obj, "label") \
        and hasattr(obj, "count")


def _kernel_accesses(args: Sequence) -> Tuple[tuple, tuple]:
    """(reads, writes) derived from a captured kernel argument list."""
    reads: Dict[int, object] = {}
    writes: Dict[int, object] = {}
    for a in args:
        buf = getattr(a, "device_buffer", None)
        if buf is not None:
            reads[id(buf)] = buf
            if getattr(a, "mut", True):
                writes[id(buf)] = buf
        elif _is_buffer(a):
            reads[id(a)] = a
            writes[id(a)] = a
    return tuple(reads.values()), tuple(writes.values())


def _op_accesses(op) -> Tuple[tuple, tuple]:
    """(reads, writes) buffer sets of one operation."""
    reads = getattr(op, "reads", None)
    writes = getattr(op, "writes", None)
    if reads is not None or writes is not None:
        return tuple(reads or ()), tuple(writes or ())
    kind = getattr(op, "kind", "")
    buffers = tuple(getattr(op, "buffers", ()) or ())
    if kind in _WRITE_KINDS:
        return (), buffers
    if kind in _READ_KINDS:
        return buffers, ()
    if kind == "kernel":
        meta = getattr(op, "meta", None) or {}
        args = meta.get("args")
        if args is not None:
            return _kernel_accesses(args)
        return buffers, buffers
    return (), ()                       # "event" markers touch no memory


#: public alias — the graph optimizer shares this access derivation when
#: deciding elision legality, so detector and compiler cannot
#: disagree about what an op touches
op_accesses = _op_accesses


def op_elided(op) -> bool:
    """True for an op tombstoned by a graph-compiler pass (provenance-tagged)."""
    return bool((getattr(op, "meta", None) or {}).get("elided"))


def _op_site(op) -> str:
    site = getattr(op, "site", None)
    return f" (enqueued at {site})" if site else ""


def _site_location(*ops) -> Tuple[str, Optional[int]]:
    """(source, line) from the first op carrying a recorded enqueue site."""
    for op in ops:
        site = getattr(op, "site", None)
        if not site:
            continue
        path, sep, lineno = str(site).rpartition(":")
        if sep and lineno.isdigit():
            return path, int(lineno)
        return str(site), None
    return "", None


def analyze_ops(ops: Sequence, *, subject: str = "<ops>",
                source: str = "",
                regions: bool = True) -> List[Diagnostic]:
    """Race-check an ordered device-operation list; returns diagnostics.

    *ops* is any sequence of ``_Op``-shaped records in enqueue order —
    enqueue order is a valid topological order of the stream/event DAG, so
    happens-before sets can be built in one forward pass.

    ``regions=False`` disables the region-precision refinement and reports
    every whole-buffer conflict as GR201 — the PR-7 behaviour, kept as the
    soundness baseline the property tests compare against.
    """
    diags: List[Diagnostic] = []
    n = len(ops)
    accesses = [_op_accesses(op) for op in ops]
    elided = [op_elided(op) for op in ops]

    # ---------------------------------------------------------------- GR202
    for op, (reads, writes), dead in zip(ops, accesses, elided):
        if dead:
            continue
        for buf in dict((id(b), b) for b in (*reads, *writes)).values():
            if getattr(buf, "freed", False):
                site_src, site_line = _site_location(op)
                diags.append(Diagnostic(
                    rule=RULE_USE_AFTER_FREE, severity=Severity.ERROR,
                    subject=f"{subject}:{op.name}",
                    message=f"{op.kind} operation {op.name!r} uses freed "
                            f"buffer {buf.label!r}{_op_site(op)}",
                    source=site_src or source, line=site_line,
                    category="graph"))

    # ------------------------------------------------- happens-before sets
    hb: List[Set[int]] = [set() for _ in range(n)]
    last_on_stream: Dict[str, int] = {}
    latest_record: Dict[int, int] = {}
    for i, op in enumerate(ops):
        if elided[i]:
            # Tombstones run nothing and (by pass construction) carry no
            # waits or event records — same-stream FIFO ordering flows
            # through them transitively.
            continue
        stream = getattr(getattr(op, "stream", None), "name", "default")
        preds: List[int] = []
        prev = last_on_stream.get(stream)
        if prev is not None:
            preds.append(prev)
        for ev in getattr(op, "waits", ()) or ():
            rec = latest_record.get(id(ev))
            if rec is not None:
                preds.append(rec)
        for p in preds:
            hb[i].add(p)
            hb[i] |= hb[p]
        last_on_stream[stream] = i
        ev = getattr(op, "event", None)
        if ev is not None:
            latest_record[id(ev)] = i

    # ---------------------------------------------------------------- GR201
    reported: Set[Tuple[str, str, str]] = set()
    for j in range(n):
        r_j, w_j = accesses[j]
        if elided[j] or not (r_j or w_j):
            continue
        stream_j = getattr(getattr(ops[j], "stream", None), "name", "default")
        for i in range(j):
            if elided[i]:
                continue                # tombstones execute nothing
            stream_i = getattr(getattr(ops[i], "stream", None), "name",
                               "default")
            if stream_i == stream_j or i in hb[j]:
                continue                # FIFO or an event edge orders them
            r_i, w_i = accesses[i]
            conflicts = {id(b): b for b in w_i
                         if any(b is o for o in (*r_j, *w_j))}
            conflicts.update((id(b), b) for b in w_j
                             if any(b is o for o in (*r_i, *w_i)))
            for buf in conflicts.values():
                key = (buf.label, ops[i].name, ops[j].name)
                if key in reported:
                    continue
                reported.add(key)
                overlap_txt = ""
                if regions:
                    verdict = _region_verdict(ops[i], ops[j], buf)
                    if verdict == "disjoint":
                        continue        # provably race-free index sets
                    if isinstance(verdict, tuple):
                        _, box, _shape = verdict
                        from .regions import box_text
                        overlap_txt = box_text(box)
                site_src, site_line = _site_location(ops[j], ops[i])
                if overlap_txt:
                    diags.append(Diagnostic(
                        rule=RULE_PARTIAL_OVERLAP, severity=Severity.ERROR,
                        subject=f"{subject}:{buf.label}",
                        message=f"{ops[i].kind} {ops[i].name!r} (stream "
                                f"{stream_i!r}) and {ops[j].kind} "
                                f"{ops[j].name!r} (stream {stream_j!r}) "
                                f"race on buffer {buf.label!r} over the "
                                f"partial index overlap {overlap_txt}; "
                                f"record an Event after the first and "
                                f"stream.wait() it before the second"
                                f"{_op_site(ops[j])}",
                        source=site_src or source, line=site_line,
                        category="graph"))
                    continue
                diags.append(Diagnostic(
                    rule=RULE_CROSS_STREAM_RACE, severity=Severity.ERROR,
                    subject=f"{subject}:{buf.label}",
                    message=f"{ops[i].kind} {ops[i].name!r} (stream "
                            f"{stream_i!r}) and {ops[j].kind} "
                            f"{ops[j].name!r} (stream {stream_j!r}) both "
                            f"touch buffer {buf.label!r} with no event "
                            f"edge between them; record an Event after "
                            f"the first and stream.wait() it before the "
                            f"second{_op_site(ops[j])}",
                    source=site_src or source, line=site_line,
                    category="graph"))

    # ---------------------------------------------------------------- GR203
    for i in range(n):
        op = ops[i]
        if op.kind not in _WRITE_KINDS or elided[i]:
            continue
        _, writes = accesses[i]
        for buf in writes:
            # Elided readers still count (a fused part's reads are its
            # fused kernel's too).
            read_later = any(
                any(b is buf for b in accesses[j][0])
                for j in range(i + 1, n))
            if not read_later:
                site_src, site_line = _site_location(op)
                diags.append(Diagnostic(
                    rule=RULE_DEAD_TRANSFER, severity=Severity.WARNING,
                    subject=f"{subject}:{buf.label}",
                    message=f"{op.kind} {op.name!r} writes buffer "
                            f"{buf.label!r} which nothing reads afterwards "
                            f"(no kernel consumes it, no D2H downloads "
                            f"it); the transfer cost buys nothing"
                            f"{_op_site(op)}",
                    source=site_src or source, line=site_line,
                    category="graph"))
    return diags


def _region_verdict(op_a, op_b, buf):
    """Region refinement of one whole-buffer conflict (never raises).

    The analysis layer must not turn a lint run into a crash: any failure
    inside the region machinery falls back to the whole-buffer verdict.
    """
    try:
        from .regions import region_conflict
        return region_conflict(op_a, op_b, buf)
    except Exception:  # pragma: no cover - defensive
        return None


def analyze_graph(graph, *, regions: bool = True) -> List[Diagnostic]:
    """Race-check a captured :class:`DeviceGraph` (or anything op-shaped).

    Accepts the graph object itself (its recorded ``_ops`` are analysed)
    and names findings after the graph.
    """
    ops = getattr(graph, "_ops", None)
    if ops is None:
        ops = list(graph)
    name = getattr(graph, "name", "<graph>")
    return analyze_ops(ops, subject=name, source="", regions=regions)
