"""``DeviceContext``, ``Stream``, ``Event`` and ``DeviceGraph``: the
Mojo-style asynchronous device runtime API.

This is the user-facing entry point that the paper's Listing 1 demonstrates,
extended with the stream/event/graph machinery a real device queue offers:

.. code-block:: python

    ctx = DeviceContext("h100")
    d_u = ctx.enqueue_create_buffer(DType.float32, nx)
    u = LayoutTensor(DType.float32, Layout.row_major(nx), d_u)
    ctx.enqueue_function(fill_one, u, grid_dim=num_blocks, block_dim=block_size)
    ctx.synchronize()

Every ``enqueue_*`` operation lands on a :class:`Stream` (the context's
default stream unless ``stream=`` names another one) and, outside a
capture, executes at enqueue.  Streams are FIFO; cross-stream ordering is
expressed with :class:`Event`::

    h2d, compute = ctx.stream("h2d"), ctx.stream("compute")
    d_u.copy_from_host(host, stream=h2d)
    uploaded = ctx.event("uploaded").record(h2d)
    compute.wait(uploaded)
    ctx.enqueue_function(kern, u, ..., stream=compute)

Timing is overlap-aware: each executed operation occupies a lane of its
stream on the modelled timeline (``start_ms``/``end_ms`` per
:class:`StreamEvent`), so :attr:`DeviceContext.elapsed_ms` reports the
critical-path makespan of the whole pipeline — H2D copies, kernels, memsets
and D2H copies on different streams overlap — while
:attr:`DeviceContext.serial_time_ms` keeps the serial sum.
:meth:`DeviceContext.pipeline_breakdown` summarises both plus the per-stream
busy time as a :class:`PipelineTiming`.

Finally, :meth:`DeviceContext.capture` records an enqueue sequence once into
a replayable :class:`DeviceGraph`::

    with ctx.capture("step") as graph:
        d_u.copy_from_host(u0)
        ctx.enqueue_function(kern, ..., grid_dim=g, block_dim=b)
        d_f.copy_to_host()
    out = graph.replay(u=u1)["f"]      # re-run with new buffer contents

Every operation is recorded as data (:class:`_Op`), its modelled duration
fixed at enqueue, and its effect is one step that :func:`_run_steps` runs:
an enqueue outside a capture runs its op's step at once, and a replay runs
the steps compiled from the captured ops, so both reach the same fault
sites in the same order.  Replay skips all per-enqueue Python work
(argument normalisation, launch validation, modelled-time prediction,
per-op bookkeeping), which is what amortises host-side launch overhead
across sweep repeats.  A replay's place on the timeline is fixed at compile
too: untraced replays of one graph in a row are held as one run entry (the
graph's shape, first start, first replay number and count), so a long
replay loop keeps constant memory.
:attr:`DeviceContext.timeline` and the timing summaries expand runs when
read, into the same events a replay used to append one by one.  A traced
replay appends its events, which carry the compile-time op schedule for
the trace exporter.

Importing this module sets the process's host heap policy (glibc only):
arrays up to one full lockstep chunk's int64 lane array come from the
heap, which is not trimmed below twice that, so warm replays reuse their
transients' pages instead of faulting them in again.
"""

from __future__ import annotations

import ctypes
import itertools
import sys
import weakref
from dataclasses import dataclass, field
from typing import (Dict, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ..gpu.executor import ExecutionResult, KernelExecutor
from ..gpu.memory import Allocation, AllocationTracker, MemorySpace, TransferModel
from ..gpu.specs import GPUSpec, get_gpu
from ..gpu.vector_executor import VECTOR_CHUNK_LANES
from ..obs import trace as _trace
from ..resilience import faults as _faults
from .dtypes import DType, dtype_from_any
from .errors import DeviceError, LaunchError
from .intrinsics import Dim3
from .kernel import KernelModel, LaunchConfig, as_kernel
from .layout import Layout, LayoutTensor

__all__ = ["DeviceBuffer", "DeviceContext", "DeviceGraph", "Event",
           "PipelineTiming", "Stream", "StreamEvent"]

#: glibc ``mallopt`` parameters (``malloc.h``)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _set_heap_policy() -> None:
    """Keep replay-sized host arrays in the allocator's heap.

    glibc maps each block above its mmap threshold afresh and hands heap
    top above its trim threshold back to the OS, so a replay whose
    transients cross them (the lockstep engine's int64 lane arrays, 1 MiB
    for the stencil probe) faults their pages in again every time.  Fixed
    thresholds also stop glibc moving them by what the process freed
    before.  The mmap threshold is one full lockstep chunk's int64 lane
    array plus a page; the trim threshold keeps glibc's ratio of two.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    threshold = VECTOR_CHUNK_LANES * np.dtype(np.int64).itemsize + 4096
    mallopt(_M_MMAP_THRESHOLD, threshold)
    mallopt(_M_TRIM_THRESHOLD, 2 * threshold)


_set_heap_policy()


class DeviceBuffer:
    """A typed, flat allocation in simulated device memory."""

    _ids = itertools.count(1)

    def __init__(self, ctx: "DeviceContext", dtype, count: int, *, label: str = ""):
        self.ctx = ctx
        self.dtype: DType = dtype_from_any(dtype)
        self.count = int(count)
        self.label = label or f"buffer{next(self._ids)}"
        self._allocation: Allocation = ctx._tracker.allocate(
            self.count, self.dtype, label=self.label
        )
        self.array = np.zeros(self.count, dtype=self.dtype.to_numpy())
        self._freed = False

    # ------------------------------------------------------------ properties
    @property
    def nbytes(self) -> int:
        return self.count * self.dtype.sizeof

    @property
    def freed(self) -> bool:
        return self._freed

    # -------------------------------------------------------------- transfers
    def copy_from_host(self, host_array, *,
                       stream: Optional["Stream"] = None) -> "DeviceBuffer":
        """Copy host data into the buffer (modelled H2D transfer).

        The host array is validated at once.  During graph capture it is
        also snapshotted, since the graph replays that source for as long as
        it lives and the caller may mutate their array before then.
        """
        self._check_live()
        src = np.asarray(host_array, dtype=self.dtype.to_numpy()).reshape(-1)
        if src.size != self.count:
            raise DeviceError(
                f"host array has {src.size} elements, buffer holds {self.count}"
            )
        if self.ctx._capture is not None:
            src = src.copy()
        self.ctx._submit_transfer("h2d", self, stream, src=src)
        return self

    def copy_to_host(self, out: Optional[np.ndarray] = None, *,
                     stream: Optional["Stream"] = None) -> Optional[np.ndarray]:
        """Copy the buffer back to the host (modelled D2H transfer).

        Returns the destination array.  During graph capture the call only
        *registers* the download — data is delivered by
        :meth:`DeviceGraph.replay`'s outputs dict — so it returns ``None``
        (and rejects ``out=``, which would silently never be written).
        """
        self._check_live()
        if out is None:
            dest = ret = (
                None if self.ctx._capture is not None
                else np.empty(self.count, dtype=self.dtype.to_numpy()))
        else:
            if self.ctx._capture is not None:
                # A captured D2H delivers through the replay outputs dict;
                # the caller's array would silently never be written.
                raise DeviceError(
                    "copy_to_host(out=...) is not supported during graph "
                    "capture; read the buffer from DeviceGraph.replay()'s "
                    "outputs instead"
                )
            dest = np.asarray(out).reshape(-1)
            if dest.size != self.count:
                raise DeviceError("output array size mismatch")
            if not np.shares_memory(dest, out):
                # reshape(-1) of e.g. an F-order matrix or a list returns a
                # copy; writing into it would silently leave `out` untouched
                raise DeviceError(
                    "output array must be a C-contiguous ndarray (the copy "
                    "writes through a flat view of it)"
                )
            ret = out
        self.ctx._submit_transfer("d2h", self, stream, out=dest)
        return ret

    def fill(self, value, *, stream: Optional["Stream"] = None) -> "DeviceBuffer":
        """Fill the buffer with a scalar value (modelled memset, enqueued)."""
        self.ctx.enqueue_fill(self, value, stream=stream)
        return self

    # ------------------------------------------------------------------ views
    def tensor(self, layout: Optional[Layout] = None, *,
               mut: bool = True) -> LayoutTensor:
        """Create a :class:`LayoutTensor` view over this buffer.

        Accesses are bounds-checked except in a launch whose accesses to
        this tensor the region analysis proves in bounds.
        """
        self._check_live()
        layout = layout or Layout.row_major(self.count)
        return LayoutTensor(self.dtype, layout, self, mut=mut,
                            name=self.label)

    # ----------------------------------------------------------------- free
    def free(self) -> None:
        """Release the allocation (idempotent frees raise DeviceError).

        Work enqueued later against the buffer (through a tensor taken
        before the free, or a graph that captured it) raises
        :class:`DeviceError` when it executes.
        """
        self._check_live()
        self.ctx._tracker.free(self._allocation)
        self._freed = True

    def _check_live(self) -> None:
        if self._freed:
            raise DeviceError(f"use of freed buffer {self.label!r}")

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeviceBuffer({self.label}, {self.dtype.name}[{self.count}])"


@dataclass(slots=True)
class StreamEvent:
    """One entry in the context's executed-operation timeline.

    ``start_ms``/``end_ms`` place the operation on its stream's lane of the
    modelled timeline; ``modelled_time_ms`` is its duration.  Slotted: a
    context keeps one per executed operation and traced graph replay.
    Untraced replays of one graph in a row share a single :class:`_ReplayRun`
    entry instead, which :attr:`DeviceContext.timeline` expands into these
    events when read, so a long replay loop keeps constant memory.
    """

    kind: str                      # "kernel" | "h2d" | "d2h" | "memset" | "event" | "graph"
    name: str
    modelled_time_ms: float = 0.0
    execution: Optional[ExecutionResult] = None
    details: dict = field(default_factory=dict)
    stream: str = "default"
    start_ms: float = 0.0
    end_ms: float = 0.0


class _GraphShape(NamedTuple):
    """What one replay of a compiled graph puts on the timeline."""

    name: str
    makespan_ms: float
    operations: int
    kernels: int
    #: ``(stream, busy_ms, end_offset_ms)`` per stream the graph uses
    lanes: Tuple[Tuple[str, float, float], ...]


class _ReplayRun:
    """Untraced replays of one graph in a row, held as one timeline entry.

    Stands for ``count`` replays numbered from ``first_replay``, each with
    one summary event per lane of ``shape``.  The first starts at
    ``first_start``; each later one starts where the one before ended, at
    ``start + makespan_ms``, which is how :meth:`DeviceGraph.replay`
    advances the clocks.  :meth:`events` repeats that recurrence, so the
    expanded events are bit for bit the ones a replay used to append.
    """

    __slots__ = ("shape", "first_start", "last_start", "first_replay",
                 "count")
    kind = "graph"

    def __init__(self, shape: _GraphShape, start: float, replay: int):
        self.shape = shape
        self.first_start = start
        self.last_start = start
        self.first_replay = replay
        self.count = 1

    def extends(self, shape: _GraphShape, start: float, replay: int) -> bool:
        """Whether a replay of *shape* at *start* continues this run."""
        return (shape is self.shape
                and replay == self.first_replay + self.count
                and start == self.last_start + shape.makespan_ms)

    def events(self) -> Iterator["StreamEvent"]:
        name, makespan, operations, kernels, lanes = self.shape
        start = self.first_start
        for replay in range(self.first_replay, self.first_replay + self.count):
            details = {"operations": operations, "kernels": kernels,
                       "replay": replay}
            for stream, busy, end in lanes:
                yield StreamEvent("graph", name, busy, None, details,
                                  stream=stream, start_ms=start,
                                  end_ms=start + end)
            start = start + makespan

    def durations(self, stream: Optional[str] = None) -> Iterator[float]:
        """``modelled_time_ms`` of each expanded event in order, or of
        *stream*'s events only."""
        busy = tuple(b for s, b, _ in self.shape.lanes if stream in (None, s))
        if not busy:
            return iter(())
        return itertools.chain.from_iterable(
            itertools.repeat(busy, self.count))

    @property
    def end_ms(self) -> float:
        """The latest ``end_ms`` of the expanded events: the last replay's,
        since a replay never starts before the one before it."""
        return max(self.last_start + end for _, _, end in self.shape.lanes)


class Event:
    """A stream marker, as in CUDA/HIP: record on one stream, wait on another.

    ``record(stream)`` enqueues the marker; once it has executed (at
    enqueue, or at the replay of the graph that captured it) its
    :meth:`elapsed_ms` reports the modelled timeline timestamp at which all
    preceding work on the recording stream completed.  ``stream.wait(event)``
    makes subsequently enqueued work on that stream start no earlier than the
    event's timestamp.
    """

    _ids = itertools.count(1)

    def __init__(self, ctx: "DeviceContext", name: str = ""):
        self.ctx = ctx
        self.name = name or f"event{next(self._ids)}"
        self._stream: Optional["Stream"] = None
        self._timestamp_ms: Optional[float] = None

    # ------------------------------------------------------------------ state
    @property
    def recorded(self) -> bool:
        """True once :meth:`record` has enqueued the marker."""
        return self._stream is not None

    # ------------------------------------------------------------------- api
    def record(self, stream: Optional["Stream"] = None) -> "Event":
        """Enqueue this marker on *stream* (default stream when omitted)."""
        stream = self.ctx._resolve_stream(stream)
        self._stream = stream
        self._timestamp_ms = None
        self.ctx._recorded_events.add(self)
        op = _Op("event", self.name, stream, stream._take_waits(), (),
                 {"duration_ms": 0.0, "details": {}}, event=self)
        self.ctx._submit(op)
        return self

    def elapsed_ms(self, since: Optional["Event"] = None) -> float:
        """Modelled timestamp (ms) at which this event completed.

        With *since*, the interval between the two events — the stream-level
        analogue of ``cudaEventElapsedTime``.  Raises :class:`DeviceError`
        for an event that has not executed: never recorded, or recorded
        in a capture whose graph has not replayed.
        """
        if self._timestamp_ms is None:
            raise DeviceError(
                f"event {self.name!r} has no timestamp: it was never "
                f"recorded outside a capture or replayed in a graph"
            )
        if since is not None:
            if since.ctx is not self.ctx:
                # timestamps from different contexts live on unrelated
                # modelled timelines; their difference is meaningless
                raise DeviceError(
                    f"event {since.name!r} does not belong to the same "
                    f"context as {self.name!r}"
                )
            return self._timestamp_ms - since.elapsed_ms()
        return self._timestamp_ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event({self.name}, recorded={self.recorded})"


class Stream:
    """One FIFO lane of a :class:`DeviceContext`.

    Operations enqueued on the same stream execute (and are timed) in
    order; operations on different streams are independent unless ordered
    through :meth:`wait` on an :class:`Event`.
    """

    def __init__(self, ctx: "DeviceContext", name: str, index: int):
        self.ctx = ctx
        self.name = name
        self.index = index
        #: modelled completion time (ms) of the last executed op on this lane
        self._clock_ms = 0.0
        #: events the *next* enqueued op must wait for (FIFO ordering then
        #: carries the dependency to everything behind it)
        self._waits: List[Event] = []

    def wait(self, event: Event) -> "Stream":
        """Order subsequently enqueued work after *event*."""
        if not isinstance(event, Event):
            raise DeviceError(f"stream.wait expects an Event, got {event!r}")
        if event.ctx is not self.ctx:
            # a foreign timestamp would leak another context's absolute
            # timeline into this one's clocks
            raise DeviceError(
                f"event {event.name!r} does not belong to this context"
            )
        if not event.recorded:
            raise DeviceError(
                f"cannot wait on event {event.name!r}: it was never recorded"
            )
        self._waits.append(event)
        return self

    def _take_waits(self) -> Tuple[Event, ...]:
        if not self._waits:
            return ()
        waits, self._waits = tuple(self._waits), []
        return waits

    def synchronize(self) -> "Stream":
        """The context's :meth:`DeviceContext.synchronize`."""
        self.ctx.synchronize()
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Stream({self.name!r}, clock={self._clock_ms:.3f}ms)"


class _Op:
    """One enqueued device operation, as data: executed at once, or captured.

    ``meta`` holds everything the runtime, the graph passes and the race
    detector read: ``duration_ms``, the modelled duration fixed at
    enqueue; ``details``, the timeline event's; a kernel's ``kern``,
    ``args``, ``launch`` and ``mode``; an H2D's ``src``, a D2H's ``out``
    (``None`` when captured) and a memset's ``value``.  Its effect is its
    :func:`_step`.  ``reads`` / ``writes`` are the operation's declared
    buffer access sets (None: derived from ``kind``/``meta`` by consumers
    — see :func:`repro.analysis.racecheck._op_accesses`); ``site`` is the
    user-code enqueue location, captured only when the context records
    sites (lint / strict mode), so the default enqueue path pays nothing.
    """

    __slots__ = ("kind", "name", "stream", "waits", "buffers", "meta",
                 "event", "reads", "writes", "site")

    def __init__(self, kind: str, name: str, stream: Stream,
                 waits: Tuple[Event, ...], buffers: Tuple[DeviceBuffer, ...],
                 meta: dict, event: Optional[Event] = None,
                 reads: Optional[Tuple[DeviceBuffer, ...]] = None,
                 writes: Optional[Tuple[DeviceBuffer, ...]] = None):
        self.kind = kind
        self.name = name
        self.stream = stream
        self.waits = waits
        self.buffers = buffers
        self.meta = meta
        self.event = event
        self.reads = reads
        self.writes = writes
        self.site = None


#: the ``meta`` entry a transfer or memset step takes as its argument
_STEP_ARG = {"h2d": "src", "d2h": "out", "memset": "value"}


def _step(op: _Op, executor: KernelExecutor) -> tuple:
    """*op*'s ``(kind, buffer, argument)`` step for :func:`_run_steps`.

    A kernel's argument is its launch instantiated on *executor*, so
    validation and mode resolution are paid here, once.  Event markers
    have no step.
    """
    meta = op.meta
    if op.kind == "kernel":
        return ("kernel", None, executor.instantiate(
            meta["kern"], meta["args"], meta["launch"], mode=meta["mode"]))
    return (op.kind, op.buffers[0], meta[_STEP_ARG[op.kind]])


def _run_steps(steps: Sequence[tuple], sources: Dict[str, object],
               outputs: Dict[str, np.ndarray]) -> None:
    """Run op steps: the one place a transfer or memset takes effect.

    An eager enqueue runs its op's one step, :meth:`DeviceGraph.replay`
    its compiled steps.  An H2D copies ``sources[label]`` when bound, else
    its own source; a D2H copies into its ``out=`` array, or into a fresh
    ``outputs[label]`` when captured.  Transfers reach the ``transfer.*``
    and ``corrupt.*`` fault sites here; kernel thunks reach the launch
    sites themselves.
    """
    injector = _faults._ACTIVE
    for kind, buf, arg in steps:
        if kind == "kernel":
            arg()
        elif kind == "memset":
            buf.array[...] = arg
        else:
            if injector is not None:
                injector.fail_transfer(kind, buf.label)
            if kind == "h2d":
                sink = buf.array
                sink[...] = sources.get(buf.label, arg)
            elif arg is None:
                sink = outputs[buf.label] = buf.array.copy()
            else:
                sink = arg
                sink[...] = buf.array
            if injector is not None:
                injector.corrupt_transfer(kind, buf.label, sink)


@dataclass
class PipelineTiming:
    """Overlap-aware summary of a context's executed timeline.

    ``elapsed_ms`` is the critical-path makespan across all stream lanes;
    ``serial_ms`` the sum every operation would cost back-to-back on one
    stream.  Their difference is the modelled time the overlap saved.
    """

    elapsed_ms: float
    serial_ms: float
    lanes: Dict[str, float]
    operations: int

    @property
    def overlap_saved_ms(self) -> float:
        return max(self.serial_ms - self.elapsed_ms, 0.0)

    def as_dict(self) -> Dict[str, object]:
        return {
            "elapsed_ms": self.elapsed_ms,
            "serial_ms": self.serial_ms,
            "overlap_saved_ms": self.overlap_saved_ms,
            "lanes": dict(self.lanes),
            "operations": self.operations,
        }


class DeviceGraph:
    """A captured enqueue sequence, replayable with new buffer contents.

    Built by :meth:`DeviceContext.capture`.  :meth:`replay` re-executes the
    recorded operations — H2D sources may be rebound by buffer label — and
    returns the D2H outputs keyed by buffer label.  The modelled cost of a
    replay is the graph's cached critical-path makespan, recorded on the
    timeline as one ``"graph"`` event per stream the graph uses.
    """

    _ids = itertools.count(1)

    def __init__(self, ctx: "DeviceContext", name: str = ""):
        self.ctx = ctx
        self.name = name or f"graph{next(self._ids)}"
        self._ops: List[_Op] = []
        self._compiled = False
        self._steps: List[tuple] = []
        self._h2d_specs: Dict[str, Tuple[DeviceBuffer, object]] = {}
        self._buffers: Tuple[DeviceBuffer, ...] = ()
        self._streams: Tuple[Stream, ...] = ()
        self._event_offsets: List[Tuple[Event, float]] = []
        self._lane_busy_ms: Dict[str, float] = {}
        #: per-stream op schedule (kind/name/start/duration), recorded once
        #: at compile time so trace export can expand a replay's summary
        #: event into its constituent operations without re-simulating.
        self._trace_schedule: Dict[str, List[dict]] = {}
        self._shape: Optional[_GraphShape] = None
        self._makespan_ms = 0.0
        self._serial_ms = 0.0
        self._operations = 0
        self._kernels = 0
        self.replays = 0

    # ------------------------------------------------------------ properties
    @property
    def num_operations(self) -> int:
        return len(self._ops)

    @property
    def ops(self) -> Tuple[_Op, ...]:
        """The captured operation list (read-only view).

        This is the graph IR the optimizer passes in
        :mod:`repro.graphopt` analyze; elided operations stay in the list
        as tombstones (``op.meta["elided"]``) so inspection tools can show
        what a pass removed, while :meth:`_compile` skips them.
        """
        return tuple(self._ops)

    def rewritten(self, ops: Sequence[_Op], *,
                  name: Optional[str] = None) -> "DeviceGraph":
        """A new compiled graph over *ops*, on the same context.

        The transform API the graph optimizer builds on: passes produce a
        rewritten op list (fused kernels, tombstoned transfers) and this
        method re-lowers it into replay steps and a fresh cached makespan.
        The receiver is left untouched, so the unoptimized capture stays
        replayable for bit-identity comparison.
        """
        if not self._compiled:
            raise DeviceError(
                f"graph {self.name!r} is still capturing; close the "
                f"capture block before rewriting"
            )
        new = DeviceGraph(self.ctx, name or f"{self.name}+opt")
        new._ops = list(ops)
        new._compile()
        return new

    @property
    def num_kernels(self) -> int:
        return self._kernels

    @property
    def nbytes(self) -> int:
        """Bytes the graph holds: its live buffers plus the host sources
        snapshotted at capture."""
        return (sum(buf.nbytes for buf in self._buffers)
                + sum(getattr(src, "nbytes", 0)
                      for _, src in self._h2d_specs.values()))

    @property
    def makespan_ms(self) -> float:
        """Cached critical-path duration of one replay."""
        return self._makespan_ms

    @property
    def pipeline(self) -> PipelineTiming:
        """The :class:`PipelineTiming` of one replay, fixed at compile.

        Equal to :meth:`DeviceContext.pipeline_breakdown` of a fresh
        context that enqueued the captured sequence: per-lane busy time,
        the makespan, the serial sum in capture order and the operation
        count including event markers.
        """
        return PipelineTiming(elapsed_ms=self._makespan_ms,
                              serial_ms=self._serial_ms,
                              lanes=dict(self._lane_busy_ms),
                              operations=self._operations)

    @property
    def input_labels(self) -> Tuple[str, ...]:
        """Buffer labels whose H2D source may be rebound at replay."""
        return tuple(self._h2d_specs)

    # -------------------------------------------------------------- capture
    def _record(self, op: _Op) -> None:
        self._ops.append(op)

    def _compile(self) -> None:
        """Lower the captured ops into replay steps and the cached makespan.

        Runs once, when the capture block closes: each kernel launch is
        instantiated here instead of on every replay, and the makespan sums
        the durations the ops carry from enqueue.
        """
        steps: List[tuple] = []
        copies: set = set()
        clocks: Dict[str, float] = {}
        busy: Dict[str, float] = {}
        buffers: Dict[int, DeviceBuffer] = {}
        streams: Dict[str, Stream] = {}
        serial = 0.0
        operations = 0
        ctx = self.ctx
        for op in self._ops:
            meta = op.meta
            if meta.get("elided"):
                # Tombstone left by a graphopt pass: the op stays in the IR
                # for inspection/provenance but contributes no replay step,
                # no makespan time and no live-buffer requirement.
                continue
            operations += 1
            streams[op.stream.name] = op.stream
            for buf in op.buffers:
                buffers[id(buf)] = buf
            duration = meta["duration_ms"]
            if op.kind == "kernel":
                self._kernels += 1
            elif op.kind in ("h2d", "d2h"):
                buf = op.buffers[0]
                if (op.kind, buf.label) in copies:
                    # Two uploads (or downloads) under one label — of one
                    # buffer (a mid-graph re-seed, an intermediate snapshot)
                    # or of two buffers sharing a label — would make a
                    # replay binding rebind both, or the label-keyed outputs
                    # keep only the last, changing the captured semantics.
                    raise DeviceError(
                        f"graph {self.name!r} captured two "
                        f"{op.kind.upper()} copies under the label "
                        f"{buf.label!r}; replay bindings and outputs are "
                        f"keyed by label — copy once, or use "
                        f"distinctly-labelled buffers"
                    )
                copies.add((op.kind, buf.label))
                if op.kind == "h2d":
                    self._h2d_specs[buf.label] = (buf, meta["src"])
            start = clocks.get(op.stream.name, 0.0)
            for ev in op.waits:
                # reversed: a wait observes the *latest* record of the event
                # that precedes it in the capture, as on a real stream
                marker = next((off for e, off in reversed(self._event_offsets)
                               if e is ev), None)
                if marker is None:
                    # Same rule as CUDA stream capture: a captured wait must
                    # target an event recorded inside the capture, otherwise
                    # the declared dependency would silently vanish from the
                    # replayed DAG and its makespan.
                    raise DeviceError(
                        f"graph {self.name!r} waits on event {ev.name!r}, "
                        f"which was not recorded inside the capture"
                    )
                start = max(start, marker)
            if op.kind == "event":
                # markers have no step: they only place their event
                self._event_offsets.append((op.event, start))
            else:
                steps.append(_step(op, ctx._executor))
                # Trace-export schedule: paid once per compile, never on
                # replay, so the hot path stays collector-free.
                self._trace_schedule.setdefault(op.stream.name, []).append(
                    {"kind": op.kind, "name": op.name,
                     "start_ms": start, "duration_ms": duration})
            clocks[op.stream.name] = start + duration
            busy[op.stream.name] = busy.get(op.stream.name, 0.0) + duration
            serial += duration
        self._steps = steps
        self._buffers = tuple(buffers.values())
        self._streams = tuple(streams.values()) or (ctx.default_stream,)
        # busy = sum of op durations per lane (wait-induced idle excluded);
        # clocks = the lane's completion offset including that idle
        self._lane_busy_ms = busy
        self._makespan_ms = max(clocks.values(), default=0.0)
        self._serial_ms = serial
        self._operations = operations
        self._shape = _GraphShape(
            self.name, self._makespan_ms, len(steps), self._kernels,
            tuple((s.name, busy.get(s.name, 0.0), clocks.get(s.name, 0.0))
                  for s in self._streams))
        self._compiled = True

    # --------------------------------------------------------------- replay
    def replay(self, **bindings) -> Dict[str, np.ndarray]:
        """Execute the captured sequence with *bindings* as new H2D sources.

        Keyword names select input buffers by label; unbound inputs re-use
        the host data snapshotted at capture.  Returns ``{label: array}``
        for every captured D2H copy.  Raises :class:`DeviceError` for an
        unknown binding or a freed buffer.
        """
        collector = _trace._ACTIVE
        if collector is None:
            return self._replay_impl(bindings, None)
        with collector.span("graph.replay", graph=self.name,
                            kernels=self._kernels,
                            operations=len(self._steps)) as sp:
            sp.set_modelled(self._makespan_ms)
            return self._replay_impl(bindings, collector)

    def _replay_impl(self, bindings: Dict[str, object],
                     collector) -> Dict[str, np.ndarray]:
        if not self._compiled:
            raise DeviceError(
                f"graph {self.name!r} is still capturing; close the "
                f"capture block before replaying"
            )
        if self.ctx._capture is not None:
            # Graph-in-graph recording is not supported: executing here
            # would silently run work at capture time and omit it from the
            # capturing graph.
            raise DeviceError(
                f"cannot replay graph {self.name!r} while a capture is "
                f"active on the context"
            )
        unknown = set(bindings) - set(self._h2d_specs)
        if unknown:
            raise DeviceError(
                f"graph {self.name!r} has no input buffer(s) "
                f"{sorted(unknown)}; known inputs: {sorted(self._h2d_specs)}"
            )
        for buf in self._buffers:
            if buf.freed:
                raise DeviceError(
                    f"replay of graph {self.name!r} uses freed buffer "
                    f"{buf.label!r}"
                )
        sources: Dict[str, object] = {}
        for label, value in bindings.items():
            buf, _ = self._h2d_specs[label]
            src = np.asarray(value, dtype=buf.dtype.to_numpy()).reshape(-1)
            if src.size != buf.count:
                raise DeviceError(
                    f"binding {label!r} has {src.size} elements, buffer "
                    f"holds {buf.count}"
                )
            sources[label] = src

        outputs: Dict[str, np.ndarray] = {}
        _run_steps(self._steps, sources, outputs)

        self.replays += 1
        start = max(s._clock_ms for s in self._streams)
        end = start + self._makespan_ms
        for ev, offset in self._event_offsets:
            ev._timestamp_ms = start + offset
        # A graph completes as a unit: every lane's clock advances to its end.
        for s in self._streams:
            s._clock_ms = end
        # One summary event per captured stream, so per-lane accounting
        # (ctx.lanes / pipeline_breakdown) stays truthful for multi-stream
        # graphs: modelled time is the lane's *busy* time (wait idle
        # excluded, keeping serial_ms honest), end_ms its true completion
        # offset (keeping elapsed_ms = makespan).
        timeline = self.ctx._timeline
        if collector is None:
            # Untraced: extend the run of this graph's replays, or start one.
            last = timeline[-1] if timeline else None
            if (type(last) is _ReplayRun
                    and last.extends(self._shape, start, self.replays)):
                last.last_start = start
                last.count += 1
            else:
                timeline.append(_ReplayRun(self._shape, start, self.replays))
            return outputs
        # Traced replays carry the compile-time op schedule so the exporter
        # can expand the summary slice.
        details = {"operations": len(self._steps), "kernels": self._kernels,
                   "replay": self.replays}
        for stream, busy, lane_end in self._shape.lanes:
            timeline.append(StreamEvent(
                "graph", self.name, busy, None,
                dict(details, schedule=self._trace_schedule.get(stream, ())),
                stream=stream, start_ms=start, end_ms=start + lane_end))
        return outputs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DeviceGraph({self.name}, ops={self.num_operations}, "
                f"kernels={self.num_kernels}, replays={self.replays})")


class _GraphCapture:
    """Context manager returned by :meth:`DeviceContext.capture`."""

    def __init__(self, ctx: "DeviceContext", name: str, check: bool = False):
        self.ctx = ctx
        self.check = bool(check)
        self.graph = DeviceGraph(ctx, name)
        self._saved_record_sites = False

    def __enter__(self) -> DeviceGraph:
        if self.ctx._capture is not None:
            raise DeviceError("a device-graph capture is already active")
        self.ctx._capture = self.graph
        if self.check:
            # checked captures get enqueue sites for free, so a finding can
            # name the line that issued the racy op
            self._saved_record_sites = self.ctx.record_sites
            self.ctx.record_sites = True
        return self.graph

    def __exit__(self, exc_type, exc, tb) -> None:
        self.ctx._capture = None
        if self.check:
            self.ctx.record_sites = self._saved_record_sites
        if exc_type is None:
            self.graph._compile()
            if self.check:
                self._race_check()

    def _race_check(self) -> None:
        # Local import: the analysis package consumes this module.
        from .errors import AnalysisError
        from ..analysis.racecheck import analyze_graph

        errors = [d for d in analyze_graph(self.graph)
                  if d.severity == "error"]
        if errors:
            findings = "\n".join(f"  {d}" for d in errors)
            raise AnalysisError(
                f"captured graph {self.graph.name!r} failed the race "
                f"check:\n{findings}"
            )


#: fraction of peak DRAM bandwidth a device-side memset achieves
_MEMSET_EFFICIENCY = 0.85


class DeviceContext:
    """A simulated GPU device queue, mirroring Mojo's ``DeviceContext``.

    Parameters
    ----------
    gpu:
        GPU name (``"h100"``, ``"mi300a"`` ...) or a :class:`GPUSpec`.
    executor:
        Optional custom :class:`KernelExecutor` (tests inject small limits).
    """

    #: process-wide default for ``record_sites``.  ``repro lint`` flips
    #: this on around workload graph captures so contexts the workloads
    #: construct internally record enqueue sites too, giving the race
    #: diagnostics user-code ``file:line`` attribution without every
    #: workload having to thread the flag through.
    default_record_sites: bool = False

    def __init__(self, gpu="h100", *,
                 executor: Optional[KernelExecutor] = None,
                 record_sites: bool = False):
        self.spec: GPUSpec = get_gpu(gpu)
        #: when True every enqueue captures its user-code ``file:line`` on
        #: the op (one frame walk per enqueue) so diagnostics — notably
        #: use-after-free — can name where the bad op was issued.  Off by
        #: default: the hot enqueue path pays nothing.
        self.record_sites = bool(record_sites) or type(self).default_record_sites
        self._tracker = AllocationTracker(self.spec)
        self._transfer_model = TransferModel(self.spec)
        self._executor = executor or KernelExecutor()
        self._streams: Dict[str, Stream] = {}
        self.default_stream: Stream = self.stream("default")
        self._capture: Optional[DeviceGraph] = None
        #: events recorded on this context, invalidated by reset_timeline()
        #: (weak: an event dropped by the caller should not be kept alive)
        self._recorded_events: "weakref.WeakSet[Event]" = weakref.WeakSet()
        #: executed events and runs of untraced graph replays, in order
        self._timeline: List[object] = []
        collector = _trace._ACTIVE
        if collector is not None:
            # Traced runs register every context they create so the export
            # layer can merge its modelled timeline with the host spans.
            collector.register_context(self)

    # --------------------------------------------------------------- streams
    def stream(self, name: str) -> Stream:
        """The stream called *name*, created on first use (FIFO per stream)."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        s = Stream(self, name, len(self._streams))
        self._streams[name] = s
        return s

    def stream_pool(self, n: int, prefix: str = "lane") -> List[Stream]:
        """``n`` streams for round-robin work distribution.

        ``n <= 1`` returns ``[default_stream]`` so single-stream callers pay
        no structural difference.
        """
        if n <= 1:
            return [self.default_stream]
        return [self.stream(f"{prefix}{i}") for i in range(int(n))]

    @property
    def streams(self) -> Tuple[Stream, ...]:
        return tuple(self._streams.values())

    def event(self, name: str = "") -> Event:
        """A new (unrecorded) :class:`Event` bound to this context."""
        return Event(self, name)

    def upload_pipeline(self, streams: int,
                        prefix: str = "h2d") -> Tuple[List[Stream], Stream]:
        """``(upload_lanes, compute_stream)`` for an uploads-then-compute run.

        The pattern every kernel runner uses: with ``streams > 1`` the
        uploads round-robin over their own lanes and the kernel runs on a
        separate ``"compute"`` stream (order it with :meth:`fan_in`); with
        one stream everything shares the default stream and plain FIFO
        ordering applies.
        """
        pool = self.stream_pool(streams, prefix=prefix)
        compute = self.stream("compute") if streams > 1 else self.default_stream
        return pool, compute

    def fan_in(self, lanes: Sequence[Stream], into: Stream,
               prefix: str = "join") -> Stream:
        """Make *into* wait for the current tail of every stream in *lanes*.

        Records one event per lane and waits on all of them — the standard
        uploads-then-compute barrier the kernel runners use.  Lanes that
        *are* the target stream are skipped (FIFO ordering already covers
        them), so single-stream pipelines pay nothing.
        """
        for i, lane in enumerate(lanes):
            if lane is into:
                continue
            into.wait(self.event(f"{prefix}{i}").record(lane))
        return into

    def _resolve_stream(self, stream: Optional[Stream]) -> Stream:
        if stream is None:
            return self.default_stream
        if not isinstance(stream, Stream) or stream.ctx is not self:
            raise DeviceError(
                f"stream {stream!r} does not belong to this context"
            )
        return stream

    # ------------------------------------------------------------ allocation
    def enqueue_create_buffer(self, dtype, count: int, *, label: str = "") -> DeviceBuffer:
        """Allocate a device buffer of *count* elements of *dtype*."""
        return DeviceBuffer(self, dtype, count, label=label)

    # ---------------------------------------------------------------- launch
    def enqueue_function(
        self,
        kern,
        *args,
        grid_dim,
        block_dim,
        mode: str = "auto",
        model: Optional[KernelModel] = None,
        timing=None,
        stream: Optional[Stream] = None,
    ) -> None:
        """Enqueue a kernel launch on *stream* (default stream if omitted).

        ``model``/``timing`` are optional: when a :class:`KernelModel` (or a
        precomputed timing breakdown) is supplied, the modelled kernel time is
        recorded on the timeline, which examples use to report bandwidths.
        """
        kern = as_kernel(kern)
        launch = LaunchConfig.make(grid_dim, block_dim)
        stream = self._resolve_stream(stream)
        if timing is not None:
            duration = float(getattr(timing, "kernel_time_ms", timing))
            details = {"timing": timing}
        elif model is not None:
            duration = self._predict_time(model, launch)
            details = {"model": model}
        else:
            duration, details = 0.0, {}
        reads, writes = _split_buffer_accesses(args)
        op = _Op("kernel", kern.name, stream, stream._take_waits(),
                 _referenced_buffers(args),
                 {"kern": kern, "args": args, "launch": launch, "mode": mode,
                  "duration_ms": duration, "details": details},
                 reads=reads, writes=writes)
        self._submit(op)

    def enqueue_fill(self, buf: DeviceBuffer, value, *,
                     stream: Optional[Stream] = None) -> None:
        """Enqueue a modelled device-side memset of *buf* to *value*."""
        buf._check_live()
        stream = self._resolve_stream(stream)
        t_ms = buf.nbytes / (self.spec.peak_bandwidth_bytes
                             * _MEMSET_EFFICIENCY) * 1e3
        op = _Op("memset", f"memset:{buf.label}", stream,
                 stream._take_waits(), (buf,),
                 {"value": value, "duration_ms": t_ms,
                  "details": {"nbytes": buf.nbytes, "value": value}})
        self._submit(op)

    # --------------------------------------------------------------- capture
    def capture(self, name: str = "", *, check: bool = False) -> _GraphCapture:
        """Record the enqueues of a ``with`` block into a :class:`DeviceGraph`.

        Nothing executes during capture; run the result with
        :meth:`DeviceGraph.replay`.  With ``check=True`` the captured op
        list is run through the static race detector
        (:func:`repro.analysis.racecheck.analyze_graph`) when the block
        closes, and any error-severity finding — cross-stream race without
        an event edge, use-after-free — raises
        :class:`~repro.core.errors.AnalysisError` before the graph can be
        replayed.  Checked captures also record enqueue sites.
        """
        return _GraphCapture(self, name, check=check)

    # ------------------------------------------------------------- execution
    def _submit_transfer(self, kind: str, buf: DeviceBuffer,
                         stream: Optional[Stream], **meta) -> None:
        stream = self._resolve_stream(stream)
        meta["duration_ms"] = (self._transfer_model.transfer_time_s(buf.nbytes)
                               * 1e3)
        meta["details"] = {"nbytes": buf.nbytes, "buffer": buf.label}
        op = _Op(kind, f"{kind}:{buf.nbytes}B", stream, stream._take_waits(),
                 (buf,), meta)
        self._submit(op)

    def _submit(self, op: _Op) -> None:
        if self.record_sites:
            op.site = _caller_site()
        if self._capture is not None:
            self._capture._record(op)
        else:
            self._execute(op)

    def _execute(self, op: _Op) -> None:
        for buf in op.buffers:
            if buf.freed:
                site = f" (enqueued at {op.site})" if op.site else ""
                raise DeviceError(
                    f"{op.kind} operation {op.name!r} uses freed "
                    f"buffer {buf.label!r}{site}"
                )
        start = op.stream._clock_ms
        for ev in op.waits:
            if ev._timestamp_ms is None:
                raise DeviceError(
                    f"operation {op.name!r} waits on event {ev.name!r} "
                    f"which never executed"
                )
            start = max(start, ev._timestamp_ms)
        meta = op.meta
        execution = None
        if op.kind == "kernel":
            # one timed run of the thunk a replay step would hold
            execution = self._executor.launch(meta["kern"], meta["args"],
                                              meta["launch"],
                                              mode=meta["mode"])
        elif op.kind != "event":
            _run_steps((_step(op, self._executor),), {}, {})
        duration = meta["duration_ms"]
        end = start + duration
        op.stream._clock_ms = end
        if op.event is not None:
            op.event._timestamp_ms = start
        self._timeline.append(StreamEvent(
            op.kind, op.name, duration, execution, meta["details"],
            stream=op.stream.name, start_ms=start, end_ms=end))

    def synchronize(self) -> List[StreamEvent]:
        """Return the executed timeline.

        Enqueued work has already run, so there is nothing to wait for;
        the call keeps Mojo's ``ctx.synchronize()`` shape and refuses
        during a capture, whose work runs only at replay.
        """
        if self._capture is not None:
            raise DeviceError("cannot synchronize during device-graph capture")
        return self.timeline

    # -------------------------------------------------------------- accounting
    def _predict_time(self, model: KernelModel, launch: LaunchConfig) -> float:
        # Local import: pricing loads the compiler and the timing model.
        # Context-level estimates use the generic compiler profile.
        from ..backends.base import GENERIC

        return GENERIC.time(model, self.spec, launch).kernel_time_ms

    # ------------------------------------------------------------- reporting
    @property
    def memory_summary(self) -> dict:
        """Allocation accounting for the context."""
        return self._tracker.summary()

    @property
    def timeline(self) -> List[StreamEvent]:
        """The executed timeline: one :class:`StreamEvent` per operation and
        one per stream of each graph replay, in execution order.

        A new list on every read; runs of untraced replays are expanded
        into their events here.
        """
        return list(self._events())

    def _events(self) -> Iterator[StreamEvent]:
        for entry in self._timeline:
            if type(entry) is _ReplayRun:
                yield from entry.events()
            else:
                yield entry

    def adopt_timeline(self, other: "DeviceContext") -> None:
        """Append *other*'s executed timeline to this context's."""
        self._timeline.extend(other._timeline)

    def _durations(self, stream: Optional[str] = None) -> Iterator[float]:
        """``modelled_time_ms`` of each timeline event in order (of
        *stream*'s events only, when given), without expanding runs into
        events."""
        for entry in self._timeline:
            if type(entry) is _ReplayRun:
                yield from entry.durations(stream)
            elif stream is None or entry.stream == stream:
                yield entry.modelled_time_ms

    @property
    def kernel_time_ms(self) -> float:
        """Sum of modelled kernel times on the timeline."""
        return sum(e.modelled_time_ms for e in self._timeline
                   if e.kind == "kernel")

    @property
    def elapsed_ms(self) -> float:
        """Critical-path makespan (ms) of the executed timeline.

        With work spread over multiple streams this is *less* than
        :attr:`serial_time_ms` — transfers and kernels on independent lanes
        overlap; event waits re-serialise exactly the dependencies the
        caller declared.
        """
        return max((e.end_ms for e in self._timeline), default=0.0)

    @property
    def serial_time_ms(self) -> float:
        """Sum of all executed operations' modelled durations."""
        return sum(self._durations())

    @property
    def lanes(self) -> Dict[str, List[StreamEvent]]:
        """The executed timeline grouped into per-stream lanes."""
        out: Dict[str, List[StreamEvent]] = {}
        for e in self._events():
            out.setdefault(e.stream, []).append(e)
        return out

    def pipeline_breakdown(self) -> PipelineTiming:
        """Overlap-aware :class:`PipelineTiming` of the executed timeline."""
        streams: Dict[str, None] = {}      # in order of first appearance
        operations = 0
        for e in self._timeline:
            if type(e) is _ReplayRun:
                streams.update(dict.fromkeys(s for s, _, _ in e.shape.lanes))
                operations += e.count * len(e.shape.lanes)
            else:
                streams[e.stream] = None
                operations += 1
        return PipelineTiming(
            elapsed_ms=self.elapsed_ms, serial_ms=self.serial_time_ms,
            lanes={name: sum(self._durations(name)) for name in streams},
            operations=operations)

    def reset_timeline(self) -> None:
        """Clear the executed timeline and rewind the stream clocks.

        Events recorded before the reset are invalidated — their
        timestamps belong to the discarded timeline, so waiting on them (or
        reading ``elapsed_ms``) raises until they are recorded again.
        """
        self._timeline.clear()
        for s in self._streams.values():
            s._clock_ms = 0.0
        for ev in self._recorded_events:
            ev._stream = None
            ev._timestamp_ms = None
        self._recorded_events = weakref.WeakSet()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DeviceContext({self.spec.name})"


def _referenced_buffers(args: Sequence) -> Tuple[DeviceBuffer, ...]:
    """Device buffers referenced by a kernel argument list (deduplicated)."""
    found: Dict[int, DeviceBuffer] = {}
    for a in args:
        if isinstance(a, DeviceBuffer):
            found[id(a)] = a
        elif isinstance(a, LayoutTensor) and a.device_buffer is not None:
            found[id(a.device_buffer)] = a.device_buffer
    return tuple(found.values())


def _split_buffer_accesses(args: Sequence) -> Tuple[
        Tuple[DeviceBuffer, ...], Tuple[DeviceBuffer, ...]]:
    """``(reads, writes)`` buffer sets of a kernel argument list.

    A ``mut=False`` tensor is read-only by contract; ``mut=True`` tensors
    and bare buffers are conservatively read+write.  This is what the
    device-graph race detector keys its happens-before conflicts on.
    """
    reads: Dict[int, DeviceBuffer] = {}
    writes: Dict[int, DeviceBuffer] = {}
    for a in args:
        if isinstance(a, DeviceBuffer):
            reads[id(a)] = a
            writes[id(a)] = a
        elif isinstance(a, LayoutTensor) and a.device_buffer is not None:
            buf = a.device_buffer
            reads[id(buf)] = buf
            if a.mut:
                writes[id(buf)] = buf
    return tuple(reads.values()), tuple(writes.values())


#: this module's file, for skipping runtime-internal frames in
#: :func:`_caller_site`
_THIS_FILE = __file__


def _caller_site() -> Optional[str]:
    """``file:line`` of the first non-runtime frame of the current enqueue."""
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_filename != _THIS_FILE:
            return f"{frame.f_code.co_filename}:{frame.f_lineno}"
        frame = frame.f_back
    return None  # pragma: no cover - an enqueue always has a caller
