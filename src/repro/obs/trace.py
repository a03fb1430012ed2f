"""Structured host-side tracing spans for the reproduction substrate.

The paper explains *where time goes* per ``(gpu, backend)`` — its NCU and
rocprof tables are observability artifacts.  This module provides the host
half of that story: nested spans (``workload.run`` → ``tuning.resolve`` →
``graph.replay``) with ids, parents, and *two* durations each — the
wall-clock time the host actually spent, and the modelled device time the
analytic timing model predicted.  They are different quantities and are
reported side by side, never subtracted.

Collection is **off by default** and follows the exact switch pattern of
:class:`~repro.resilience.faults.FaultInjector`: the hot paths read one
module attribute (``_ACTIVE``) and branch away without ever touching a
collector method when tracing is disabled.  The disabled-path contract is
benchmark-guarded (``test_bench_instrumented_workload_dispatch``) and
test-guarded (patching :meth:`TraceCollector.record` to raise proves the
disabled path never consults it).

Install a collector for a scope with::

    collector = TraceCollector()
    with install_trace_collector(collector):
        workload.run(request)
    collector.spans          # finished spans, in completion order
    collector.roots()        # top-level spans with .children trees

Spans nest per thread (a ``threading.local`` stack), so concurrent sweep
workers each build their own span tree under one collector.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceCollector",
    "active_collector",
    "install_trace_collector",
    "span",
]


@dataclass
class Span:
    """One timed, attributed region of host work.

    ``wall_ms`` is measured (``perf_counter`` delta); ``modelled_ms`` is
    whatever device-time the instrumented site attributed to the region via
    :meth:`set_modelled` (None when the site has no model prediction).
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start_s: float
    thread: int
    args: Dict[str, Any] = field(default_factory=dict)
    end_s: Optional[float] = None
    modelled_ms: Optional[float] = None
    error: Optional[str] = None
    children: List["Span"] = field(default_factory=list)

    @property
    def wall_ms(self) -> Optional[float]:
        if self.end_s is None:
            return None
        return (self.end_s - self.start_s) * 1e3

    def set_modelled(self, modelled_ms: Optional[float]) -> None:
        """Attribute a modelled (analytic) duration to this span."""
        if modelled_ms is not None:
            self.modelled_ms = float(modelled_ms)

    def annotate(self, **attrs: Any) -> None:
        """Attach extra key/value attributes after the span opened."""
        self.args.update(attrs)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "thread": self.thread,
            "start_s": self.start_s,
            "wall_ms": self.wall_ms,
            "modelled_ms": self.modelled_ms,
            "error": self.error,
            "args": dict(self.args),
        }


class TraceCollector:
    """Collects finished :class:`Span`\\ s and the device contexts they used.

    The collector is only ever touched from instrumented sites *after* the
    ``_ACTIVE is not None`` check, so every method here may assume tracing
    is on.  Completed spans funnel through :meth:`record` — the single
    choke point the disabled-path tests patch to raise.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._next_id = 0
        self._stacks = threading.local()
        self.epoch_s: float = clock()
        self.spans: List[Span] = []
        self.contexts: List[object] = []

    # ------------------------------------------------------------ span stack
    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, **args: Any) -> Span:
        """Open a span nested under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        opened = Span(
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_s=self._clock(),
            thread=threading.get_ident(),
            args=dict(args),
        )
        if parent is not None:
            parent.children.append(opened)
        stack.append(opened)
        return opened

    def finish(self, opened: Span, error: Optional[BaseException] = None) -> None:
        """Close *opened*, pop the stack, and :meth:`record` it."""
        opened.end_s = self._clock()
        if error is not None:
            opened.error = f"{type(error).__name__}: {error}"
        stack = self._stack()
        if stack and stack[-1] is opened:
            stack.pop()
        elif opened in stack:  # pragma: no cover - unbalanced exits
            stack.remove(opened)
        self.record(opened)

    def record(self, finished: Span) -> None:
        """Append a finished span (the patch point for guard tests)."""
        with self._lock:
            self.spans.append(finished)

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Span]:
        """Context manager: open/close one span around a block."""
        opened = self.begin(name, **args)
        try:
            yield opened
        except BaseException as exc:
            self.finish(opened, error=exc)
            raise
        else:
            self.finish(opened)

    # ------------------------------------------------------- device contexts
    def register_context(self, ctx: object) -> None:
        """Remember a :class:`DeviceContext` created while tracing was on.

        The export layer later merges each registered context's modelled
        stream timeline with the host spans; registration keeps insertion
        order and deduplicates on identity.
        """
        with self._lock:
            if not any(existing is ctx for existing in self.contexts):
                self.contexts.append(ctx)

    # ------------------------------------------------------------- summaries
    def roots(self) -> List[Span]:
        """Finished top-level spans (no parent), in completion order."""
        with self._lock:
            return [s for s in self.spans if s.parent_id is None]

    def summary(self) -> Dict[str, Any]:
        """Aggregate per-name wall/modelled totals (report fodder)."""
        with self._lock:
            spans = list(self.spans)
        by_name: Dict[str, Dict[str, Any]] = {}
        for s in spans:
            entry = by_name.setdefault(
                s.name, {"count": 0, "wall_ms": 0.0, "modelled_ms": None})
            entry["count"] += 1
            if s.wall_ms is not None:
                entry["wall_ms"] += s.wall_ms
            if s.modelled_ms is not None:
                entry["modelled_ms"] = (entry["modelled_ms"] or 0.0) + s.modelled_ms
        return {"spans": len(spans), "by_name": by_name}


# ---------------------------------------------------------------------------
# The module-level active collector (the hot paths read this attribute)
# ---------------------------------------------------------------------------

#: the currently installed collector, or None (the default, zero-cost path)
_ACTIVE: Optional[TraceCollector] = None
_install_lock = threading.Lock()


def active_collector() -> Optional[TraceCollector]:
    """The installed :class:`TraceCollector`, or None when tracing is off."""
    return _ACTIVE


@contextlib.contextmanager
def install_trace_collector(
        collector: Optional[TraceCollector] = None) -> Iterator[TraceCollector]:
    """Activate a :class:`TraceCollector` for a ``with`` scope.

    Installation is process-global — the instrumented sites live in the
    device and workload layers, below any per-run state — and exclusive:
    nesting a second collector raises rather than silently splicing two
    traces together.
    """
    from ..core.errors import ConfigurationError  # local: core imports us

    installed = collector if collector is not None else TraceCollector()
    global _ACTIVE
    with _install_lock:
        if _ACTIVE is not None:
            raise ConfigurationError(
                "a trace collector is already installed; tracing does "
                "not nest"
            )
        _ACTIVE = installed
    try:
        yield installed
    finally:
        with _install_lock:
            _ACTIVE = None


class _NullScope:
    """Reusable no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SCOPE = _NullScope()


def span(name: str, **args: Any):
    """Open a span on the active collector, or do nothing when tracing is off.

    The disabled path returns a shared no-op context manager without ever
    touching a collector — instrumented sites that cannot afford even the
    keyword-dict construction should use the explicit
    ``collector = _trace._ACTIVE`` / ``if collector is not None`` idiom
    instead (see ``core/device.py``).
    """
    collector = _ACTIVE
    if collector is None:
        return _NULL_SCOPE
    return collector.span(name, **args)
