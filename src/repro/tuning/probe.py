"""Functional candidate probes built on captured device graphs.

A tuning candidate is scored by the analytic bench path, but a winning
launch configuration must also *execute*: a block shape that trips the
functional simulator is not a winner.  The probe runs each measured
candidate's kernel once through the thread-level simulator at a reduced
problem size — and it does so the cheap way PR 4 introduced: the pipeline
(H2D → kernel → D2H) is enqueued **once** under :meth:`DeviceContext.capture`
and the per-repeat evaluations are :meth:`DeviceGraph.replay` calls, which
re-execute the pre-instantiated launch thunks instead of rebuilding
contexts, buffers and launches per repeat.

Workload adapters opt in by implementing
:meth:`repro.workloads.base.Workload.tuning_probe`, which enqueues their
pipeline on the supplied context and returns the captured graph.  Adapters
without a probe (the compute-bound kernels whose arg setup is deck/system
shaped) are scored by the bench path alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import ReproError

__all__ = ["ProbeResult", "run_probe", "PROBE_REPEATS"]

#: replays of each candidate's captured probe graph
PROBE_REPEATS = 2


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of functionally probing one candidate."""

    #: the graph's modelled critical-path duration for one replay
    makespan_ms: float
    #: replays executed (capture happens once, before any of them)
    replays: int
    #: operations in the captured pipeline
    operations: int
    #: kernels in the captured pipeline
    kernels: int
    ok: bool = True
    error: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "makespan_ms": self.makespan_ms,
            "replays": self.replays,
            "operations": self.operations,
            "kernels": self.kernels,
            "ok": self.ok,
            "error": self.error,
        }


def run_probe(workload, request) -> Optional[ProbeResult]:
    """Capture the workload's probe pipeline once and replay it
    :data:`PROBE_REPEATS` times.

    Returns None when the workload declares no probe.  A candidate whose
    capture or replay raises yields ``ok=False`` with the error message —
    the tuner treats that as a disqualified candidate rather than a crash.
    """
    try:
        graph = workload.tuning_probe(request)
    except ReproError as exc:
        return ProbeResult(makespan_ms=float("inf"), replays=0, operations=0,
                           kernels=0, ok=False, error=str(exc))
    if graph is None:
        return None
    try:
        for _ in range(PROBE_REPEATS):
            graph.replay()
    except ReproError as exc:
        return ProbeResult(makespan_ms=float("inf"), replays=graph.replays,
                           operations=graph.num_operations,
                           kernels=graph.num_kernels, ok=False,
                           error=str(exc))
    return ProbeResult(makespan_ms=graph.makespan_ms, replays=graph.replays,
                       operations=graph.num_operations,
                       kernels=graph.num_kernels)
