"""Captured verification programs, memoised by program key.

A verified run enqueues the same device program (``enqueue_<k>`` in
``kernels/<k>/runner.py``) for every request of one problem, launch and
platform.  :func:`replay_program` captures it once into a
:class:`~repro.core.device.DeviceGraph` per key (:data:`PROGRAM_MEMO`) and
replays it for every request: buffer creation, launch validation, mode
resolution and the per-launch timing model are paid at capture, not per
run.  Every replay still runs each kernel on the request's inputs (H2D
sources rebound by buffer label) and returns a fresh download, which the
caller compares against its reference.  A program without a key (a
hand-built problem) is captured, replayed once and not stored, the same
rule :func:`~repro.kernels.expected.expected_output` follows.

Replays of one program are serialised, so threaded sweeps never share its
buffers mid-run.  The program's own context keeps no timeline: a traced
replay hands its events to a fresh context, which the trace collector
registers, so each traced run exports its own device tracks.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from ..core.device import DeviceContext, DeviceGraph, PipelineTiming
from ..core.memo import Memo
from ..gpu.specs import GPUSpec
from ..obs import trace as _trace

__all__ = ["PROGRAM_MEMO", "replay_program"]

#: captured verification programs by program key
PROGRAM_MEMO = Memo("program")


def replay_program(key: Optional[Hashable], gpu: GPUSpec,
                   enqueue: Callable[[DeviceContext], object],
                   **bindings) -> Tuple[Dict[str, np.ndarray], PipelineTiming]:
    """Replay the program ``enqueue(ctx)`` enqueues, captured once per *key*.

    Returns the replay's ``{label: download}`` and its modelled
    :class:`~repro.core.device.PipelineTiming`.  *bindings* rebind H2D
    sources by buffer label; *key* None captures a throwaway program.
    """
    def capture() -> DeviceGraph:
        ctx = DeviceContext(gpu)
        with ctx.capture("verify") as graph:
            enqueue(ctx)
        return graph

    if key is None:
        graph = capture()
        return _replay(graph, bindings), graph.pipeline
    with PROGRAM_MEMO.single_flight(key):
        graph = PROGRAM_MEMO.get_or_compute(key, capture)
        return _replay(graph, bindings), graph.pipeline


def _replay(graph: DeviceGraph, bindings) -> Dict[str, np.ndarray]:
    ctx = graph.ctx
    outputs = graph.replay(**bindings)
    if _trace._ACTIVE is not None:
        # the collector registers the fresh context and exports its tracks
        DeviceContext(ctx.spec).adopt_timeline(ctx)
    ctx.reset_timeline()
    return outputs
