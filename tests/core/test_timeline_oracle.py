"""Exact oracle of the device timeline after eager work and graph replays.

``tests/core/timeline_oracle.json`` records, for three scenarios:

* ``eager_and_replays``: eager uploads, a kernel, a memset and a download
  interleaved with three replays of a one-stream graph (two of them back
  to back);
* ``minibude_replays``: three replays of the two-stream miniBUDE
  ``lint_graph()``;
* ``traced_replay``: one replay of that graph under a trace collector;

every timeline event's ``(kind, name, stream, modelled_time_ms, start_ms,
end_ms, details)``, the context's ``elapsed_ms``, ``serial_time_ms``,
``kernel_time_ms`` and ``lanes``, ``pipeline_breakdown().as_dict()`` and
the device events of ``build_chrome_trace``.  Everything compares with
``==``: floats survive the JSON round trip exactly.  Regenerate on purpose
with ``PYTHONPATH=src python tests/core/test_timeline_oracle.py --write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import DeviceContext, DType, block_dim, block_idx, kernel, \
    thread_idx
from repro.core.kernel import KernelModel
from repro.obs.export import build_chrome_trace
from repro.obs.trace import TraceCollector, install_trace_collector
from repro.workloads import get_workload

ORACLE = Path(__file__).resolve().parent / "timeline_oracle.json"

_FILL_MODEL = KernelModel(name="fill", dtype=DType.float64, loads_global=0,
                          stores_global=1, flops=0)


@kernel
def _oracle_scale(tensor, factor, n):
    i = block_idx.x * block_dim.x + thread_idx.x
    if i < n:
        tensor[i] = tensor[i] * factor


def _eager_and_replays():
    n = 64
    ctx = DeviceContext("h100")
    x = ctx.enqueue_create_buffer(DType.float64, n, label="x")
    with ctx.capture("fill-step") as graph:
        x.copy_from_host(np.zeros(n))
        ctx.enqueue_function(_oracle_scale, x.tensor(), 3.0, n, grid_dim=1,
                             block_dim=n, model=_FILL_MODEL)
        x.copy_to_host()
    y = ctx.enqueue_create_buffer(DType.float64, n, label="y")
    y.copy_from_host(np.ones(n))
    graph.replay()
    ctx.enqueue_function(_oracle_scale, y.tensor(), 2.0, n, grid_dim=1,
                         block_dim=n, timing=0.25)
    graph.replay(x=np.full(n, 2.0))
    graph.replay()
    y.fill(1.5)
    y.copy_to_host()
    return ctx


def _minibude_replays():
    graph = get_workload("minibude").lint_graph()
    for _ in range(3):
        graph.replay()
    return graph.ctx


def _traced_replay():
    graph = get_workload("minibude").lint_graph()
    with install_trace_collector():
        graph.replay()
    return graph.ctx


SCENARIOS = {
    "eager_and_replays": _eager_and_replays,
    "minibude_replays": _minibude_replays,
    "traced_replay": _traced_replay,
}


def _row(e):
    return [e.kind, e.name, e.stream, e.modelled_time_ms, e.start_ms,
            e.end_ms, e.details]


def _device_events(ctx):
    collector = TraceCollector()
    collector.register_context(ctx)
    trace = build_chrome_trace(collector, metrics_snapshot={})
    return [ev for ev in trace["traceEvents"] if ev["pid"] != 1]


def _observe(ctx):
    out = {
        "timeline": [_row(e) for e in ctx.timeline],
        "elapsed_ms": ctx.elapsed_ms,
        "serial_time_ms": ctx.serial_time_ms,
        "kernel_time_ms": ctx.kernel_time_ms,
        "lanes": {name: [_row(e) for e in events]
                  for name, events in ctx.lanes.items()},
        "pipeline": ctx.pipeline_breakdown().as_dict(),
        "chrome_device_events": _device_events(ctx),
    }
    # JSON-normalise (tuples to lists); floats round-trip exactly
    return json.loads(json.dumps(out))


def _oracle():
    with ORACLE.open(encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_timeline_matches_oracle(scenario):
    assert _observe(SCENARIOS[scenario]()) == _oracle()[scenario]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        data = {name: _observe(build()) for name, build in SCENARIOS.items()}
        ORACLE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {ORACLE}")
    else:
        sys.exit("usage: test_timeline_oracle.py --write")
