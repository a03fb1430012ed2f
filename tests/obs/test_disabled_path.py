"""The disabled-path contract: no collector, no collector calls.

Tracing is off by default, and the instrumented hot paths (``Workload.run``,
``DeviceContext.synchronize``, ``DeviceGraph.replay``) must branch away on
the single ``_ACTIVE is None`` check without ever touching a collector.
These tests make every :class:`TraceCollector` entry point explode and then
exercise the instrumented paths — any consultation of the collector
machinery fails loudly.
"""

import numpy as np
import pytest

from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.layout import Layout
from repro.harness.runner import MeasurementProtocol
from repro.kernels.babelstream.kernels import copy_kernel
from repro.obs.trace import TraceCollector

FAST = MeasurementProtocol(warmup=0, repeats=2)


@pytest.fixture(autouse=True)
def _exploding_collector(monkeypatch):
    """Any touch of the span machinery raises while tracing is disabled."""
    def boom(self, *args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError(
            "TraceCollector consulted on the disabled path")

    for method in ("record", "begin", "finish", "span", "register_context"):
        monkeypatch.setattr(TraceCollector, method, boom)
    yield


def _captured_graph(ctx):
    n = 128
    buf_a = ctx.enqueue_create_buffer(DType.float32, n, label="a")
    buf_c = ctx.enqueue_create_buffer(DType.float32, n, label="c")
    a = buf_a.tensor(Layout.row_major(n), mut=False)
    c = buf_c.tensor(Layout.row_major(n), mut=True)
    with ctx.capture("copy") as graph:
        buf_a.copy_from_host(np.ones(n, dtype=np.float32))
        ctx.enqueue_function(copy_kernel, a, c, n,
                             grid_dim=(1,), block_dim=(n,))
        buf_c.copy_to_host()
    return graph


def test_workload_run_never_consults_collector(stencil):
    request = stencil.make_request(params={"L": 18}, protocol=FAST)
    result = stencil.run(request)
    assert result.verification.passed


def test_synchronize_never_consults_collector(ctx):
    n = 64
    buf = ctx.enqueue_create_buffer(DType.float64, n)
    buf.copy_from_host(np.zeros(n))
    ctx.synchronize()


def test_graph_replay_never_consults_collector(ctx):
    graph = _captured_graph(ctx)
    out = graph.replay()
    assert np.allclose(out["c"], 1.0)


def test_context_creation_never_registers():
    DeviceContext("h100")


def test_resilient_run_never_consults_collector(stencil, tmp_path):
    # a checkpointed sweep under a fault plan: failure capture, journal
    # writes and the resume lookup all stay off the span machinery
    from repro.harness.sweep import sweep
    from repro.resilience import (CheckpointJournal, FaultPlan, FaultRule,
                                  install_fault_plan)

    path = str(tmp_path / "sweep.jsonl")
    plan = FaultPlan(rules=(FaultRule(site="transfer.h2d", indices=(0,)),))
    with install_fault_plan(plan):
        first = sweep(L=[18, 20]).run_workload(
            stencil, cache=False, protocol=FAST, on_error="skip",
            checkpoint=path)
    assert not first[0].ok and first[1].verification.passed
    journal = CheckpointJournal(path)
    resumed = sweep(L=[18, 20]).run_workload(
        stencil, cache=False, protocol=FAST, checkpoint=journal)
    assert journal.served == 1
    assert all(r.verification.passed for r in resumed)
