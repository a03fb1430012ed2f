"""Property: graph-compiler rewrites never change replay results.

The central soundness contract of the optimizing pipeline (ISSUE-8): for
every workload capture and every pass combination, replaying the optimized
graph produces bit-identical outputs to replaying the capture as recorded.
Not approximately equal — ``np.array_equal``: the passes reorder and
specialise execution but perform the very same element operations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphopt import optimize_graph
from repro.workloads import get_workload, list_workloads

WORKLOADS = tuple(list_workloads())
#: "none" re-lowers the captured ops unchanged through the same rewrite
PASS_COMBOS = ("none", "elide", "fuse", "elide,fuse", "all")


def _assert_bit_identical(base, opt):
    assert set(base) == set(opt)
    for label in base:
        assert np.array_equal(base[label], opt[label]), label


@pytest.mark.parametrize("passes", PASS_COMBOS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_optimized_replay_is_bit_identical(name, passes):
    workload = get_workload(name)
    graph = workload.lint_graph()
    if graph is None:
        pytest.skip(f"{name} declares no lint graph")
    base = graph.replay()
    optimized, _report = optimize_graph(graph, passes)
    _assert_bit_identical(base, optimized.replay())
    # replaying the optimized graph again stays stable (memsets/h2ds rerun)
    _assert_bit_identical(base, optimized.replay())


@pytest.mark.parametrize("name", WORKLOADS)
def test_optimized_probe_matches_unoptimized(name):
    """The RunRequest.optimize opt-in path preserves probe replays too."""
    workload = get_workload(name)
    plain = workload.tuning_probe(workload.make_request(verify=False))
    if plain is None:
        pytest.skip(f"{name} declares no tuning probe")
    optimized = workload.tuning_probe(
        workload.make_request(verify=False, optimize="all"))
    _assert_bit_identical(plain.replay(), optimized.replay())


@pytest.mark.parametrize("geometries", [
    ((4, 64), (2, 128)),
    ((2, 128), (4, 64)),
    ((8, 32), (1, 256), (4, 64)),
])
def test_cover_set_fusion_is_bit_identical(geometries):
    """Non-identical launches fused under cover-set legality replay
    bit-identically: every kernel guards with ``i < n`` over the same
    element range, so the region analysis proves the follower touches
    the same indices under the leader's geometry."""
    from repro.core.device import DeviceContext
    from repro.core.dtypes import DType
    from repro.kernels.babelstream.kernels import (SCALAR, add_kernel,
                                                   copy_kernel, mul_kernel)

    n = 256
    chain = (copy_kernel, mul_kernel, add_kernel)
    ctx = DeviceContext("h100")
    a_buf = ctx.enqueue_create_buffer(DType.float64, n, label="a")
    b_buf = ctx.enqueue_create_buffer(DType.float64, n, label="b")
    c_buf = ctx.enqueue_create_buffer(DType.float64, n, label="c")
    a, b, c = a_buf.tensor(), b_buf.tensor(), c_buf.tensor()
    arglists = ((a, c, n), (b, c, SCALAR, n), (a, b, c, n))
    with ctx.capture("covered") as graph:
        a_buf.copy_from_host(np.linspace(0.0, 1.0, n))
        for i, (kern, args) in enumerate(zip(chain, arglists)):
            grid, block = geometries[i % len(geometries)]
            ctx.enqueue_function(kern, *args,
                                 grid_dim=grid, block_dim=block)
        c_buf.copy_to_host()
        b_buf.copy_to_host()
    base = graph.replay()
    optimized, report = optimize_graph(graph, "fuse")
    assert len(report.fused) == 1
    assert report.fused[0]["parts"] == [k.name for k in chain]
    _assert_bit_identical(base, optimized.replay())
    _assert_bit_identical(base, optimized.replay())
