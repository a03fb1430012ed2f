#!/usr/bin/env python
"""Quickstart: the paper's Listing 1 workflow on the simulated device.

Allocates a device buffer, launches a Mojo-style per-thread kernel written
against `repro`'s portable programming model, verifies the result on the
host, overlaps transfers and compute on multiple device streams with event
ordering, captures the whole step into a replayable device graph, asks the
backend models what the same kernel would cost on the two GPUs of the paper
(NVIDIA H100 and AMD MI300A), and finally drives a full science workload
through the unified Workload API registry.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    DeviceContext,
    DType,
    KernelModel,
    LaunchConfig,
    Layout,
    block_dim,
    block_idx,
    ceildiv,
    kernel,
    thread_idx,
)
from repro.backends import get_backend, vendor_baseline_for
from repro.workloads import get_workload, list_workloads

# --- compile-time style constants, as in the paper's Listing 1 --------------
NX = 1 << 20
BLOCK_SIZE = 256
NUM_BLOCKS = ceildiv(NX, BLOCK_SIZE)


@kernel
def axpy_kernel(y, x, alpha, n):
    """y[i] = alpha * x[i] + y[i] — one element per thread."""
    tid = block_idx.x * block_dim.x + thread_idx.x
    if tid < n:
        y[tid] = alpha * x[tid] + y[tid]


def main() -> None:
    # 1. Functional execution on the simulated device (reduced size so the
    #    thread-level simulator stays fast).
    n_small = 4096
    ctx = DeviceContext("h100")
    d_x = ctx.enqueue_create_buffer(DType.float32, n_small, label="x")
    d_y = ctx.enqueue_create_buffer(DType.float32, n_small, label="y")
    x_host = np.linspace(0.0, 1.0, n_small, dtype=np.float32)
    y_host = np.full(n_small, 2.0, dtype=np.float32)
    d_x.copy_from_host(x_host)
    d_y.copy_from_host(y_host)

    x = d_x.tensor(Layout.row_major(n_small), mut=False)
    y = d_y.tensor(Layout.row_major(n_small))
    ctx.enqueue_function(axpy_kernel, y, x, 3.0, n_small,
                         grid_dim=ceildiv(n_small, BLOCK_SIZE),
                         block_dim=BLOCK_SIZE)
    ctx.synchronize()

    result = d_y.copy_to_host()
    expected = 3.0 * x_host + y_host
    max_err = float(np.max(np.abs(result - expected)))
    print(f"functional check on {ctx.spec.full_name}: max error = {max_err:.2e}")
    assert max_err < 1e-6

    # 1b. Streams and events: put the upload and an independent kernel on
    #     separate streams — the modelled timeline overlaps the lanes, so
    #     the makespan is less than the serial sum of the operations.
    model = KernelModel(
        name="axpy", dtype=DType.float32,
        loads_global=2, stores_global=1, flops=2,
        scalar_args=2, working_values=10,
    )
    pipe = DeviceContext("h100")
    h2d, compute = pipe.stream("h2d"), pipe.stream("compute")
    p_x = pipe.enqueue_create_buffer(DType.float32, n_small, label="px")
    p_y = pipe.enqueue_create_buffer(DType.float32, n_small, label="py")
    p_x.copy_from_host(x_host, stream=h2d)
    p_y.copy_from_host(y_host, stream=h2d)
    compute.wait(pipe.event("uploads-done").record(h2d))
    # the kernel only depends on px/py, so the next batch's staging upload
    # streams in on the h2d lane while the compute lane runs the kernel
    staging = pipe.enqueue_create_buffer(DType.float32, 1 << 20, label="staging")
    staging.copy_from_host(np.zeros(1 << 20, dtype=np.float32), stream=h2d)
    pipe.enqueue_function(axpy_kernel, p_y.tensor(), p_x.tensor(mut=False),
                          3.0, n_small, grid_dim=ceildiv(n_small, BLOCK_SIZE),
                          block_dim=BLOCK_SIZE, model=model, stream=compute)
    pipe.synchronize()
    breakdown = pipe.pipeline_breakdown()
    print(f"two-stream pipeline: makespan {breakdown.elapsed_ms * 1e3:.1f} us "
          f"vs serial {breakdown.serial_ms * 1e3:.1f} us "
          f"(overlap saved {breakdown.overlap_saved_ms * 1e3:.1f} us)")

    # 1c. Captured device graphs: record H2D -> kernel -> D2H once, then
    #     replay it with new buffer contents — the Python-side launch
    #     overhead is paid at capture, not per repeat.  Both inputs are
    #     uploaded inside the capture, so every replay starts from the same
    #     state (axpy accumulates into y) and replays are reproducible.
    with ctx.capture("axpy-step") as graph:
        d_x.copy_from_host(x_host)
        d_y.copy_from_host(y_host)
        ctx.enqueue_function(axpy_kernel, y, x, 3.0, n_small,
                             grid_dim=ceildiv(n_small, BLOCK_SIZE),
                             block_dim=BLOCK_SIZE, model=model)
        d_y.copy_to_host()
    outputs = graph.replay(x=2.0 * x_host)       # rebind the "x" input
    repeat = graph.replay(x=2.0 * x_host)        # identical state -> identical result
    assert np.array_equal(outputs["y"], repeat["y"])
    print(f"graph replay: {graph.num_operations} ops, "
          f"makespan {graph.makespan_ms * 1e3:.1f} us, "
          f"output mean {float(outputs['y'].mean()):.3f}")

    # 2. Performance-portability view: what would this kernel cost at the full
    #    problem size on each GPU, per programming model?
    launch = LaunchConfig.for_elements(NX, BLOCK_SIZE)
    print(f"\nmodelled AXPY on {NX} elements ({NUM_BLOCKS} blocks of {BLOCK_SIZE}):")
    for gpu in ("h100", "mi300a"):
        portable = get_backend("mojo").time(model, gpu, launch)
        baseline = vendor_baseline_for(gpu).time(model, gpu, launch)
        print(f"  {gpu:8s}  mojo {portable.kernel_time_ms * 1e3:7.1f} us "
              f"({portable.achieved_bandwidth_gbs:6.0f} GB/s)   "
              f"{baseline.backend_name} {baseline.kernel_time_ms * 1e3:7.1f} us "
              f"({baseline.achieved_bandwidth_gbs:6.0f} GB/s)")

    # 3. The unified Workload API: every science kernel of the paper is one
    #    registry entry away, behind the same request/result schema.
    print(f"\nregistered workloads: {', '.join(list_workloads())}")
    stencil = get_workload("stencil")
    request = stencil.make_request(gpu="h100", backend="mojo",
                                   params={"L": 256}, verify=True)
    result = stencil.run(request)
    err = result.verification.max_rel_error
    print(f"bench {result.workload} L=256 on {request.gpu}/{request.backend}: "
          f"{result.primary_value:,.0f} {stencil.primary_unit} "
          f"(verified={result.verification.passed}, max rel error "
          f"{'n/a' if err is None else format(err, '.1e')})")

    # 4. Autotuning: search the launch space once (candidates pruned by the
    #    occupancy/roofline models, the rest measured under a budget), then
    #    let tune="search"/"cached" requests start from the stored winner.
    #    An in-memory database keeps the example from writing .repro_tune/;
    #    the CLI equivalent (`python -m repro tune stencil --param L=64`)
    #    persists winners across processes.
    from repro.tuning import Tuner, TuningDB

    tune_request = stencil.make_request(gpu="h100", backend="mojo",
                                        params={"L": 64}, verify=False)
    outcome = Tuner(stencil, tune_request, db=TuningDB(disk_dir=None),
                    budget=16).search()
    best = outcome.best
    print(f"\ntuned stencil L=64: {best.config.label()} — "
          f"{best.measured_ms:.4f} ms vs untuned "
          f"{outcome.baseline.measured_ms:.4f} ms "
          f"({outcome.speedup:.2f}x, {len(outcome.prune.pruned)} of "
          f"{outcome.prune.space_size} candidates pruned unmeasured)")


if __name__ == "__main__":
    main()
