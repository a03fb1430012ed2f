"""Per-operation launches and functional verification for BabelStream.

The benchmark itself (timing model, Eq. 2 bandwidth, measurement samples)
is :meth:`repro.workloads.babelstream.BabelStreamWorkload._run`.  This
module holds the model and launch of each operation as the BabelStream
driver runs it (:func:`babelstream_op_config`, shared with Table 3), and the
functional run of the device kernels on a reduced vector, checked against
the scalar-replay verification of the original benchmark.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ...backends import get_backend
from ...core.device import DeviceContext
from ...core.dtypes import DType, dtype_from_any
from ...core.kernel import KernelModel, LaunchConfig
from .kernels import (
    SCALAR,
    START_A,
    START_B,
    START_C,
    add_kernel,
    babelstream_kernel_model,
    copy_kernel,
    dot_kernel,
    mul_kernel,
    triad_kernel,
)
from .reference import BabelStreamArrays, verify_arrays, verify_dot

__all__ = ["babelstream_op_config", "run_babelstream_functional"]

#: default vector size from the paper: 2^25 elements
DEFAULT_SIZE = 2 ** 25


def babelstream_op_config(op: str, *, n: int, precision: str, tb_size: int,
                          backend, gpu) -> Tuple[KernelModel, LaunchConfig]:
    """Kernel model and launch of one operation as the driver runs it.

    Copy/Mul/Add/Triad launch one thread per element.  Dot's block count is
    the *backend's* grid heuristic (the vendor baselines size it from the
    multiprocessor count), and each of its threads reduces
    ``n / total_threads`` elements.
    """
    if op == "dot":
        blocks = get_backend(backend).dot_num_blocks(gpu, n, tb_size)
        launch = LaunchConfig.make(blocks, tb_size)
        per_thread = n / launch.total_threads
    else:
        launch = LaunchConfig.for_elements(n, tb_size)
        per_thread = 1.0
    model = babelstream_kernel_model(op, n=n, precision=precision,
                                     elements_per_thread=per_thread,
                                     tb_size=tb_size)
    return model, launch


def run_babelstream_functional(
    *,
    n: int = 4096,
    precision: str = "float64",
    gpu: str = "h100",
    tb_size: int = 64,
    num_iterations: int = 2,
    dot_blocks: int = 4,
    executor: str = "auto",
    streams: int = 1,
    pipeline_sink: Optional[dict] = None,
) -> Dict[str, float]:
    """Run the five device kernels through the functional simulator.

    Uses a reduced vector size (the numerics do not depend on ``n``) and
    returns the verification errors.  Raises on any mismatch.  ``executor``
    selects the simulator mode for all five launches (``"auto"`` lowers
    Copy/Mul/Add/Triad to NumPy slicing and Dot to NumPy over a
    (block, lane) axis; ``"vectorized"`` runs the lockstep interpreter).
    ``streams > 1`` puts the initial memsets on their own streams and
    event-orders the kernel stream behind them; the kernels themselves are
    data-dependent on each other and stay FIFO on one stream, so the
    numerics are identical for any stream count.  *pipeline_sink* receives
    the context's :class:`~repro.core.device.PipelineTiming` under
    ``"pipeline"`` when given.
    """
    dtype = dtype_from_any(precision)
    ctx = DeviceContext(gpu)
    pool, compute = ctx.upload_pipeline(streams, prefix="init")
    lanes = itertools.cycle(pool)
    a_buf = ctx.enqueue_create_buffer(dtype, n, label="a")
    b_buf = ctx.enqueue_create_buffer(dtype, n, label="b")
    c_buf = ctx.enqueue_create_buffer(dtype, n, label="c")
    a_buf.fill(START_A, stream=next(lanes))
    b_buf.fill(START_B, stream=next(lanes))
    c_buf.fill(START_C, stream=next(lanes))
    a, b, c = a_buf.tensor(), b_buf.tensor(), c_buf.tensor()
    ctx.fan_in(pool, compute, prefix="init")

    launch = LaunchConfig.for_elements(n, tb_size)
    dot_sums = ctx.enqueue_create_buffer(DType.float64, dot_blocks, label="dot_sums")
    dot_launch = LaunchConfig.make(dot_blocks, tb_size)

    def op_model(op, elements_per_thread=1.0):
        return babelstream_kernel_model(op, n=n, precision=precision,
                                        elements_per_thread=elements_per_thread,
                                        tb_size=tb_size)

    dot_value = 0.0
    for _ in range(num_iterations):
        ctx.enqueue_function(copy_kernel, a, c, n,
                             grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                             mode=executor, model=op_model("copy"),
                             stream=compute)
        ctx.enqueue_function(mul_kernel, b, c, SCALAR, n,
                             grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                             mode=executor, model=op_model("mul"),
                             stream=compute)
        ctx.enqueue_function(add_kernel, a, b, c, n,
                             grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                             mode=executor, model=op_model("add"),
                             stream=compute)
        ctx.enqueue_function(triad_kernel, a, b, c, SCALAR, n,
                             grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                             mode=executor, model=op_model("triad"),
                             stream=compute)
        dot_sums.fill(0.0, stream=compute)
        dot_tensor = dot_sums.tensor()
        # Dot needs its barriers honoured: a "sequential" opt-out means
        # "scalar", which for a barrier kernel is the cooperative pool.
        dot_mode = "cooperative" if executor == "sequential" else executor
        ctx.enqueue_function(dot_kernel, a, b, dot_tensor, n, tb_size,
                             grid_dim=dot_launch.grid_dim,
                             block_dim=dot_launch.block_dim, mode=dot_mode,
                             model=op_model("dot", n / dot_launch.total_threads),
                             stream=compute)
        ctx.synchronize()
        dot_value = float(dot_sums.copy_to_host(stream=compute).sum())

    # Mirror the device state into the host reference container for the
    # standard scalar-replay verification.
    host = BabelStreamArrays(n, precision)
    host.a = a_buf.copy_to_host(stream=compute)
    host.b = b_buf.copy_to_host(stream=compute)
    host.c = c_buf.copy_to_host(stream=compute)
    if pipeline_sink is not None:
        pipeline_sink["pipeline"] = ctx.pipeline_breakdown()
    host.scalar = host.a.dtype.type(SCALAR)
    errors = verify_arrays(host, num_iterations)
    errors["dot"] = verify_dot(dot_value, host)
    return errors
