"""Per-operation launches and the device program of BabelStream.

The benchmark itself (timing model, Eq. 2 bandwidth, measurement samples)
is :meth:`repro.workloads.babelstream.BabelStreamWorkload._run`.  This
module holds the model and launch of each operation as the BabelStream
driver runs it (:func:`babelstream_op_config`, shared with Table 3), the
one device program (:func:`enqueue_babelstream`) that verification and the
tuning probe both enqueue, and the check of its download on a reduced
vector against the scalar-replay verification of the original benchmark.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

import numpy as np

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

__all__ = ["babelstream_errors", "babelstream_op_config",
           "enqueue_babelstream", "run_babelstream_functional"]

#: default vector size from the paper: 2^25 elements
DEFAULT_SIZE = 2 ** 25

#: the verification run: vector length, block size, sweeps and Dot blocks
VERIFY_N = 4096
VERIFY_TB_SIZE = 64
VERIFY_ITERATIONS = 2
VERIFY_DOT_BLOCKS = 4


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


def enqueue_babelstream(ctx: DeviceContext, *, n: int, precision: str,
                        tb_size: int, executor: str = "auto",
                        streams: int = 1, iterations: int = 1,
                        dot_blocks: int = 0,
                        downloads: Tuple[str, ...] = ("a",),
                        ) -> Dict[str, Optional[np.ndarray]]:
    """Fill a/b/c, run *iterations* kernel sweeps, download on *ctx*.

    Each sweep is Copy→Mul→Add→Triad over the shared a/b/c buffers, back
    to back on one stream: the adjacency the graph compiler's fusion pass
    targets.  With ``dot_blocks`` sweep *i* ends with Dot into that many
    partial sums, downloaded as ``"dot_sums<i>"``.
    ``streams > 1`` puts the fills on their own lanes, event-ordered
    before the kernel stream; the kernels depend on each other and stay
    FIFO on one stream.  Returns ``{label: download}`` for *downloads*
    (and each ``"dot_sums<i>"``): arrays, or None under
    ``ctx.capture``.
    """
    dtype = dtype_from_any(precision)
    pool, compute = ctx.upload_pipeline(streams, prefix="init")
    lanes = itertools.cycle(pool)
    bufs = {}
    for label, start in (("a", START_A), ("b", START_B), ("c", START_C)):
        bufs[label] = ctx.enqueue_create_buffer(dtype, n, label=label)
        bufs[label].fill(start, stream=next(lanes))
    a, b, c = (buf.tensor() for buf in bufs.values())
    ctx.fan_in(pool, compute, prefix="init")

    launch = LaunchConfig.for_elements(n, tb_size)
    sweep = (("copy", copy_kernel, (a, c, n)),
             ("mul", mul_kernel, (b, c, SCALAR, n)),
             ("add", add_kernel, (a, b, c, n)),
             ("triad", triad_kernel, (a, b, c, SCALAR, n)))
    out: Dict[str, Optional[np.ndarray]] = {}
    if dot_blocks:
        dot_launch = LaunchConfig.make(dot_blocks, tb_size)
        # Dot needs its barriers honoured: a "sequential" opt-out means
        # "scalar", which for a barrier kernel is the cooperative pool.
        dot_mode = "cooperative" if executor == "sequential" else executor
    for i in range(iterations):
        for op, kern, args in sweep:
            ctx.enqueue_function(
                kern, *args, grid_dim=launch.grid_dim,
                block_dim=launch.block_dim, mode=executor,
                model=babelstream_kernel_model(op, n=n, precision=precision,
                                               tb_size=tb_size),
                stream=compute)
        if dot_blocks:
            # one buffer per sweep: a capture keys its downloads by label
            dot_sums = ctx.enqueue_create_buffer(DType.float64, dot_blocks,
                                                 label=f"dot_sums{i}")
            dot_sums.fill(0.0, stream=compute)
            ctx.enqueue_function(
                dot_kernel, a, b, dot_sums.tensor(), n, tb_size,
                grid_dim=dot_launch.grid_dim, block_dim=dot_launch.block_dim,
                mode=dot_mode,
                model=babelstream_kernel_model(
                    "dot", n=n, precision=precision, tb_size=tb_size,
                    elements_per_thread=n / dot_launch.total_threads),
                stream=compute)
            out[dot_sums.label] = dot_sums.copy_to_host(stream=compute)
    for label in downloads:
        out[label] = bufs[label].copy_to_host(stream=compute)
    return out


def babelstream_errors(out: Dict[str, np.ndarray], *, n: int,
                       precision: str, num_iterations: int
                       ) -> Dict[str, float]:
    """Verification errors of a verify-program download *out*.

    *out* holds ``"a"``, ``"b"``, ``"c"`` and each sweep's
    ``"dot_sums<i>"``; Dot is checked from the last sweep's partial sums.
    Raises on any mismatch.
    """
    # Mirror the device state into the host reference container for the
    # standard scalar-replay verification.
    host = BabelStreamArrays(n, precision)
    host.a, host.b, host.c = out["a"], out["b"], out["c"]
    errors = verify_arrays(host, num_iterations)
    dot_sums = out[f"dot_sums{num_iterations - 1}"]
    errors["dot"] = verify_dot(float(dot_sums.sum()), host)
    return errors


def run_babelstream_functional(ctx: DeviceContext, *, n: int = VERIFY_N,
                               precision: str = "float64",
                               tb_size: int = VERIFY_TB_SIZE,
                               num_iterations: int = VERIFY_ITERATIONS,
                               dot_blocks: int = VERIFY_DOT_BLOCKS,
                               executor: str = "auto", streams: int = 1,
                               ) -> Dict[str, float]:
    """Run :func:`enqueue_babelstream` with Dot on *ctx* and verify it.

    Uses a reduced vector size (the numerics do not depend on ``n``) and
    returns the verification errors (:func:`babelstream_errors`).  Raises
    on any mismatch.  Numerics are identical for any executor and stream
    count; *ctx*'s timeline holds the modelled pipeline afterwards.
    """
    out = enqueue_babelstream(ctx, n=n, precision=precision, tb_size=tb_size,
                              executor=executor, streams=streams,
                              iterations=num_iterations,
                              dot_blocks=dot_blocks,
                              downloads=("a", "b", "c"))
    ctx.synchronize()
    return babelstream_errors(out, n=n, precision=precision,
                              num_iterations=num_iterations)
