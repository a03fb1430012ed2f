"""Launch geometry and the device program of the stencil workload.

The benchmark itself (timing model, Eq. 1 bandwidth, measurement samples)
is :meth:`repro.workloads.stencil.StencilWorkload._run`.  This module holds
the launch configuration it shares with the tuner, the one device program
(:func:`enqueue_stencil`) that verification and the tuning probe both
enqueue, and the comparison every verification of it shares.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...core.device import DeviceContext
from ...core.intrinsics import ceildiv
from ...core.kernel import LaunchConfig
from ...core.layout import Layout
from .kernel import laplacian_kernel, stencil_kernel_model
from .problem import StencilProblem
from .reference import verify_laplacian

__all__ = ["enqueue_stencil", "stencil_error", "verify_stencil_kernel",
           "stencil_launch_config"]

#: problem sizes at or below this edge length are verified with the
#: thread-level functional simulator (larger sizes use the NumPy reference)
FUNCTIONAL_VERIFY_MAX_L = 34
#: thread-block shape of the verification launch
VERIFY_BLOCK_SHAPE = (8, 4, 4)


def stencil_launch_config(L: int, block_shape: Tuple[int, int, int]) -> LaunchConfig:
    """Grid covering an ``L^3`` domain with the given thread-block shape."""
    bx, by, bz = block_shape
    grid = (ceildiv(L, bx), ceildiv(L, by), ceildiv(L, bz))
    return LaunchConfig.make(grid, block_shape)


def enqueue_stencil(ctx: DeviceContext, problem: StencilProblem,
                    block_shape: Tuple[int, int, int], *,
                    executor: str = "auto",
                    streams: int = 1) -> Optional[np.ndarray]:
    """Upload the initial field, launch the Laplacian, download ``f``.

    Returns the flat ``f`` download: an array on an eager context, None
    under ``ctx.capture``.  ``streams > 1`` gives the upload, the kernel
    and the download their own lanes (``h2d``, ``compute``, ``d2h``),
    ordered by the ``uploads`` and ``kernel-done`` events.  The three
    phases are strictly dependent, so they still serialise: the lanes
    expose the pipeline structure rather than overlap.  One stream records
    no events: the capture is the bare upload, kernel and download.
    """
    L = problem.L
    layout = Layout.row_major(L, L, L)
    u_buf = ctx.enqueue_create_buffer(problem.dtype, problem.num_cells, label="u")
    f_buf = ctx.enqueue_create_buffer(problem.dtype, problem.num_cells, label="f")
    h2d, compute, d2h = (ctx.stream(s) if streams > 1 else ctx.default_stream
                         for s in ("h2d", "compute", "d2h"))

    u_buf.copy_from_host(problem.initial_field(), stream=h2d)
    if streams > 1:
        compute.wait(ctx.event("uploads").record(h2d))
    launch = stencil_launch_config(L, block_shape)
    ctx.enqueue_function(
        laplacian_kernel, f_buf.tensor(layout, mut=True),
        u_buf.tensor(layout, mut=False), L, L, L,
        *problem.inverse_spacing_squared,
        grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=executor,
        model=stencil_kernel_model(L=L, precision=problem.precision),
        stream=compute,
    )
    if streams > 1:
        d2h.wait(ctx.event("kernel-done").record(compute))
    return f_buf.copy_to_host(stream=d2h)


def stencil_error(problem: StencilProblem, f: np.ndarray) -> float:
    """Max relative error of a flat ``f`` download against the reference
    (:meth:`StencilProblem.expected_laplacian`, memoised per grid)."""
    return verify_laplacian(f.reshape(problem.shape),
                            problem.expected_laplacian())


def verify_stencil_kernel(ctx: DeviceContext, L: int = 18,
                          precision: str = "float64",
                          block_shape: Tuple[int, int, int] = VERIFY_BLOCK_SHAPE,
                          executor: str = "auto", streams: int = 1) -> float:
    """Run :func:`enqueue_stencil` on *ctx* for a small grid and verify it.

    Returns the maximum relative error (:func:`stencil_error`).  Numerics
    are identical for any executor and stream count; *ctx*'s timeline
    holds the modelled pipeline afterwards.
    """
    problem = StencilProblem(L, precision)
    f = enqueue_stencil(ctx, problem, block_shape, executor=executor,
                        streams=streams)
    ctx.synchronize()
    return stencil_error(problem, f)
