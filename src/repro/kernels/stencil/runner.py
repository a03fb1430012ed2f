"""Launch geometry and functional verification for the stencil workload.

The benchmark itself (timing model, Eq. 1 bandwidth, measurement samples)
is :meth:`repro.workloads.stencil.StencilWorkload._run`; this module holds
the launch configuration it shares with the tuner and the device-kernel
verification it runs on a reduced grid.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...core.device import DeviceContext
from ...core.intrinsics import ceildiv
from ...core.kernel import LaunchConfig
from ...core.layout import Layout
from .kernel import laplacian_kernel, stencil_kernel_model
from .problem import StencilProblem
from .reference import verify_laplacian

__all__ = ["verify_stencil_kernel", "stencil_launch_config"]

#: problem sizes at or below this edge length are verified with the
#: thread-level functional simulator (larger sizes use the NumPy reference)
FUNCTIONAL_VERIFY_MAX_L = 34


def stencil_launch_config(L: int, block_shape: Tuple[int, int, int]) -> LaunchConfig:
    """Grid covering an ``L^3`` domain with the given thread-block shape."""
    bx, by, bz = block_shape
    grid = (ceildiv(L, bx), ceildiv(L, by), ceildiv(L, bz))
    return LaunchConfig.make(grid, block_shape)


def verify_stencil_kernel(L: int = 18, precision: str = "float64",
                          gpu: str = "h100",
                          block_shape: Tuple[int, int, int] = (8, 4, 4),
                          executor: str = "auto", streams: int = 1,
                          pipeline_sink: Optional[dict] = None) -> float:
    """Run the device kernel functionally on a small grid and verify it.

    Returns the maximum relative error against the NumPy reference.
    ``executor`` selects the simulator mode (``"auto"`` lowers this
    vector-safe kernel to NumPy slicing).  ``streams > 1`` gives the
    upload, the kernel and the download their own timeline lanes with
    explicit event ordering; the three phases are strictly dependent here,
    so they still serialise — the lanes expose the pipeline structure rather
    than overlap (workloads with independent transfers, e.g. miniBUDE's deck
    uploads, do overlap).  Numerics are identical for any stream count.
    When *pipeline_sink* is given, its ``"pipeline"`` key receives the
    context's overlap-aware :class:`~repro.core.device.PipelineTiming`.
    """
    problem = StencilProblem(L, precision)
    invhx2, invhy2, invhz2, invhxyz2 = problem.inverse_spacing_squared
    u_host = problem.initial_field()

    ctx = DeviceContext(gpu)
    layout = Layout.row_major(L, L, L)
    u_buf = ctx.enqueue_create_buffer(problem.dtype, problem.num_cells, label="u")
    f_buf = ctx.enqueue_create_buffer(problem.dtype, problem.num_cells, label="f")

    # one upload, one kernel, one download: streams > 1 gives each phase
    # its own lane (more than three streams would add nothing here)
    copy_stream = ctx.stream("h2d") if streams > 1 else ctx.default_stream
    compute = ctx.stream("compute") if streams > 1 else ctx.default_stream
    d2h = ctx.stream("d2h") if streams > 1 else ctx.default_stream

    u_buf.copy_from_host(u_host, stream=copy_stream)
    uploaded = ctx.event("uploads").record(copy_stream)
    u = u_buf.tensor(layout, mut=False, bounds_check=False)
    f = f_buf.tensor(layout, mut=True, bounds_check=False)

    launch = stencil_launch_config(L, block_shape)
    compute.wait(uploaded)
    ctx.enqueue_function(
        laplacian_kernel, f, u, L, L, L, invhx2, invhy2, invhz2, invhxyz2,
        grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=executor,
        model=stencil_kernel_model(L=L, precision=precision), stream=compute,
    )
    d2h.wait(ctx.event("kernel-done").record(compute))
    result = f_buf.copy_to_host(stream=d2h).reshape(problem.shape)
    ctx.synchronize()
    if pipeline_sink is not None:
        pipeline_sink["pipeline"] = ctx.pipeline_breakdown()

    return verify_laplacian(result, u_host, invhx2, invhy2, invhz2, invhxyz2)
