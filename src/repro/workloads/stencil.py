"""Unified-API adapter for the seven-point stencil workload."""

from __future__ import annotations

import numpy as np

from ..core.device import DeviceContext
from ..kernels.stencil.kernel import stencil_kernel_model
from ..kernels.stencil.metrics import effective_bandwidth_gbs
from ..kernels.stencil.problem import StencilProblem
from ..kernels.stencil.runner import (
    FUNCTIONAL_VERIFY_MAX_L,
    VERIFY_BLOCK_SHAPE,
    enqueue_stencil,
    stencil_error,
    stencil_launch_config,
)
from .base import ParamSpec, RunRequest, Workload

__all__ = ["StencilWorkload"]


class StencilWorkload(Workload):
    """Seven-point Laplacian stencil (memory-bound, Figure 3 / Table 2)."""

    name = "stencil"
    description = "Seven-point Laplacian stencil on an L^3 grid (Eq. 1 bandwidth)"
    primary_metric = "bandwidth_gbs"
    primary_unit = "GB/s"
    params = (
        ParamSpec("L", int, 512, "cubic domain edge length", minimum=3),
        ParamSpec("block_shape", tuple, (512, 1, 1),
                  "thread-block shape bx,by,bz", minimum=1, length=3),
        ParamSpec("jitter", float, 0.02,
                  "relative per-sample measurement noise", minimum=0.0),
        ParamSpec("seed", int, 2025, "RNG seed for the sample noise"),
    )

    #: block-shape candidates the tuner may try; the two 2048-thread shapes
    #: at the end exist to be rejected by the occupancy pruner (the device
    #: caps blocks at 1024 threads) — they are never measured
    TUNING_BLOCKS = (
        (1024, 1, 1), (512, 1, 1), (256, 1, 1), (128, 1, 1), (64, 1, 1),
        (32, 1, 1), (256, 2, 1), (128, 4, 1), (64, 4, 2), (32, 4, 2),
        (16, 16, 1), (16, 8, 8), (8, 8, 8), (8, 8, 4), (8, 4, 4), (4, 4, 4),
        (32, 8, 8), (64, 8, 4),
    )

    #: edge length of the reduced grid the capture/replay probe executes
    TUNING_PROBE_L = 16

    def tuning_space(self, request: RunRequest):
        """Launch knobs: thread-block shape and the fast-math lowering."""
        from ..tuning.space import TuningKnob, TuningSpace

        return TuningSpace((
            TuningKnob("block_shape", self.TUNING_BLOCKS),
            TuningKnob("fast_math", (False, True), kind="field"),
        ))

    def tuning_model(self, request: RunRequest):
        """The Laplacian kernel's model + launch on the requested grid."""
        p = request.params
        model = stencil_kernel_model(L=p["L"], precision=request.precision)
        return model, stencil_launch_config(p["L"], p["block_shape"])

    def region_probe(self, request: RunRequest):
        """Stencil argument skeleton for symbolic traffic estimation."""
        from ..analysis.regions import TensorSpec
        from ..kernels.stencil.kernel import laplacian_kernel

        p = self.validate_params(request.params)
        L = p["L"]
        problem = StencilProblem(L, request.precision)
        invhx2, invhy2, invhz2, invhxyz2 = problem.inverse_spacing_squared
        spec = TensorSpec((L, L, L), request.precision)
        return laplacian_kernel, (spec, spec, L, L, L,
                                  invhx2, invhy2, invhz2, invhxyz2)

    def tuning_probe(self, request: RunRequest):
        """Capture the H2D → kernel → D2H pipeline on a reduced grid."""
        p = self.validate_params(request.params)
        problem = StencilProblem(min(p["L"], self.TUNING_PROBE_L),
                                 request.precision)
        ctx = DeviceContext(request.gpu)
        with ctx.capture(f"tune-{self.name}") as graph:
            enqueue_stencil(ctx, problem, p["block_shape"],
                            executor=request.executor)
        return self._maybe_optimize(graph, request)

    def reference(self, *, L: int = 32, precision: str = "float64"):
        """NumPy Laplacian of the standard initial field on an ``L^3`` grid
        (memoised, read-only)."""
        return StencilProblem(L, precision).expected_laplacian()

    def _verify(self, request: RunRequest):
        """Verify on at most a ``FUNCTIONAL_VERIFY_MAX_L``-edge grid.

        The kernel's numerics do not depend on ``L``, so a reduced grid
        checks the same device code the requested ``L`` is modelled for.
        """
        problem = StencilProblem(min(request.params["L"],
                                     FUNCTIONAL_VERIFY_MAX_L),
                                 request.precision)
        out, pipeline = self._replay_verification(
            request, problem.key, VERIFY_BLOCK_SHAPE,
            lambda ctx: enqueue_stencil(
                ctx, problem, VERIFY_BLOCK_SHAPE,
                executor=request.executor, streams=request.streams))
        return stencil_error(problem, out["f"]), pipeline

    def _figures(self, request: RunRequest, run):
        """Eq. 1 bandwidth, and one seeded jitter sample per protocol
        repeat (Figure 3's spread)."""
        p = request.params
        bandwidth = effective_bandwidth_gbs(p["L"], request.precision,
                                            run.timing.kernel_time_s)
        rng = np.random.default_rng(p["seed"])
        samples = [bandwidth * max(1.0 + rng.normal(0.0, p["jitter"]), 0.5)
                   for _ in range(request.protocol.repeats)]
        return ({"bandwidth_gbs": bandwidth,
                 "mean_bandwidth_gbs": float(np.mean(samples)),
                 "kernel_time_ms": run.timing.kernel_time_ms},
                {"kernel": run.timing}, {"bandwidth_gbs": samples})
