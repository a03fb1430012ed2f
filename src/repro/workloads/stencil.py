"""Unified-API adapter for the seven-point stencil workload."""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..core.device import DeviceContext
from ..gpu.specs import get_gpu
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
from .base import (
    NOT_VERIFIED,
    ParamSpec,
    RunRequest,
    Verification,
    Workload,
    WorkloadResult,
)
from .provenance import build_provenance

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
        """Kernel model + launch for the pruner (no compile, no run)."""
        p = self.validate_params(request.params)
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

    def _run(self, request: RunRequest) -> WorkloadResult:
        """Verify on a reduced grid, then model the requested ``L`` (Eq. 1).

        The kernel's numerics do not depend on ``L``, so the device kernel
        is verified on at most a ``FUNCTIONAL_VERIFY_MAX_L``-edge grid; the
        bandwidth comes from the backend timing model, and seeded jitter
        gives one sample per protocol repeat (Figure 3's spread).
        """
        p = request.params
        L, precision = p["L"], request.precision
        spec = get_gpu(request.gpu)
        be = get_backend(request.backend)
        verification, pipeline = NOT_VERIFIED, {}
        if request.verify:
            problem = StencilProblem(min(L, FUNCTIONAL_VERIFY_MAX_L),
                                     precision)
            out, pipeline["verify_pipeline"] = self._replay_verification(
                request, problem.key, VERIFY_BLOCK_SHAPE,
                lambda ctx: enqueue_stencil(
                    ctx, problem, VERIFY_BLOCK_SHAPE,
                    executor=request.executor, streams=request.streams))
            verification = Verification(
                ran=True, passed=True,
                max_rel_error=stencil_error(problem, out["f"]))

        run = be.time(stencil_kernel_model(L=L, precision=precision), spec,
                      stencil_launch_config(L, p["block_shape"]),
                      fast_math=request.fast_math)
        bandwidth = effective_bandwidth_gbs(L, precision,
                                            run.timing.kernel_time_s)
        rng = np.random.default_rng(p["seed"])
        samples = [bandwidth * max(1.0 + rng.normal(0.0, p["jitter"]), 0.5)
                   for _ in range(request.protocol.repeats)]
        return WorkloadResult(
            request=request,
            metrics={
                "bandwidth_gbs": bandwidth,
                "mean_bandwidth_gbs": float(np.mean(samples)),
                "kernel_time_ms": run.timing.kernel_time_ms,
                **self.counter_metrics(request),
            },
            primary_metric=self.primary_metric,
            verification=verification,
            timing={"kernel": run.timing, **pipeline},
            samples={"bandwidth_gbs": samples},
            provenance=build_provenance(request, sampling=self.sampling),
        )
