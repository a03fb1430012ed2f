"""Unified-API adapter for the BabelStream workload."""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..gpu.specs import get_gpu
from ..kernels.babelstream.kernels import BABELSTREAM_OPS
from ..kernels.babelstream.metrics import operation_bandwidth_gbs
from ..kernels.babelstream.reference import expected_values
from ..kernels.babelstream.runner import (
    DEFAULT_SIZE,
    babelstream_op_config,
    run_babelstream_functional,
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

__all__ = ["BabelStreamWorkload"]


class BabelStreamWorkload(Workload):
    """BabelStream Copy/Mul/Add/Triad/Dot (memory-bound, Figure 4 / Table 3)."""

    name = "babelstream"
    description = ("BabelStream Copy/Mul/Add/Triad/Dot on three n-element "
                   "vectors (Eq. 2 bandwidth)")
    primary_metric = "triad_gbs"
    primary_unit = "GB/s"
    params = (
        ParamSpec("n", int, DEFAULT_SIZE, "vector length in elements",
                  minimum=1),
        ParamSpec("tb_size", int, 1024, "thread-block size", minimum=1),
        ParamSpec("jitter", float, 0.01,
                  "relative per-sample measurement noise", minimum=0.0),
        ParamSpec("seed", int, 2025, "RNG seed for the sample noise"),
    )

    #: thread-block sizes the tuner may try (the streaming kernels are 1-D)
    TUNING_TB_SIZES = (32, 64, 128, 256, 512, 1024)

    #: vector length of the reduced capture/replay probe
    TUNING_PROBE_N = 1 << 12

    def tuning_space(self, request: RunRequest):
        """Launch knobs: thread-block size and the fast-math lowering."""
        from ..tuning.space import TuningKnob, TuningSpace

        return TuningSpace((
            TuningKnob("tb_size", self.TUNING_TB_SIZES),
            TuningKnob("fast_math", (False, True), kind="field"),
        ))

    def tuning_model(self, request: RunRequest):
        """Triad (the primary metric's kernel) model + launch for the pruner."""
        p = self.validate_params(request.params)
        return babelstream_op_config(
            "triad", n=p["n"], precision=request.precision,
            tb_size=p["tb_size"], backend=request.backend, gpu=request.gpu)

    def tuning_probe(self, request: RunRequest):
        """Capture the Copy→Mul→Add→Triad sweep on a reduced vector length.

        The four streaming kernels run back-to-back on the same stream over
        the shared a/b/c buffers — exactly the adjacency the graph
        compiler's fusion pass targets, so an ``optimize``-carrying request
        (or ``repro graph babelstream``) exercises real multi-kernel
        fusion rather than a single-launch degenerate.
        """
        from ..core.device import DeviceContext
        from ..core.dtypes import dtype_from_any
        from ..core.kernel import LaunchConfig
        from ..kernels.babelstream.kernels import (
            SCALAR,
            START_A,
            START_B,
            START_C,
            add_kernel,
            babelstream_kernel_model,
            copy_kernel,
            mul_kernel,
            triad_kernel,
        )

        p = self.validate_params(request.params)
        n = min(p["n"], self.TUNING_PROBE_N)
        dtype = dtype_from_any(request.precision)
        launch = LaunchConfig.for_elements(n, p["tb_size"])
        ctx = DeviceContext(request.gpu)
        a_buf = ctx.enqueue_create_buffer(dtype, n, label="a")
        b_buf = ctx.enqueue_create_buffer(dtype, n, label="b")
        c_buf = ctx.enqueue_create_buffer(dtype, n, label="c")
        a, b, c = a_buf.tensor(), b_buf.tensor(), c_buf.tensor()

        def model(op):
            return babelstream_kernel_model(op, n=n,
                                            precision=request.precision,
                                            tb_size=p["tb_size"])

        sweep = (("copy", copy_kernel, (a, c, n)),
                 ("mul", mul_kernel, (b, c, SCALAR, n)),
                 ("add", add_kernel, (a, b, c, n)),
                 ("triad", triad_kernel, (a, b, c, SCALAR, n)))
        with ctx.capture(f"tune-{self.name}") as graph:
            a_buf.fill(START_A)
            b_buf.fill(START_B)
            c_buf.fill(START_C)
            for op, kern, args in sweep:
                ctx.enqueue_function(
                    kern, *args,
                    grid_dim=launch.grid_dim, block_dim=launch.block_dim,
                    mode=request.executor, model=model(op),
                )
            a_buf.copy_to_host()
        return self._maybe_optimize(graph, request)

    def reference(self, *, num_iterations: int = 2):
        """Scalar-replay expected values of a/b/c after *num_iterations*."""
        a, b, c = expected_values(num_iterations)
        return {"a": a, "b": b, "c": c}

    def verify(self, *, precision: str = "float64", gpu: str = "h100") -> float:
        """Functional run of all five device kernels; max relative error."""
        errors = run_babelstream_functional(precision=precision, gpu=gpu)
        return max(errors.values())

    def _run(self, request: RunRequest) -> WorkloadResult:
        """Verify on a reduced vector, then model each operation (Eq. 2).

        Mirrors the BabelStream driver: every operation's bandwidth comes
        from the backend timing model, and seeded jitter gives one sample
        per protocol repeat.
        """
        p = request.params
        n, precision = p["n"], request.precision
        spec = get_gpu(request.gpu)
        be = get_backend(request.backend)
        sink: dict = {}
        verification = NOT_VERIFIED
        if request.verify:
            errors = run_babelstream_functional(
                precision=precision, gpu=spec.name, executor=request.executor,
                streams=request.streams, pipeline_sink=sink)
            verification = Verification(ran=True, passed=True,
                                        max_rel_error=max(errors.values()))

        metrics, timing, samples = {}, {}, {}
        rng = np.random.default_rng(p["seed"])
        for op in BABELSTREAM_OPS:
            model, launch = babelstream_op_config(
                op, n=n, precision=precision, tb_size=p["tb_size"],
                backend=be, gpu=spec)
            run = be.time(model, spec, launch, fast_math=request.fast_math)
            bw = operation_bandwidth_gbs(op, n, precision,
                                         run.timing.kernel_time_s)
            metrics[f"{op}_gbs"] = bw
            timing[op] = run.timing
            samples[f"{op}_gbs"] = [
                bw * max(1.0 + rng.normal(0.0, p["jitter"]), 0.5)
                for _ in range(request.protocol.repeats)]
        metrics["kernel_time_ms"] = sum(t.kernel_time_ms
                                        for t in timing.values())
        # Profiling counters for the primary-metric kernel (triad).
        metrics.update(self.counter_metrics(request))
        return WorkloadResult(
            request=request,
            metrics=metrics,
            primary_metric=self.primary_metric,
            verification=verification,
            timing=self._timing_with_pipeline(timing, sink),
            samples=samples,
            provenance=build_provenance(request, sampling=self.sampling),
        )
