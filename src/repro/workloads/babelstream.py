"""Unified-API adapter for the BabelStream workload."""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..core.device import DeviceContext
from ..kernels.babelstream.kernels import BABELSTREAM_OPS
from ..kernels.babelstream.metrics import operation_bandwidth_gbs
from ..kernels.babelstream.reference import expected_values
from ..kernels.babelstream.runner import (
    DEFAULT_SIZE,
    VERIFY_DOT_BLOCKS,
    VERIFY_ITERATIONS,
    VERIFY_N,
    VERIFY_TB_SIZE,
    babelstream_errors,
    babelstream_op_config,
    enqueue_babelstream,
)
from .base import ParamSpec, RunRequest, Workload

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
        """Triad's model + launch: the primary metric's kernel."""
        p = self.validate_params(request.params)
        return babelstream_op_config(
            "triad", n=p["n"], precision=request.precision,
            tb_size=p["tb_size"], backend=request.backend, gpu=request.gpu)

    def tuning_probe(self, request: RunRequest):
        """Capture one Copy→Mul→Add→Triad sweep on a reduced vector length.

        Four back-to-back kernels over shared buffers: an
        ``optimize``-carrying request (or ``repro graph babelstream``)
        exercises real multi-kernel fusion.
        """
        p = self.validate_params(request.params)
        ctx = DeviceContext(request.gpu)
        with ctx.capture(f"tune-{self.name}") as graph:
            enqueue_babelstream(ctx, n=min(p["n"], self.TUNING_PROBE_N),
                                precision=request.precision,
                                tb_size=p["tb_size"],
                                executor=request.executor)
        return self._maybe_optimize(graph, request)

    def reference(self, *, num_iterations: int = 2):
        """Scalar-replay expected values of a/b/c after *num_iterations*."""
        a, b, c = expected_values(num_iterations)
        return {"a": a, "b": b, "c": c}

    def _verify(self, request: RunRequest):
        """Verify :data:`VERIFY_ITERATIONS` sweeps on a reduced vector."""
        precision = request.precision
        out, pipeline = self._replay_verification(
            request, (VERIFY_N, VERIFY_ITERATIONS),
            (VERIFY_TB_SIZE, VERIFY_DOT_BLOCKS),
            lambda ctx: enqueue_babelstream(
                ctx, n=VERIFY_N, precision=precision,
                tb_size=VERIFY_TB_SIZE, executor=request.executor,
                streams=request.streams, iterations=VERIFY_ITERATIONS,
                dot_blocks=VERIFY_DOT_BLOCKS, downloads=("a", "b", "c")))
        errors = babelstream_errors(out, n=VERIFY_N, precision=precision,
                                    num_iterations=VERIFY_ITERATIONS)
        return max(errors.values()), pipeline

    def _figures(self, request: RunRequest, run):
        """Each operation's Eq. 2 bandwidth, as the BabelStream benchmark
        reports it, with one seeded jitter sample per protocol repeat.

        *run* is Triad's; the other four operations are priced here.
        """
        p = request.params
        n, precision = p["n"], request.precision
        be = get_backend(request.backend)
        metrics, timing, samples = {}, {}, {}
        rng = np.random.default_rng(p["seed"])
        for op in BABELSTREAM_OPS:
            op_run = run
            if op != "triad":
                model, launch = babelstream_op_config(
                    op, n=n, precision=precision, tb_size=p["tb_size"],
                    backend=be, gpu=run.gpu)
                op_run = be.time(model, run.gpu, launch,
                                 fast_math=request.fast_math)
            bw = operation_bandwidth_gbs(op, n, precision,
                                         op_run.timing.kernel_time_s)
            metrics[f"{op}_gbs"] = bw
            timing[op] = op_run.timing
            samples[f"{op}_gbs"] = [
                bw * max(1.0 + rng.normal(0.0, p["jitter"]), 0.5)
                for _ in range(request.protocol.repeats)]
        metrics["kernel_time_ms"] = sum(t.kernel_time_ms
                                        for t in timing.values())
        return metrics, timing, samples
