"""High-level BabelStream benchmark runner.

Mirrors the BabelStream driver: allocate three vectors, run each kernel
``num_times`` and report the best/mean bandwidth per operation (Eq. 2).
Functional correctness is established by running the device kernels on a
reduced vector through the simulator and comparing against the scalar-replay
verification used by the original benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ...backends import get_backend
from ...core.device import DeviceContext
from ...core.dtypes import DType, dtype_from_any
from ...core.intrinsics import ceildiv
from ...core.kernel import LaunchConfig
from ...gpu.specs import get_gpu
from ...gpu.timing import TimingBreakdown
from .kernels import (
    BABELSTREAM_OPS,
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
from .metrics import operation_bandwidth_gbs
from .reference import BabelStreamArrays, verify_arrays, verify_dot

__all__ = ["BabelStreamResult", "BabelStreamBenchmark", "run_babelstream",
           "run_babelstream_functional"]

#: default vector size from the paper: 2^25 elements
DEFAULT_SIZE = 2 ** 25


@dataclass
class BabelStreamResult:
    """Per-operation results of one BabelStream configuration."""

    n: int
    precision: str
    backend: str
    gpu: str
    tb_size: int
    bandwidths_gbs: Dict[str, float]
    kernel_times_ms: Dict[str, float]
    timings: Dict[str, TimingBreakdown]
    verified: bool
    verification_errors: Dict[str, float] = field(default_factory=dict)
    samples_gbs: Dict[str, List[float]] = field(default_factory=dict)

    def bandwidth(self, op: str) -> float:
        return self.bandwidths_gbs[op.lower()]


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


class BabelStreamBenchmark:
    """Benchmark object mirroring the BabelStream driver structure."""

    def __init__(self, *, n: int = DEFAULT_SIZE, precision: str = "float64",
                 backend: str = "mojo", gpu: str = "h100",
                 tb_size: int = 1024, num_times: int = 100,
                 jitter: float = 0.01, seed: int = 2025,
                 fast_math: bool = False, warmup: int = 1,
                 executor: str = "auto", streams: int = 1):
        self.n = int(n)
        self.precision = precision
        self.backend = get_backend(backend)
        self.spec = get_gpu(gpu)
        self.tb_size = int(tb_size)
        self.num_times = int(num_times)
        self.jitter = float(jitter)
        self.seed = int(seed)
        self.fast_math = bool(fast_math)
        #: iterations discarded before sample collection (the BabelStream
        #: driver's first timing is traditionally treated as warm-up)
        self.warmup = int(warmup)
        #: functional-simulator mode used for verification launches
        self.executor = executor
        #: device streams used by the verification pipeline
        self.streams = int(streams)

    # ------------------------------------------------------------------ model
    def launch_for(self, op: str) -> LaunchConfig:
        if op == "dot":
            blocks = self.backend.dot_num_blocks(self.spec, self.n, self.tb_size)
            return LaunchConfig.make(blocks, self.tb_size)
        return LaunchConfig.for_elements(self.n, self.tb_size)

    def model_for(self, op: str):
        launch = self.launch_for(op)
        if op == "dot":
            elements_per_thread = self.n / launch.total_threads
        else:
            elements_per_thread = 1.0
        return babelstream_kernel_model(
            op, n=self.n, precision=self.precision,
            elements_per_thread=elements_per_thread, tb_size=self.tb_size,
        )

    # -------------------------------------------------------------------- run
    def run(self, *, verify: bool = True,
            pipeline_sink: Optional[dict] = None) -> BabelStreamResult:
        verification_errors: Dict[str, float] = {}
        verified = False
        if verify:
            verification_errors = run_babelstream_functional(
                precision=self.precision, gpu=self.spec.name,
                executor=self.executor, streams=self.streams,
                pipeline_sink=pipeline_sink)
            verified = True

        bandwidths: Dict[str, float] = {}
        times: Dict[str, float] = {}
        timings: Dict[str, TimingBreakdown] = {}
        samples: Dict[str, List[float]] = {}
        rng = np.random.default_rng(self.seed)

        for op in BABELSTREAM_OPS:
            launch = self.launch_for(op)
            model = self.model_for(op)
            run = self.backend.time(model, self.spec, launch,
                                    fast_math=self.fast_math)
            t_s = run.timing.kernel_time_s
            bw = operation_bandwidth_gbs(op, self.n, self.precision, t_s)
            bandwidths[op] = bw
            times[op] = run.timing.kernel_time_ms
            timings[op] = run.timing
            samples[op] = [
                bw * max(1.0 + rng.normal(0.0, self.jitter), 0.5)
                for _ in range(max(self.num_times - self.warmup, 0))
            ]

        return BabelStreamResult(
            n=self.n,
            precision=self.precision,
            backend=self.backend.name,
            gpu=self.spec.name,
            tb_size=self.tb_size,
            bandwidths_gbs=bandwidths,
            kernel_times_ms=times,
            timings=timings,
            verified=verified,
            verification_errors=verification_errors,
            samples_gbs=samples,
        )


def run_babelstream(**kwargs) -> BabelStreamResult:
    """Convenience wrapper: build a :class:`BabelStreamBenchmark` and run it.

    .. deprecated::
        Thin shim kept for existing callers; prefer
        ``repro.workloads.get_workload("babelstream")`` with a
        :class:`~repro.workloads.RunRequest`.
    """
    verify = kwargs.pop("verify", True)
    return BabelStreamBenchmark(**kwargs).run(verify=verify)
