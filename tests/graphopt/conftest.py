"""Shared capture builders for the graph-compiler tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.kernels.babelstream.kernels import (
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
from repro.core.kernel import LaunchConfig

N = 1 << 10


def _capture_stream(models: bool):
    ctx = DeviceContext("h100")
    launch = LaunchConfig.for_elements(N, 256)
    bufs = {}
    tensors = {}
    for label in ("a", "b", "c"):
        bufs[label] = ctx.enqueue_create_buffer(DType.float64, N, label=label)
        tensors[label] = bufs[label].tensor()
    a, b, c = tensors["a"], tensors["b"], tensors["c"]
    with ctx.capture("stream") as graph:
        bufs["a"].copy_from_host(np.full(N, START_A))
        bufs["b"].copy_from_host(np.full(N, START_B))
        bufs["c"].copy_from_host(np.full(N, START_C))
        for kern, op, args in ((copy_kernel, "copy", (a, c, N)),
                               (mul_kernel, "mul", (b, c, SCALAR, N)),
                               (add_kernel, "add", (a, b, c, N)),
                               (triad_kernel, "triad", (a, b, c, SCALAR, N))):
            ctx.enqueue_function(
                kern, *args, grid_dim=launch.grid_dim,
                block_dim=launch.block_dim,
                model=babelstream_kernel_model(op, n=N) if models else None)
        bufs["a"].copy_to_host()
        bufs["c"].copy_to_host()
    return ctx, graph, bufs


@pytest.fixture
def stream_capture():
    """H2D a/b/c -> Copy -> Mul -> Add -> Triad -> D2H a, c on one stream.

    The canonical fusion subject: four adjacent vector-safe kernels with an
    identical launch sharing the a/b/c buffers.
    """
    return _capture_stream(models=False)


@pytest.fixture
def modelled_stream_capture():
    """``stream_capture`` with each kernel enqueued with its BabelStream
    model, so every kernel op carries a non-zero modelled duration."""
    return _capture_stream(models=True)
