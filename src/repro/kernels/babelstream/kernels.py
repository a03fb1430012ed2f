"""Device kernels for BabelStream (paper Listing 3).

Five array kernels measure sustainable memory bandwidth: Copy, Mul, Add,
Triad and Dot.  The first four are element-wise streaming kernels; Dot is a
grid-stride reduction using block shared memory and barriers, exactly as in
the paper's portable Mojo port.

All five bodies are vector-safe: the streaming kernels use the
``any_lane``/``compress_lanes`` tail guard, and Dot expresses its grid-stride
loop and shared-memory tree reduction through ``masked_gather`` /
``masked_store``, so the lockstep executor runs it one block per lane set
(the barriers degenerate to event counts — see
:mod:`repro.gpu.vector_executor`).
"""

from __future__ import annotations

from ...core.dtypes import DType, dtype_from_any
from ...core.intrinsics import (
    any_lane,
    barrier,
    block_dim,
    block_idx,
    compress_lanes,
    grid_dim,
    masked_gather,
    masked_store,
    shared_array,
    thread_idx,
)
from ...core.kernel import KernelModel, MemoryPattern, kernel

__all__ = [
    "copy_kernel", "mul_kernel", "add_kernel", "triad_kernel", "dot_kernel",
    "babelstream_kernel_model", "BABELSTREAM_OPS", "START_A", "START_B",
    "START_C", "SCALAR",
]

#: canonical BabelStream initial values and triad scalar
START_A = 0.1
START_B = 0.2
START_C = 0.0
SCALAR = 0.4

#: the five operations in canonical order
BABELSTREAM_OPS = ("copy", "mul", "add", "triad", "dot")


@kernel(name="copy_kernel", strict=True)
def copy_kernel(a, c, n):
    """``c[i] = a[i]``"""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    c[i] = a[i]


@kernel(name="mul_kernel", strict=True)
def mul_kernel(b, c, scalar, n):
    """``b[i] = scalar * c[i]``"""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    b[i] = scalar * c[i]


@kernel(name="add_kernel", strict=True)
def add_kernel(a, b, c, n):
    """``c[i] = a[i] + b[i]``"""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    c[i] = a[i] + b[i]


@kernel(name="triad_kernel", strict=True)
def triad_kernel(a, b, c, scalar, n):
    """``a[i] = b[i] + scalar * c[i]``"""
    i = block_dim.x * block_idx.x + thread_idx.x
    m = i < n
    if not any_lane(m):
        return
    i = compress_lanes(m, i)
    a[i] = b[i] + scalar * c[i]


@kernel(name="dot_kernel", strict=True)
def dot_kernel(a, b, block_sums, n, tb_size):
    """Grid-stride dot product with a block shared-memory tree reduction.

    Each block writes its partial sum into ``block_sums[block_idx.x]``; the
    host (or a second kernel) finishes the reduction, as in BabelStream.
    The grid-stride loop and the tree reduction are predicated
    (``masked_gather`` / ``masked_store``) rather than branched, so every
    lane of a block walks the same statement sequence — which is also how
    the divergence-free GPU implementation behaves.
    """
    tb_sum = shared_array(tb_size, DType.float64, key="tb_sum")
    i = block_dim.x * block_idx.x + thread_idx.x
    local_tid = thread_idx.x
    threads_in_grid = block_dim.x * grid_dim.x

    acc = 0.0
    while any_lane(i < n):
        m = i < n
        acc = acc + masked_gather(a, i, m) * masked_gather(b, i, m)
        i = i + threads_in_grid
    tb_sum[local_tid] = acc

    offset = block_dim.x // 2
    while offset > 0:
        barrier()
        m = local_tid < offset
        masked_store(
            tb_sum, local_tid,
            masked_gather(tb_sum, local_tid, m)
            + masked_gather(tb_sum, local_tid + offset, m),
            m,
        )
        offset //= 2
    barrier()

    m0 = local_tid == 0
    masked_store(block_sums, block_idx.x, tb_sum[0], m0)


def babelstream_kernel_model(op: str, *, n: int, precision: str = "float64",
                             elements_per_thread: float = 1.0,
                             tb_size: int = 1024) -> KernelModel:
    """Analytic resource model for one BabelStream operation.

    ``elements_per_thread`` is 1 for the streaming kernels and ``n / threads``
    for the grid-stride Dot kernel.
    """
    dtype = dtype_from_any(precision)
    op = op.lower()
    e = float(elements_per_thread)
    if op == "copy":
        return KernelModel(
            name="babelstream_copy", dtype=dtype, loads_global=1.0,
            stores_global=1.0, flops=0.0, int_ops=6.0, scalar_args=1,
            working_values=10, memory_pattern=MemoryPattern.STRIDE1,
        )
    if op == "mul":
        return KernelModel(
            name="babelstream_mul", dtype=dtype, loads_global=1.0,
            stores_global=1.0, flops=1.0, int_ops=6.0, scalar_args=2,
            working_values=10, memory_pattern=MemoryPattern.STRIDE1,
        )
    if op == "add":
        return KernelModel(
            name="babelstream_add", dtype=dtype, loads_global=2.0,
            stores_global=1.0, flops=1.0, int_ops=6.0, scalar_args=1,
            working_values=12, memory_pattern=MemoryPattern.STRIDE1,
        )
    if op == "triad":
        return KernelModel(
            name="babelstream_triad", dtype=dtype, loads_global=2.0,
            stores_global=1.0, flops=2.0, int_ops=6.0, scalar_args=2,
            working_values=12, memory_pattern=MemoryPattern.STRIDE1,
        )
    if op == "dot":
        return KernelModel(
            name="babelstream_dot", dtype=dtype,
            loads_global=2.0 * e,
            stores_global=1.0 / max(tb_size, 1),
            flops=2.0 * e,
            int_ops=8.0 * e,
            shared_loads=2.0 * _log2(tb_size),
            shared_stores=1.0 + _log2(tb_size),
            barriers=float(_log2(tb_size)),
            scalar_args=2,
            working_values=14,
            uses_shared=True,
            shared_bytes_per_block=tb_size * dtype.sizeof,
            memory_pattern=MemoryPattern.STRIDE1,
        )
    raise ValueError(f"unknown BabelStream operation {op!r}; "
                     f"expected one of {BABELSTREAM_OPS}")


def _log2(value: int) -> int:
    out = 0
    v = int(value)
    while v > 1:
        v //= 2
        out += 1
    return out
