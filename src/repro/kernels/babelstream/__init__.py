"""BabelStream memory-bandwidth workload (Copy, Mul, Add, Triad, Dot)."""

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
from .metrics import arrays_moved, operation_bandwidth_gbs, operation_bytes
from .reference import BabelStreamArrays, expected_values, verify_arrays, verify_dot
from .runner import (
    DEFAULT_SIZE,
    babelstream_op_config,
    run_babelstream_functional,
)

__all__ = [
    "BABELSTREAM_OPS", "SCALAR", "START_A", "START_B", "START_C",
    "add_kernel", "babelstream_kernel_model", "copy_kernel", "dot_kernel",
    "mul_kernel", "triad_kernel",
    "arrays_moved", "operation_bandwidth_gbs", "operation_bytes",
    "BabelStreamArrays", "expected_values", "verify_arrays", "verify_dot",
    "DEFAULT_SIZE", "babelstream_op_config", "run_babelstream_functional",
]
