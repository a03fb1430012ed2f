"""Seven-point Laplacian stencil workload (memory-bandwidth bound)."""

from .kernel import laplacian_kernel, stencil_kernel_model
from .metrics import (
    effective_bandwidth_gbs,
    effective_fetch_bytes,
    effective_write_bytes,
)
from .problem import StencilProblem
from .reference import laplacian_reference, verify_laplacian
from .runner import stencil_launch_config, verify_stencil_kernel

__all__ = [
    "laplacian_kernel", "stencil_kernel_model",
    "effective_bandwidth_gbs", "effective_fetch_bytes", "effective_write_bytes",
    "StencilProblem", "laplacian_reference", "verify_laplacian",
    "stencil_launch_config", "verify_stencil_kernel",
]
