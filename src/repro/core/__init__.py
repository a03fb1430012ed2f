"""Portable GPU kernel programming model (the paper's primary contribution).

This package provides the Mojo-style device programming API used by every
workload in the repository: typed device buffers and layout tensors, thread
intrinsics, atomics, kernel/launch abstractions, and the multi-level
compilation pipeline whose backend-specific lowering reproduces the paper's
profiling observations.

The re-exports below resolve on first access (:mod:`repro._lazy`): importing
one module of the package, such as :mod:`repro.core.errors`, does not import
the device runtime or the compiler.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".atomics": ("Atomic", "atomic_add", "atomic_max", "atomic_min"),
    ".compiler": ("CompiledKernel", "CompilerProfile", "Opcode", "build_ir",
                  "compile_kernel", "default_pass_pipeline"),
    ".device": ("DeviceBuffer", "DeviceContext", "DeviceGraph", "Event",
                "PipelineTiming", "Stream", "StreamEvent"),
    ".dtypes": ("DType", "dtype_from_any"),
    ".errors": ("CompilationError", "ConfigurationError", "DeviceError",
                "DTypeError", "LaunchError", "LayoutError",
                "OutOfMemoryError", "ReproError", "UnsupportedBackendError",
                "VerificationError"),
    ".intrinsics": ("AddressSpace", "Dim3", "barrier", "block_dim",
                    "block_idx", "ceildiv", "global_idx", "grid_dim",
                    "shared_array", "stack_allocation", "thread_idx"),
    ".kernel": ("Kernel", "KernelModel", "LaunchConfig", "MemoryPattern",
                "kernel"),
    ".layout": ("Layout", "LayoutTensor"),
})

__all__ = [
    "Atomic", "atomic_add", "atomic_max", "atomic_min",
    "CompiledKernel", "CompilerProfile", "Opcode", "build_ir", "compile_kernel",
    "default_pass_pipeline",
    "DeviceBuffer", "DeviceContext", "DeviceGraph", "Event",
    "PipelineTiming", "Stream", "StreamEvent",
    "DType", "dtype_from_any",
    "ReproError", "ConfigurationError", "CompilationError", "LaunchError",
    "DeviceError", "OutOfMemoryError", "UnsupportedBackendError", "LayoutError",
    "DTypeError", "VerificationError",
    "AddressSpace", "Dim3", "barrier", "block_dim", "block_idx", "ceildiv",
    "global_idx", "grid_dim", "shared_array", "stack_allocation", "thread_idx",
    "Kernel", "KernelModel", "LaunchConfig", "MemoryPattern", "kernel",
    "Layout", "LayoutTensor",
]
