"""repro: reproduction of the SC Workshops '25 Mojo GPU science-kernels paper.

The package provides a Mojo-style portable GPU programming model executed on a
simulated device, backends standing in for the Mojo/CUDA/HIP toolchains, the
four science workloads of the paper (seven-point stencil, BabelStream,
miniBUDE, Hartree–Fock), a profiling substrate, and a benchmark harness that
regenerates every table and figure of the paper's evaluation.

The re-exports below resolve on first access (:mod:`repro._lazy`), so
``import repro`` costs nothing until a name is used.
"""

from ._lazy import lazy_exports

__version__ = "1.2.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    ".core": ("Atomic", "DeviceContext", "DeviceGraph", "Dim3", "DType",
              "Event", "Kernel", "KernelModel", "LaunchConfig", "Layout",
              "LayoutTensor", "Stream", "barrier", "block_dim", "block_idx",
              "ceildiv", "grid_dim", "kernel", "thread_idx"),
    ".backends": ("get_backend", "list_backends", "vendor_baseline_for"),
    ".gpu": ("GPUSpec", "Roofline", "get_gpu", "list_gpus"),
    ".workloads": ("RunRequest", "Workload", "WorkloadResult",
                   "get_workload", "list_workloads", "register_workload",
                   "run_workload"),
}, submodules=("backends", "core", "gpu", "workloads"))

__all__ = [
    "backends", "core", "gpu", "workloads",
    "Atomic", "DeviceContext", "DeviceGraph", "Dim3", "DType", "Event",
    "Kernel", "KernelModel",
    "LaunchConfig", "Layout", "LayoutTensor", "Stream", "barrier", "block_dim",
    "block_idx", "ceildiv", "grid_dim", "kernel", "thread_idx",
    "get_backend", "list_backends", "vendor_baseline_for",
    "GPUSpec", "Roofline", "get_gpu", "list_gpus",
    "RunRequest", "Workload", "WorkloadResult", "get_workload",
    "list_workloads", "register_workload", "run_workload",
    "__version__",
]
