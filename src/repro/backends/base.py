"""Backend abstraction: how a programming model lowers and runs kernels.

A *backend* is the pairing the paper compares: the portable Mojo programming
model versus the vendor-specific CUDA and HIP baselines.  Backends share the
functional executor (the numerics are identical by construction — that is the
point of a port) and differ in how they *lower* kernels: register allocation,
constant-memory promotion, fast-math availability, atomic lowering and
block-size heuristics.  Those differences are expressed as a
:class:`~repro.core.compiler.CompilerProfile` per (backend, GPU vendor) pair
and documented field-by-field in the concrete backend modules.

A price — one backend's compile of a kernel model plus the timing model's
prediction for one launch on one GPU — is a pure function of its inputs, so
:meth:`Backend.time` pays each stage once: the compile memo holds one
compiled kernel per (kernel model, compiler profile, fast-math), and
:data:`PRICE_MEMO` one prediction per (compiled kernel, GPU, launch), for the
workloads and, through :data:`GENERIC`, for the device runtime's modelled
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from ..core.compiler import CompiledKernel, CompilerProfile, compile_kernel
from ..core.errors import UnsupportedBackendError
from ..core.kernel import KernelModel, LaunchConfig
from ..core.memo import Memo
from ..gpu.specs import GPUSpec, get_gpu
from ..gpu.timing import KernelTimingModel, TimingBreakdown

__all__ = ["Backend", "BackendRun", "GENERIC", "PRICE_MEMO", "PROFILE_MEMO"]

#: compiler profile per (backend instance, GPU name)
PROFILE_MEMO = Memo("compiler_profile")
#: priced kernel per (compiled kernel, GPU spec, launch)
PRICE_MEMO = Memo("price")


@dataclass(frozen=True)
class BackendRun:
    """A compiled kernel together with its predicted timing on one GPU.

    Frozen: :data:`PRICE_MEMO` hands one instance to every caller.
    """

    backend_name: str
    gpu: GPUSpec
    compiled: CompiledKernel
    timing: TimingBreakdown
    launch: LaunchConfig
    fast_math: bool = False

    @property
    def kernel_time_ms(self) -> float:
        return self.timing.kernel_time_ms

    @property
    def achieved_bandwidth_gbs(self) -> float:
        return self.timing.achieved_bandwidth_gbs

    @property
    def achieved_gflops(self) -> float:
        return self.timing.achieved_gflops


class Backend:
    """Base class for programming-model backends."""

    #: registry name, e.g. ``"mojo"``
    name: str = "backend"
    #: display name used in reports and figures
    display_name: str = "Backend"
    #: vendors this backend can target: ("nvidia",), ("amd",) or both
    supported_vendors: Tuple[str, ...] = ("nvidia", "amd")
    #: whether the toolchain offers fast-math at all
    fast_math_available: bool = True
    #: True for the portable programming model (same source on all vendors)
    portable: bool = False

    # ------------------------------------------------------------------ API
    def supports(self, gpu) -> bool:
        """True when this backend can target *gpu*."""
        return get_gpu(gpu).vendor in self.supported_vendors

    def require_support(self, gpu) -> GPUSpec:
        spec = get_gpu(gpu)
        if spec.vendor not in self.supported_vendors:
            raise UnsupportedBackendError(
                f"backend {self.name!r} does not support {spec.full_name} "
                f"(vendor {spec.vendor!r}); supported vendors: "
                f"{self.supported_vendors}"
            )
        return spec

    def compiler_profile(self, gpu) -> CompilerProfile:
        """Return the lowering profile for this backend on *gpu*."""
        raise NotImplementedError

    def cached_profile(self, spec: GPUSpec) -> CompilerProfile:
        """Per-GPU memo of :meth:`compiler_profile` (:data:`PROFILE_MEMO`).

        Profiles are frozen value objects, so reusing one instance per GPU is
        safe and keeps the sweep hot path (compile → cache lookup) free of
        repeated profile construction.
        """
        return PROFILE_MEMO.get_or_compute(
            (self, spec.name), lambda: self.compiler_profile(spec))

    def compile(self, model: KernelModel, gpu, *, launch: Optional[LaunchConfig] = None,
                fast_math: bool = False) -> CompiledKernel:
        """Compile a kernel model for *gpu* (memoised via the compile cache)."""
        spec = self.require_support(gpu)
        profile = self.cached_profile(spec)
        return compile_kernel(
            model, profile, fast_math=fast_math, launch=launch,
            backend_name=self.name,
        )

    def time(self, model: KernelModel, gpu, launch: LaunchConfig, *,
             fast_math: bool = False) -> BackendRun:
        """Compile *model* and predict its duration for *launch* on *gpu*.

        The GPU is resolved once; :func:`compile_kernel` returns the compile
        memo's one :class:`CompiledKernel` per (model, this backend's profile
        on the GPU, *fast_math*), and :data:`PRICE_MEMO` keys on that
        instance, the GPU spec by value and *launch*: every caller of a key
        shares one frozen :class:`BackendRun`, and a compile is reused across
        launches.  Patching a compiler or timing-model constant therefore
        takes effect only after ``PRICE_MEMO.clear()`` (and
        ``COMPILE_MEMO.clear()`` for a compiler constant).
        """
        spec = self.require_support(gpu)
        compiled = compile_kernel(model, self.cached_profile(spec),
                                  fast_math=fast_math, backend_name=self.name)

        def price() -> BackendRun:
            annotated = replace(compiled, launch=launch)
            return BackendRun(
                backend_name=compiled.backend_name,
                gpu=spec,
                compiled=annotated,
                timing=KernelTimingModel(spec).predict(annotated, launch),
                launch=launch,
                fast_math=compiled.fast_math,
            )

        return PRICE_MEMO.get_or_compute((compiled, spec, launch), price)

    # ------------------------------------------------------------ heuristics
    def default_block_size(self, gpu, *, kernel_kind: str = "generic") -> int:
        """Threads-per-block heuristic for 1-D kernels."""
        return 1024

    def dot_num_blocks(self, gpu, n: int, block_size: int) -> int:
        """Grid-size heuristic for the BabelStream Dot reduction.

        Vendor baselines size the grid from the multiprocessor count; the
        portable backend uses a fixed element-derived grid.  Overridden by the
        concrete backends.
        """
        spec = get_gpu(gpu)
        return spec.sm_count * 4

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Backend {self.name}>"


class _GenericBackend(Backend):
    """A generic vendor compiler on any GPU: prices the kernels a device
    context is given a :class:`KernelModel` for."""

    name = "generic"
    display_name = "Generic"

    def compiler_profile(self, gpu) -> CompilerProfile:
        return CompilerProfile(name="generic")


#: the backend behind a device context's modelled kernel durations
GENERIC = _GenericBackend()
