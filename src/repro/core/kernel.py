"""Kernel objects, launch configurations and analytic kernel models.

A *kernel* in this framework is an ordinary Python function written in the
per-thread style of the paper's Mojo listings.  Wrapping it in
:class:`Kernel` (usually via the :func:`kernel` decorator) attaches metadata
used by the backends:

* a human-readable name,
* an optional :class:`KernelModel` builder describing the kernel's per-thread
  resource usage (global loads/stores, FLOPs, atomics, shared-memory traffic,
  transcendental operations ...).  The compiler pipeline lowers this model to
  an instruction mix and the timing model turns it into a predicted kernel
  duration on a given GPU.

The :class:`LaunchConfig` mirrors the ``grid_dim`` / ``block_dim`` pair passed
to ``ctx.enqueue_function`` in Mojo / ``<<<grid, block>>>`` in CUDA.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .dtypes import DType, dtype_from_any
from .errors import AnalysisError, LaunchError
from .intrinsics import Dim3, ceildiv

__all__ = [
    "Kernel",
    "KernelVerdict",
    "as_kernel",
    "kernel",
    "registered_kernels",
    "LaunchConfig",
    "KernelModel",
    "MemoryPattern",
]

#: kernels created through the :func:`kernel` decorator, by name — the
#: population ``repro lint`` verifies.  Weak values: a kernel dropped by its
#: module should not be kept alive (and re-verified) by the registry.
#: Transient ``Kernel(fn)`` wraps (e.g. ``enqueue_function`` normalising a
#: bare callable) deliberately do not register.
_REGISTRY: "weakref.WeakValueDictionary[str, Kernel]" = \
    weakref.WeakValueDictionary()


def registered_kernels() -> Dict[str, "Kernel"]:
    """Snapshot of all decorator-registered kernels, keyed by name."""
    return dict(sorted(_REGISTRY.items()))


class MemoryPattern:
    """Global-memory access pattern classes used by the timing model."""

    STRIDE1 = "stride1"        # perfectly coalesced 1-D streaming (BabelStream)
    STENCIL3D = "stencil3d"    # 3-D neighbourhood, reuse through caches
    STRIDED = "strided"        # regular but non-unit stride
    GATHER = "gather"          # data-dependent/random access
    ALL = (STRIDE1, STENCIL3D, STRIDED, GATHER)


@dataclass(frozen=True)
class KernelModel:
    """Per-thread resource model of a kernel for one specific problem setup.

    All quantities are *per thread* unless stated otherwise.  Element-sized
    loads/stores are expressed in elements of :attr:`dtype`.
    """

    name: str
    dtype: DType
    #: global memory loads per thread (elements of ``dtype``)
    loads_global: float
    #: global memory stores per thread (elements of ``dtype``)
    stores_global: float
    #: floating-point operations per thread (adds/mults/FMAs counted as 1 each)
    flops: float
    #: integer ALU operations per thread (index arithmetic)
    int_ops: float = 8.0
    #: transcendental / special-function ops per thread (sin, cos, exp, pow)
    transcendentals: float = 0.0
    #: floating point divisions / square roots per thread
    divides: float = 0.0
    #: atomic read-modify-write operations per thread
    atomics: float = 0.0
    #: shared-memory loads / stores per thread (elements)
    shared_loads: float = 0.0
    shared_stores: float = 0.0
    #: block-level barriers executed per thread
    barriers: float = 0.0
    #: scalar kernel arguments (candidates for constant-memory promotion)
    scalar_args: int = 0
    #: estimate of simultaneously-live values (drives register allocation)
    working_values: int = 8
    #: True when the kernel allocates block shared memory
    uses_shared: bool = False
    #: bytes of shared memory per block
    shared_bytes_per_block: int = 0
    #: global memory access pattern (see :class:`MemoryPattern`)
    memory_pattern: str = MemoryPattern.STRIDE1
    #: fraction of threads that do useful work (guards like ``if i < n``)
    active_fraction: float = 1.0
    #: independent work items per thread (instruction-level parallelism);
    #: e.g. miniBUDE's poses-per-work-item, which lets the scheduler hide
    #: instruction latency and raises achievable compute throughput
    ilp: float = 1.0
    #: free-form notes carried into reports
    notes: str = ""

    def __post_init__(self):
        if self.memory_pattern not in MemoryPattern.ALL:
            raise LaunchError(
                f"unknown memory pattern {self.memory_pattern!r}; "
                f"expected one of {MemoryPattern.ALL}"
            )
        if not 0.0 < self.active_fraction <= 1.0:
            raise LaunchError(
                f"active_fraction must be in (0, 1], got {self.active_fraction}"
            )

    # ------------------------------------------------------------ aggregates
    @property
    def element_bytes(self) -> int:
        return self.dtype.sizeof

    def bytes_per_thread(self) -> float:
        """Global-memory bytes touched by one (active) thread."""
        return (self.loads_global + self.stores_global) * self.element_bytes

    def total_bytes(self, active_threads: int) -> float:
        """Total global-memory traffic for *active_threads* threads."""
        return self.bytes_per_thread() * active_threads

    def total_flops(self, active_threads: int) -> float:
        """Total floating point work, counting special functions as multi-op."""
        per_thread = (
            self.flops
            + self.divides * _DIVIDE_FLOP_WEIGHT
            + self.transcendentals * _TRANSCENDENTAL_FLOP_WEIGHT
        )
        return per_thread * active_threads

    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of global traffic (per thread, DRAM level)."""
        b = self.bytes_per_thread()
        if b == 0:
            return float("inf")
        return (self.flops + self.divides + self.transcendentals) / b

    def scaled(self, **changes) -> "KernelModel":
        """Return a copy with selected fields replaced."""
        return replace(self, **changes)


#: FLOP-equivalents charged for a division / special function when fast-math
#: is unavailable.  These weights reflect the multi-instruction expansions the
#: paper attributes to the missing ``fast-math`` option in Mojo.
_DIVIDE_FLOP_WEIGHT = 8.0
_TRANSCENDENTAL_FLOP_WEIGHT = 20.0


@dataclass(frozen=True)
class LaunchConfig:
    """Grid and block extents for one kernel launch."""

    grid_dim: Dim3
    block_dim: Dim3

    @classmethod
    def make(cls, grid_dim, block_dim) -> "LaunchConfig":
        cfg = cls(Dim3.make(grid_dim), Dim3.make(block_dim))
        cfg.validate()
        return cfg

    @classmethod
    def for_elements(cls, n: int, block_size: int = 256) -> "LaunchConfig":
        """1-D launch covering *n* elements with *block_size* threads/block."""
        if n <= 0:
            raise LaunchError(f"element count must be positive, got {n}")
        return cls.make(ceildiv(n, block_size), block_size)

    def validate(self) -> None:
        if self.block_dim.total <= 0 or self.grid_dim.total <= 0:
            raise LaunchError(
                f"launch extents must be positive: grid={self.grid_dim} "
                f"block={self.block_dim}"
            )
        if self.block_dim.total > 1024:
            raise LaunchError(
                f"block has {self.block_dim.total} threads; the simulated "
                "device (like CUDA/HIP/Mojo) caps blocks at 1024 threads"
            )

    @property
    def threads_per_block(self) -> int:
        return self.block_dim.total

    @property
    def num_blocks(self) -> int:
        return self.grid_dim.total

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.num_blocks

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"grid={self.grid_dim} block={self.block_dim}"


class KernelVerdict(NamedTuple):
    """The static verifier's verdict on one kernel, as the launch path reads
    it (:attr:`Kernel.verdict`)."""

    #: may the lockstep executors (``vectorized`` / ``lowered``) run it?
    vector_safe: bool
    #: the error diagnostics that stop a ``strict=True`` kernel from running
    #: (always empty for a kernel that is not strict)
    strict_errors: Tuple[object, ...]


class Kernel:
    """A device kernel: per-thread function plus metadata.

    Parameters
    ----------
    fn:
        The per-thread Python function.  It receives the launch arguments and
        reads its indices from the module-level intrinsics.
    name:
        Kernel name (defaults to the function name).
    model_builder:
        Optional callable ``(**problem_params) -> KernelModel`` describing the
        kernel's resource usage for a given problem configuration.
    strict:
        When True the kernel never runs unless the static kernel verifier
        (:mod:`repro.analysis`) finds no error-severity diagnostic: its
        first launch resolution (eager launch, ``instantiate`` or a graph
        capture) raises :class:`~repro.core.errors.AnalysisError` instead,
        before any lane runs.  Decoration itself verifies nothing, so
        importing a kernel module costs no analysis; ``repro lint`` reports
        the same findings.
    """

    def __init__(self, fn: Callable, name: Optional[str] = None,
                 model_builder: Optional[Callable[..., KernelModel]] = None,
                 strict: bool = False):
        if not callable(fn):
            raise LaunchError("Kernel requires a callable kernel body")
        self.fn = fn
        self.name = name or fn.__name__
        self.model_builder = model_builder
        self.strict = bool(strict)
        functools.update_wrapper(self, fn)

    @functools.cached_property
    def verdict(self) -> KernelVerdict:
        """The verifier's verdict, read by every launch resolution.

        ``vector_safe`` is True exactly when the static verifier proves the
        body lockstep-safe (:func:`repro.analysis.verifier.verify_kernel`
        ``.inferred is True``): SIMT-generic code written with the lane
        helpers of :mod:`repro.core.intrinsics`.  ``strict_errors`` holds a
        strict kernel's error diagnostics.  Both come from one memoised
        verification, and the kernel keeps the verdict after the first
        read, so every later resolution is one attribute read.
        """
        # Local import: the analysis package is a consumer of this module.
        from ..analysis.verifier import verify_kernel

        result = verify_kernel(self)
        errors = tuple(d for d in result.diagnostics
                       if d.severity == "error") if self.strict else ()
        return KernelVerdict(result.inferred is True, errors)

    @property
    def vector_safe(self) -> bool:
        """May the lockstep executors run it? (:attr:`verdict`)"""
        return self.verdict.vector_safe

    def strict_error(self) -> AnalysisError:
        """The error a launch of this unsound strict kernel raises."""
        findings = "\n".join(f"  {d}" for d in self.verdict.strict_errors)
        return AnalysisError(
            f"kernel {self.name!r} failed strict verification:\n{findings}")

    def __call__(self, *args, **kwargs):
        """Invoke the per-thread body directly (used by the executor)."""
        return self.fn(*args, **kwargs)

    def model(self, **problem_params) -> KernelModel:
        """Build the kernel's :class:`KernelModel` for a problem configuration."""
        if self.model_builder is None:
            raise LaunchError(
                f"kernel {self.name!r} does not define a model builder"
            )
        return self.model_builder(**problem_params)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Kernel({self.name})"


def as_kernel(fn: Callable) -> Kernel:
    """*fn* itself when it is a :class:`Kernel`, else the one kernel every
    launch of the plain callable *fn* runs as.

    The kernel is kept on the function, so its :attr:`~Kernel.verdict` is
    computed once however often the callable is launched, and it lives as
    long as the function does (a module-level map would keep every
    function alive through its kernel).  A callable that takes no
    attributes is wrapped afresh on each call.
    """
    if isinstance(fn, Kernel):
        return fn
    kern = getattr(fn, "_repro_kernel", None)
    if kern is None or kern.fn is not fn:
        kern = Kernel(fn)
        try:
            fn._repro_kernel = kern
        except (AttributeError, TypeError):
            pass
    return kern


def kernel(fn: Optional[Callable] = None, *, name: Optional[str] = None,
           model: Optional[Callable[..., KernelModel]] = None,
           strict: bool = False):
    """Decorator turning a per-thread function into a :class:`Kernel`.

    Usable bare (``@kernel``) or with options (``@kernel(model=...)``).
    Whether the lockstep executors may run the body is the static
    verifier's verdict (:attr:`Kernel.vector_safe`), not an option.
    With ``strict=True`` a body with any error diagnostic never runs: its
    first launch resolution raises :class:`~repro.core.errors.AnalysisError`
    (decoration verifies nothing).

    Decorated kernels join the registry behind
    :func:`registered_kernels`, which is the population ``repro lint``
    verifies.
    """

    def wrap(f: Callable) -> Kernel:
        k = Kernel(f, name=name, model_builder=model, strict=strict)
        _REGISTRY[k.name] = k
        return k

    if fn is not None:
        return wrap(fn)
    return wrap
