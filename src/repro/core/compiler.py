"""Backend lowering of kernel models.

Mojo lowers kernels through MLIR to vendor ISA; CUDA/HIP lower through their
own compilers.  The observable consequences in the paper are instruction-mix
differences (Figure 5), register-allocation differences (Tables 2-3), the
availability of ``fast-math`` (Figures 6-7), and the lowering chosen for
atomic operations (Table 4).  This module reproduces those consequences with
one lowering function:

``KernelModel`` + :class:`CompilerProfile`  →  :func:`compile_kernel`  →
:class:`CompiledKernel`

It lowers in a fixed order: the backend-neutral instruction mix with
constant promotion, fast-math legalisation, integer-op inflation, atomic
lowering, then spill and pathology analysis.  The per-backend differences
are expressed by a :class:`CompilerProfile` (constructed by each backend), so
the *mechanism* that produces a difference (e.g. constant-memory promotion
producing fewer ``LDC`` instructions for Mojo) lives here and can be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import CompilationError
from .kernel import KernelModel, LaunchConfig
from .memo import Memo

__all__ = [
    "Opcode",
    "CompilerProfile",
    "CompiledKernel",
    "compile_kernel",
    "compile_cache_info",
    "COMPILE_MEMO",
]


class Opcode:
    """Instruction classes in the lowered kernel (SASS-like mnemonics)."""

    LDG = "LDG"       # global load
    STG = "STG"       # global store
    LDS = "LDS"       # shared load
    STS = "STS"       # shared store
    LDC = "LDC"       # constant-memory load
    MOV = "MOV"       # register moves / parameter staging
    FADD = "FADD"     # fp add/sub
    FMUL = "FMUL"     # fp mul
    FFMA = "FFMA"     # fused multiply-add
    FDIV = "FDIV"     # fp divide / sqrt (slow path)
    MUFU = "MUFU"     # special-function unit op (sin, cos, exp, rsqrt ...)
    IADD3 = "IADD3"   # integer add (index arithmetic)
    IMAD = "IMAD"     # integer multiply-add
    ISETP = "ISETP"   # predicates / comparisons
    BRA = "BRA"       # branches
    BAR = "BAR"       # barrier
    ATOM = "ATOM"     # hardware atomic RMW
    ATOM_CAS = "ATOM_CAS"  # compare-and-swap loop iteration (software atomic)
    LDL = "LDL"       # local (spill) load
    STL = "STL"       # local (spill) store


@dataclass(frozen=True)
class CompilerProfile:
    """Backend-specific lowering characteristics.

    The default values correspond to a generic vendor compiler; each backend
    overrides the fields where the paper's profiling data shows a difference.
    The provenance of non-default values is documented in the backend modules.
    """

    name: str = "generic"
    #: does the toolchain offer a fast-math mode at all
    fast_math_available: bool = True
    #: scalar kernel arguments promoted to constant memory automatically
    constant_promotion: bool = False
    #: constant loads emitted per scalar argument when *not* promoted
    constant_loads_per_scalar: float = 2.0
    #: constant loads emitted per scalar argument when promoted
    promoted_loads_per_scalar: float = 1.0
    #: multiplier on the baseline register estimate (register allocator quality)
    register_scale: float = 1.0
    #: additive register overhead (ABI/launch bookkeeping)
    register_bias: int = 3
    #: integer-op inflation factor (address re-computation, Fig. 5's extra IADD3)
    int_op_scale: float = 1.0
    #: efficiency of cache/register reuse for stencil-like access patterns
    l1_reuse_efficiency: float = 1.0
    #: efficiency multiplier for unit-stride streaming kernels
    stride1_efficiency: float = 1.0
    #: efficiency of the block-level shared-memory reduction (Dot kernel)
    shared_reduction_efficiency: float = 1.0
    #: throughput scale of divides/special functions without fast-math
    special_function_efficiency: float = 1.0
    #: throughput scale of divides/special functions with fast-math enabled
    fast_math_special_efficiency: float = 5.0
    #: how atomics are lowered: "native" hardware RMW or "cas" software loop
    atomic_mode: str = "native"
    #: relative throughput of the backend's atomic path (1.0 = spec.atomic_gups)
    atomic_throughput_scale: float = 1.0
    #: expected CAS retries per atomic when ``atomic_mode == "cas"``
    cas_expected_retries: float = 4.0
    #: live-value budget beyond which the backend spills to local memory
    spill_threshold_values: int = 64
    #: timing penalty multiplier applied to memory traffic when spilled
    spill_penalty: float = 4.0
    #: working-value threshold above which this backend's codegen degrades
    #: (models the Mojo a=1024/ngauss=6 pathology reported in Table 4)
    pathology_threshold_values: int = 10 ** 9
    pathology_penalty: float = 1.0

    def validated(self) -> "CompilerProfile":
        if self.atomic_mode not in ("native", "cas"):
            raise CompilationError(
                f"atomic_mode must be 'native' or 'cas', got {self.atomic_mode!r}"
            )
        return self


@dataclass(frozen=True, eq=False)
class CompiledKernel:
    """Result of compiling a kernel model for a backend / GPU / launch.

    Frozen, with a read-only ``instruction_mix`` and a tuple of ``notes``:
    the compile and price memos hand one instance to every caller.  It
    compares and hashes by identity: the compile memo returns one instance
    per compile input, and the price memo keys on that instance.
    """

    kernel_name: str
    backend_name: str
    fast_math: bool
    registers_per_thread: int
    #: per-opcode counts per thread, in the order each opcode is first emitted
    instruction_mix: Mapping[str, float]
    #: scalar arguments live in constant memory (promoted by the backend)
    uses_constant_memory: bool
    #: global DRAM traffic per active thread, bytes
    dram_bytes_per_thread: float
    #: cost-weighted FLOP-equivalents per active thread (drives compute time)
    effective_flops_per_thread: float
    #: true floating-point operations per active thread (drives FLOP/s metrics)
    raw_flops_per_thread: float
    shared_bytes_per_block: int
    atomic_ops_per_thread: float
    atomic_mode: str
    atomic_throughput_scale: float
    spilled: bool
    local_memory_bytes_per_thread: int
    model: KernelModel
    profile: CompilerProfile
    launch: Optional[LaunchConfig] = None
    notes: Tuple[str, ...] = ()


_FAST_SPECIAL_WEIGHT = 4.0     # flop-equivalents of a fast-math special op
_SLOW_SPECIAL_WEIGHT = 20.0    # flop-equivalents without fast-math
_FAST_DIV_WEIGHT = 2.0
_SLOW_DIV_WEIGHT = 12.0


# ---------------------------------------------------------------------------
# Compile memoisation
#
# The figure/table sweeps recompile the *same* (model, profile, fast_math)
# combination hundreds of times per experiment (every repeat, every GPU row).
# KernelModel, CompilerProfile and LaunchConfig are all frozen dataclasses, so
# the full compile input is hashable by value.  Entries are shared: the cached
# CompiledKernel is frozen, with a read-only instruction mix and a tuple of
# notes.  A call without a launch returns the entry itself; a launch is
# applied to a copy per call.
# ---------------------------------------------------------------------------

COMPILE_MEMO = Memo("compile")


def compile_cache_info() -> Dict[str, int]:
    """Hit/miss/size statistics of the :func:`compile_kernel` memo."""
    return COMPILE_MEMO.cache_info()._asdict()


def compile_kernel(
    model: KernelModel,
    profile: CompilerProfile,
    *,
    fast_math: bool = False,
    launch: Optional[LaunchConfig] = None,
    backend_name: Optional[str] = None,
) -> CompiledKernel:
    """Lower *model* for *profile* into a :class:`CompiledKernel`.

    Results are memoised on ``(model, profile, fast_math, backend_name)`` in
    :data:`COMPILE_MEMO`; *launch* only annotates the returned object and is
    applied per call; without it the memo's own entry is returned, one
    instance per input.  Because :class:`KernelModel` is frozen, a "mutated"
    model (via :meth:`KernelModel.scaled`) is a different value and therefore
    a different cache key — stale results cannot be served.
    """
    compiled = COMPILE_MEMO.get_or_compute(
        (model, profile, bool(fast_math), backend_name),
        lambda: _lower(model, profile, fast_math, backend_name))
    return compiled if launch is None else replace(compiled, launch=launch)


def _lower(model: KernelModel, profile: CompilerProfile, fast_math: bool,
           backend_name: Optional[str]) -> CompiledKernel:
    """The lowering behind a :func:`compile_kernel` miss."""
    profile = profile.validated()
    mix: Dict[str, float] = {}
    notes: List[str] = []

    def emit(opcode: str, count: float) -> None:
        # float counts; a CAS loop's destination reloads add to LDG
        mix[opcode] = mix.get(opcode, 0.0) + count

    emit(Opcode.LDG, model.loads_global)
    emit(Opcode.STG, model.stores_global)
    if model.shared_loads:
        emit(Opcode.LDS, model.shared_loads)
    if model.shared_stores:
        emit(Opcode.STS, model.shared_stores)
    if model.barriers:
        emit(Opcode.BAR, model.barriers)

    # Floating point: split plain flops into FMA + ADD/MUL in a generic ratio.
    emit(Opcode.FFMA, model.flops * 0.45)
    emit(Opcode.FADD, model.flops * 0.35)
    emit(Opcode.FMUL, model.flops * 0.20)
    if model.divides:
        emit(Opcode.FDIV, model.divides)
    if model.transcendentals:
        emit(Opcode.MUFU, model.transcendentals)

    # Index arithmetic, inflated by the backend's address re-computation
    # (Figure 5's extra IADD3s).
    emit(Opcode.IADD3, model.int_ops * 0.5 * profile.int_op_scale)
    emit(Opcode.IMAD, model.int_ops * 0.3 * profile.int_op_scale)
    emit(Opcode.ISETP, max(1.0, model.int_ops * 0.1))
    emit(Opcode.BRA, max(1.0, model.int_ops * 0.1))
    emit(Opcode.MOV, 4.0 + model.scalar_args)

    # Scalar arguments: Mojo promotes compile-time scalars into constant
    # memory, producing fewer LDCs than CUDA for Triad (Figure 5, obs. i).
    if model.scalar_args:
        per_scalar = (profile.promoted_loads_per_scalar
                      if profile.constant_promotion
                      else profile.constant_loads_per_scalar)
        emit(Opcode.LDC, per_scalar * model.scalar_args)
        if profile.constant_promotion:
            notes.append("scalars promoted to constant memory")

    fast = bool(fast_math and profile.fast_math_available)
    if fast:
        notes.append("fast-math: special functions lowered to HW approximations")
    elif fast_math:
        notes.append("fast-math requested but unavailable in this toolchain")

    # Atomics: native RMW, or a CAS retry loop that re-loads the destination
    # on every retry (no native FP64 atomic path).
    loads = model.loads_global
    if model.atomics:
        if profile.atomic_mode == "cas":
            expanded = model.atomics * (1.0 + profile.cas_expected_retries)
            emit(Opcode.ATOM_CAS, expanded)
            emit(Opcode.LDG, expanded)
            loads = loads + expanded
            notes.append("atomics lowered to compare-and-swap loops")
        else:
            emit(Opcode.ATOM, model.atomics)

    # DRAM traffic per active thread, including CAS reload traffic.
    dram_bytes = (loads + model.stores_global) * model.dtype.sizeof
    spilled = model.working_values > profile.spill_threshold_values
    local_bytes = 0
    if spilled:
        spilled_values = model.working_values - profile.spill_threshold_values
        spill_ops = spilled_values * 2.0
        emit(Opcode.STL, spill_ops)
        emit(Opcode.LDL, spill_ops)
        notes.append(f"spilled {spilled_values} live values to local memory")
        local_bytes = spilled_values * model.dtype.sizeof
        # spills partially hit in L2
        dram_bytes += (spill_ops + spill_ops) * model.dtype.sizeof * 0.5

    # FLOP accounting: raw FLOPs for reporting, weighted FLOPs for timing.
    raw_flops = model.flops + model.divides + model.transcendentals
    special_eff = (profile.fast_math_special_efficiency if fast
                   else profile.special_function_efficiency)
    special_eff = max(special_eff, 1e-6)
    div_weight = (_FAST_DIV_WEIGHT if fast else _SLOW_DIV_WEIGHT) / special_eff
    mufu_weight = (_FAST_SPECIAL_WEIGHT if fast else _SLOW_SPECIAL_WEIGHT) / special_eff
    effective_flops = (
        model.flops
        + model.divides * div_weight
        + model.transcendentals * mufu_weight
    )
    # The codegen pathology observed in the paper (Table 4, a=1024/ngauss=6)
    # is specific to the atomic-heavy Hartree-Fock kernel with a very large
    # working set; kernels without atomics are not affected.
    if (model.atomics > 0
            and model.working_values > profile.pathology_threshold_values):
        effective_flops *= profile.pathology_penalty
        notes.append("codegen pathology: working set exceeds backend threshold")

    atomic_scale = profile.atomic_throughput_scale
    if profile.atomic_mode == "cas":
        atomic_scale = atomic_scale / (1.0 + profile.cas_expected_retries)

    registers = int(round(model.working_values * profile.register_scale)) \
        + profile.register_bias
    return CompiledKernel(
        kernel_name=model.name,
        backend_name=backend_name or profile.name,
        fast_math=fast,
        registers_per_thread=max(8, registers),
        instruction_mix=MappingProxyType(mix),
        uses_constant_memory=(bool(model.scalar_args)
                              and profile.constant_promotion),
        dram_bytes_per_thread=dram_bytes,
        effective_flops_per_thread=effective_flops,
        raw_flops_per_thread=raw_flops,
        shared_bytes_per_block=model.shared_bytes_per_block,
        atomic_ops_per_thread=model.atomics,
        atomic_mode=profile.atomic_mode,
        atomic_throughput_scale=atomic_scale,
        spilled=spilled,
        local_memory_bytes_per_thread=local_bytes,
        model=model,
        profile=profile,
        notes=tuple(notes),
    )
