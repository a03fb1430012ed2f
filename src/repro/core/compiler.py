"""A small multi-level compilation pipeline for kernel models.

Mojo lowers kernels through MLIR to vendor ISA; CUDA/HIP lower through their
own compilers.  The observable consequences in the paper are instruction-mix
differences (Figure 5), register-allocation differences (Tables 2-3), the
availability of ``fast-math`` (Figures 6-7), and the lowering chosen for
atomic operations (Table 4).  This module reproduces those consequences with
an explicit, inspectable pipeline:

``KernelModel``  →  ``build_ir``  →  [passes]  →  :class:`CompiledKernel`

The per-backend differences are expressed by a :class:`CompilerProfile`
(constructed by each backend), so the *mechanism* that produces a difference
(e.g. constant-memory promotion producing fewer ``LDC`` instructions for Mojo)
lives here and can be ablated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from .dtypes import DType
from .errors import CompilationError
from .kernel import KernelModel, LaunchConfig, MemoryPattern
from .memo import Memo

__all__ = [
    "Opcode",
    "IROp",
    "KernelIR",
    "CompilerProfile",
    "CompiledKernel",
    "CompilerPass",
    "ConstantPromotionPass",
    "FastMathPass",
    "RegisterAllocationPass",
    "AtomicLoweringPass",
    "SpillAnalysisPass",
    "build_ir",
    "compile_kernel",
    "compile_cache_info",
    "COMPILE_MEMO",
    "default_pass_pipeline",
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


@dataclass
class IROp:
    """One instruction class with an average per-thread execution count."""

    opcode: str
    count: float
    dtype: Optional[DType] = None
    note: str = ""

    def scaled(self, factor: float) -> "IROp":
        return IROp(self.opcode, self.count * factor, self.dtype, self.note)


@dataclass
class KernelIR:
    """Lowered kernel: instruction classes plus structural metadata."""

    name: str
    ops: List[IROp] = field(default_factory=list)
    model: Optional[KernelModel] = None
    fast_math: bool = False
    uses_constant_memory: bool = False
    notes: List[str] = field(default_factory=list)

    def count(self, opcode: str) -> float:
        return sum(op.count for op in self.ops if op.opcode == opcode)

    def total_instructions(self) -> float:
        return sum(op.count for op in self.ops)

    def mix(self) -> Dict[str, float]:
        """Aggregate per-opcode counts."""
        out: Dict[str, float] = {}
        for op in self.ops:
            out[op.opcode] = out.get(op.opcode, 0.0) + op.count
        return out

    def replace_ops(self, ops: List[IROp]) -> "KernelIR":
        clone = KernelIR(self.name, list(ops), self.model, self.fast_math,
                         self.uses_constant_memory, list(self.notes))
        return clone


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
    ir: KernelIR
    registers_per_thread: int
    instruction_mix: Mapping[str, float]
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

    @property
    def uses_constant_memory(self) -> bool:
        return self.ir.uses_constant_memory

    def sass_listing(self) -> List[str]:
        """A human-readable pseudo-assembly listing (Figure 5 style)."""
        lines = [f"// {self.backend_name} lowering of {self.kernel_name}"
                 f" (registers={self.registers_per_thread}"
                 f"{', fast-math' if self.fast_math else ''})"]
        for op in sorted(self.ir.ops, key=lambda o: -o.count):
            if op.count <= 0:
                continue
            note = f"  // {op.note}" if op.note else ""
            lines.append(f"  {op.opcode:<9} x{op.count:>8.1f}{note}")
        return lines


# ---------------------------------------------------------------------------
# IR construction
# ---------------------------------------------------------------------------

def build_ir(model: KernelModel) -> KernelIR:
    """Lower a :class:`KernelModel` into the initial (backend-neutral) IR."""
    ops: List[IROp] = []
    dt = model.dtype

    ops.append(IROp(Opcode.LDG, model.loads_global, dt, "global loads"))
    ops.append(IROp(Opcode.STG, model.stores_global, dt, "global stores"))
    if model.shared_loads:
        ops.append(IROp(Opcode.LDS, model.shared_loads, dt, "shared loads"))
    if model.shared_stores:
        ops.append(IROp(Opcode.STS, model.shared_stores, dt, "shared stores"))
    if model.barriers:
        ops.append(IROp(Opcode.BAR, model.barriers, None, "block barriers"))

    # Floating point: split plain flops into FMA + ADD/MUL in a generic ratio.
    fma = model.flops * 0.45
    fadd = model.flops * 0.35
    fmul = model.flops * 0.20
    ops.append(IROp(Opcode.FFMA, fma, dt, "fused multiply-adds"))
    ops.append(IROp(Opcode.FADD, fadd, dt, "adds/subs"))
    ops.append(IROp(Opcode.FMUL, fmul, dt, "multiplies"))
    if model.divides:
        ops.append(IROp(Opcode.FDIV, model.divides, dt, "divide/sqrt"))
    if model.transcendentals:
        ops.append(IROp(Opcode.MUFU, model.transcendentals, dt,
                        "special functions (sin/cos/exp/pow)"))

    # Integer / control instructions
    ops.append(IROp(Opcode.IADD3, model.int_ops * 0.5, None, "index adds"))
    ops.append(IROp(Opcode.IMAD, model.int_ops * 0.3, None, "index multiply-adds"))
    ops.append(IROp(Opcode.ISETP, max(1.0, model.int_ops * 0.1), None, "predicates"))
    ops.append(IROp(Opcode.BRA, max(1.0, model.int_ops * 0.1), None, "branches"))
    ops.append(IROp(Opcode.MOV, 4.0 + model.scalar_args, None, "parameter staging"))

    # Scalar arguments start as generic constant loads; the constant promotion
    # pass rewrites them per backend.
    if model.scalar_args:
        ops.append(IROp(Opcode.LDC, 0.0, None, "constant loads (pre-promotion)"))

    if model.atomics:
        ops.append(IROp(Opcode.ATOM, model.atomics, dt, "atomic RMW"))

    return KernelIR(name=model.name, ops=ops, model=model)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

class CompilerPass:
    """Base class: a pass transforms a KernelIR given a profile."""

    name = "pass"

    def run(self, ir: KernelIR, profile: CompilerProfile,
            fast_math: bool) -> KernelIR:  # pragma: no cover - interface
        raise NotImplementedError


class ConstantPromotionPass(CompilerPass):
    """Decide how scalar kernel arguments are materialised.

    Mojo promotes compile-time scalars into constant memory / immediates,
    producing fewer ``LDC`` operations than CUDA for the Triad kernel
    (Figure 5, observation i).
    """

    name = "constant-promotion"

    def run(self, ir: KernelIR, profile: CompilerProfile, fast_math: bool) -> KernelIR:
        model = ir.model
        if model is None or model.scalar_args == 0:
            return ir
        per_scalar = (profile.promoted_loads_per_scalar if profile.constant_promotion
                      else profile.constant_loads_per_scalar)
        new_ops = []
        for op in ir.ops:
            if op.opcode == Opcode.LDC:
                op = IROp(Opcode.LDC, per_scalar * model.scalar_args, None,
                          "constant loads" + (" (promoted)" if profile.constant_promotion else ""))
            new_ops.append(op)
        out = ir.replace_ops(new_ops)
        out.uses_constant_memory = profile.constant_promotion
        if profile.constant_promotion:
            out.notes.append("scalars promoted to constant memory")
        return out


class FastMathPass(CompilerPass):
    """Legalise special functions depending on fast-math availability."""

    name = "fast-math"

    def run(self, ir: KernelIR, profile: CompilerProfile, fast_math: bool) -> KernelIR:
        enabled = bool(fast_math and profile.fast_math_available)
        out = ir.replace_ops(list(ir.ops))
        out.fast_math = enabled
        if enabled:
            out.notes.append("fast-math: special functions lowered to HW approximations")
        elif fast_math and not profile.fast_math_available:
            out.notes.append("fast-math requested but unavailable in this toolchain")
        return out


class RegisterAllocationPass(CompilerPass):
    """Estimate registers/thread and integer-op inflation for the backend."""

    name = "register-allocation"

    def run(self, ir: KernelIR, profile: CompilerProfile, fast_math: bool) -> KernelIR:
        model = ir.model
        if model is None:
            return ir
        new_ops = []
        for op in ir.ops:
            if op.opcode in (Opcode.IADD3, Opcode.IMAD):
                op = op.scaled(profile.int_op_scale)
            new_ops.append(op)
        out = ir.replace_ops(new_ops)
        return out

    @staticmethod
    def estimate_registers(model: KernelModel, profile: CompilerProfile) -> int:
        base = model.working_values
        est = int(round(base * profile.register_scale)) + profile.register_bias
        return max(8, est)


class AtomicLoweringPass(CompilerPass):
    """Lower atomics to native RMW or to a CAS retry loop."""

    name = "atomic-lowering"

    def run(self, ir: KernelIR, profile: CompilerProfile, fast_math: bool) -> KernelIR:
        model = ir.model
        if model is None or model.atomics == 0:
            return ir
        new_ops = []
        for op in ir.ops:
            if op.opcode == Opcode.ATOM and profile.atomic_mode == "cas":
                expanded = model.atomics * (1.0 + profile.cas_expected_retries)
                new_ops.append(IROp(Opcode.ATOM_CAS, expanded, op.dtype,
                                    "software CAS loop (no native FP64 atomic path)"))
                # each retry re-loads the destination
                new_ops.append(IROp(Opcode.LDG, expanded, op.dtype,
                                    "CAS destination reloads"))
                continue
            new_ops.append(op)
        out = ir.replace_ops(new_ops)
        if profile.atomic_mode == "cas":
            out.notes.append("atomics lowered to compare-and-swap loops")
        return out


class SpillAnalysisPass(CompilerPass):
    """Detect register spilling / codegen pathologies for large kernels."""

    name = "spill-analysis"

    def run(self, ir: KernelIR, profile: CompilerProfile, fast_math: bool) -> KernelIR:
        model = ir.model
        if model is None:
            return ir
        out = ir.replace_ops(list(ir.ops))
        if model.working_values > profile.spill_threshold_values:
            spilled_values = model.working_values - profile.spill_threshold_values
            out.ops.append(IROp(Opcode.STL, spilled_values * 2.0, model.dtype,
                                "register spill stores"))
            out.ops.append(IROp(Opcode.LDL, spilled_values * 2.0, model.dtype,
                                "register spill loads"))
            out.notes.append(f"spilled {spilled_values} live values to local memory")
        return out


def default_pass_pipeline() -> List[CompilerPass]:
    """The standard pass order used by every backend."""
    return [
        ConstantPromotionPass(),
        FastMathPass(),
        RegisterAllocationPass(),
        AtomicLoweringPass(),
        SpillAnalysisPass(),
    ]


# ---------------------------------------------------------------------------
# Top-level compile
# ---------------------------------------------------------------------------

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
# the full compile input is hashable by value; custom pass pipelines are keyed
# by the identity of the pass instances (the tuple in the key keeps them
# alive, so ids cannot be recycled).  Entries are shared: the cached
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
    passes: Optional[List[CompilerPass]] = None,
) -> CompiledKernel:
    """Run the pass pipeline over *model* and assemble a :class:`CompiledKernel`.

    Results are memoised on ``(model, profile, fast_math, backend_name,
    passes-identity)`` in :data:`COMPILE_MEMO`; *launch* only annotates the
    returned object and is applied per call; without it the memo's own entry
    is returned, one instance per input.  Because :class:`KernelModel` is
    frozen, a "mutated" model (via :meth:`KernelModel.scaled`) is a different
    value and therefore a different cache key — stale results cannot be
    served.
    """
    def compile_once():
        return _compile_uncached(model, profile, fast_math=fast_math,
                                 launch=None, backend_name=backend_name,
                                 passes=passes)

    key = (model, profile, bool(fast_math), backend_name,
           None if passes is None else tuple(passes))
    try:
        hash(key)
    except TypeError:
        # Unhashable ingredient (e.g. an exotic pass pipeline): compile
        # straight through without memoisation.
        return replace(compile_once(), launch=launch)
    compiled = COMPILE_MEMO.get_or_compute(key, compile_once)
    return compiled if launch is None else replace(compiled, launch=launch)


def _compile_uncached(
    model: KernelModel,
    profile: CompilerProfile,
    *,
    fast_math: bool = False,
    launch: Optional[LaunchConfig] = None,
    backend_name: Optional[str] = None,
    passes: Optional[List[CompilerPass]] = None,
) -> CompiledKernel:
    """The actual pass pipeline; see :func:`compile_kernel`."""
    profile = profile.validated()
    ir = build_ir(model)
    for p in (passes if passes is not None else default_pass_pipeline()):
        ir = p.run(ir, profile, fast_math)

    fast = ir.fast_math
    registers = RegisterAllocationPass.estimate_registers(model, profile)
    spilled = model.working_values > profile.spill_threshold_values
    local_bytes = 0
    if spilled:
        local_bytes = (model.working_values - profile.spill_threshold_values) \
            * model.dtype.sizeof

    # DRAM traffic per active thread, including CAS reload traffic.
    loads = ir.count(Opcode.LDG)
    stores = ir.count(Opcode.STG)
    dram_bytes = (loads + stores) * model.dtype.sizeof
    if spilled:
        spill_traffic = (ir.count(Opcode.LDL) + ir.count(Opcode.STL)) * model.dtype.sizeof
        dram_bytes += spill_traffic * 0.5   # spills partially hit in L2

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
    pathology = (model.atomics > 0
                 and model.working_values > profile.pathology_threshold_values)
    if pathology:
        effective_flops *= profile.pathology_penalty
        ir.notes.append("codegen pathology: working set exceeds backend threshold")

    atomic_per_thread = model.atomics
    atomic_scale = profile.atomic_throughput_scale
    if profile.atomic_mode == "cas":
        atomic_scale = atomic_scale / (1.0 + profile.cas_expected_retries)

    return CompiledKernel(
        kernel_name=model.name,
        backend_name=backend_name or profile.name,
        fast_math=fast,
        ir=ir,
        registers_per_thread=registers,
        instruction_mix=MappingProxyType(ir.mix()),
        dram_bytes_per_thread=dram_bytes,
        effective_flops_per_thread=effective_flops,
        raw_flops_per_thread=raw_flops,
        shared_bytes_per_block=model.shared_bytes_per_block,
        atomic_ops_per_thread=atomic_per_thread,
        atomic_mode=profile.atomic_mode,
        atomic_throughput_scale=atomic_scale,
        spilled=spilled,
        local_memory_bytes_per_thread=local_bytes,
        model=model,
        profile=profile,
        launch=launch,
        notes=tuple(ir.notes),
    )
