"""Analytic kernel timing model for the simulated GPUs.

Every figure in the paper reports a kernel-derived quantity (bandwidth,
GFLOP/s or wall-clock time).  Without silicon those durations are produced by
this model, which combines:

* the kernel's traffic and arithmetic (from the :class:`CompiledKernel`,
  itself derived from the workload's :class:`KernelModel`),
* the GPU's peak bandwidth / FLOP rates (Table 1 of the paper),
* occupancy derived from the compiled register count and shared memory,
* access-pattern efficiency (unit-stride streaming vs 3-D stencil vs gather),
* backend lowering effects already baked into the compiled kernel
  (fast-math, constant promotion, atomic mode, spills).

The model is deliberately simple — ``time = max(memory, compute) + atomics +
launch overhead`` with efficiency derating — because that is exactly the
mental model the paper uses when explaining its results (memory-bound kernels
track bandwidth, compute-bound kernels track fast-math, atomics serialise
Hartree–Fock).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..core.compiler import CompiledKernel, Opcode
from ..core.errors import ConfigurationError
from ..core.kernel import LaunchConfig, MemoryPattern
from .occupancy import OccupancyResult, compute_occupancy
from .specs import GPUSpec

__all__ = ["TimingBreakdown", "KernelTimingModel", "estimate_cache_traffic"]


#: Baseline fraction of peak DRAM bandwidth achievable per access pattern.
_PATTERN_EFFICIENCY = {
    MemoryPattern.STRIDE1: 0.92,
    MemoryPattern.STENCIL3D: 0.80,
    MemoryPattern.STRIDED: 0.55,
    MemoryPattern.GATHER: 0.30,
}

#: Occupancy needed to fully hide memory latency, per access pattern.
_PATTERN_OCC_NEEDED = {
    MemoryPattern.STRIDE1: 0.25,
    MemoryPattern.STENCIL3D: 0.40,
    MemoryPattern.STRIDED: 0.50,
    MemoryPattern.GATHER: 0.60,
}

#: Fraction of peak FLOP/s reachable by well-behaved compute kernels.
_COMPUTE_EFFICIENCY = 0.65

#: Cache hierarchy traffic amplification per access pattern:
#: bytes seen at (L1, L2) relative to the kernel's nominal element traffic,
#: and the fraction that ultimately reaches DRAM.
_CACHE_FACTORS = {
    MemoryPattern.STRIDE1: (1.0, 1.0, 1.0),
    MemoryPattern.STENCIL3D: (1.0, 0.55, 0.33),
    MemoryPattern.STRIDED: (1.1, 0.9, 0.8),
    MemoryPattern.GATHER: (1.3, 1.1, 1.0),
}


@dataclass(frozen=True)
class TimingBreakdown:
    """Predicted timing and derived rates for one kernel launch.

    Frozen: a priced kernel's breakdown is shared by every caller.
    """

    kernel_name: str
    backend_name: str
    gpu_name: str
    #: total predicted kernel duration in milliseconds
    kernel_time_ms: float
    memory_time_ms: float
    compute_time_ms: float
    atomic_time_ms: float
    overhead_ms: float
    occupancy: OccupancyResult
    active_threads: float
    dram_bytes: float
    raw_flops: float
    effective_flops: float
    atomic_ops: float
    achieved_bandwidth_gbs: float
    achieved_gflops: float
    memory_throughput_pct: float
    compute_throughput_pct: float
    memory_efficiency: float
    compute_efficiency: float
    bound: str
    notes: Tuple[str, ...] = ()

    @property
    def kernel_time_s(self) -> float:
        return self.kernel_time_ms * 1e-3

    def as_dict(self) -> Dict[str, float]:
        return {
            "kernel_time_ms": self.kernel_time_ms,
            "memory_time_ms": self.memory_time_ms,
            "compute_time_ms": self.compute_time_ms,
            "atomic_time_ms": self.atomic_time_ms,
            "overhead_ms": self.overhead_ms,
            "achieved_bandwidth_gbs": self.achieved_bandwidth_gbs,
            "achieved_gflops": self.achieved_gflops,
            "memory_throughput_pct": self.memory_throughput_pct,
            "compute_throughput_pct": self.compute_throughput_pct,
            "occupancy": self.occupancy.occupancy,
            "bound": self.bound,
        }


def estimate_cache_traffic(compiled: CompiledKernel, active_threads: float) -> Dict[str, float]:
    """Estimate total bytes moved at L1, L2 and DRAM for a launch.

    The stencil kernel reads 7 neighbours per cell at L1 but most of them hit
    in cache, so DRAM sees roughly one read + one write per cell; streaming
    kernels see the same traffic at every level.  These factors reproduce the
    level-dependent arithmetic intensities of the paper's Tables 2-3.
    """
    model = compiled.model
    nominal = (model.loads_global + model.stores_global) * model.dtype.sizeof
    l1f, l2f, dramf = _CACHE_FACTORS[model.memory_pattern]
    return {
        "l1_bytes": nominal * l1f * active_threads,
        "l2_bytes": nominal * l2f * active_threads,
        "dram_bytes": nominal * dramf * active_threads,
    }


class KernelTimingModel:
    """Predict kernel durations for compiled kernels on a GPU spec."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec

    # ------------------------------------------------------------------ main
    def predict(self, compiled: CompiledKernel,
                launch: Optional[LaunchConfig] = None) -> TimingBreakdown:
        """Predict the duration of *compiled* for *launch*."""
        spec = self.spec
        launch = launch or compiled.launch
        if launch is None:
            raise ConfigurationError(
                "a LaunchConfig is required to predict kernel time"
            )
        model = compiled.model
        profile = compiled.profile

        total_threads = launch.total_threads
        active_threads = total_threads * model.active_fraction

        occ = compute_occupancy(
            spec,
            launch.threads_per_block,
            registers_per_thread=compiled.registers_per_thread,
            shared_bytes_per_block=compiled.shared_bytes_per_block,
            num_blocks=launch.num_blocks,
        )

        # SIMT lane utilisation: a block smaller than (or not a multiple of)
        # the warp/wavefront width wastes the inactive lanes of its last warp.
        # This is what separates the paper's wg=8 and wg=64 miniBUDE curves,
        # and it costs twice as much on AMD's 64-wide wavefronts.
        warps_per_block = -(-launch.threads_per_block // spec.warp_size)
        lane_utilisation = launch.threads_per_block / (warps_per_block * spec.warp_size)

        # ----------------------------------------------------------- memory
        cache = estimate_cache_traffic(compiled, active_threads)
        dram_bytes = cache["dram_bytes"]
        # CAS retries and spills add DRAM traffic beyond the nominal pattern.
        extra_bytes = max(
            0.0,
            compiled.dram_bytes_per_thread * active_threads
            - (model.loads_global + model.stores_global) * model.dtype.sizeof * active_threads,
        )
        dram_bytes += extra_bytes

        mem_eff = _PATTERN_EFFICIENCY[model.memory_pattern]
        if model.memory_pattern == MemoryPattern.STENCIL3D:
            mem_eff *= profile.l1_reuse_efficiency
        elif model.memory_pattern == MemoryPattern.STRIDE1:
            mem_eff *= profile.stride1_efficiency
        if model.uses_shared:
            mem_eff *= profile.shared_reduction_efficiency

        # Latency hiding: derate when occupancy is below the pattern's need.
        needed = _PATTERN_OCC_NEEDED[model.memory_pattern]
        latency_factor = min(1.0, occ.occupancy / needed) if needed > 0 else 1.0
        mem_eff *= max(latency_factor, 0.05)

        # Device fill: small grids cannot saturate all SMs.
        if occ.blocks_per_sm > 0:
            device_blocks = occ.blocks_per_sm * spec.sm_count
            fill = min(1.0, launch.num_blocks / device_blocks)
            # partial final wave
            if launch.num_blocks > device_blocks:
                waves = launch.num_blocks / device_blocks
                fill = waves / math.ceil(waves)
            mem_eff *= max(fill, 0.05)
        if compiled.spilled:
            mem_eff /= profile.spill_penalty
        mem_eff *= lane_utilisation

        mem_eff = min(max(mem_eff, 1e-3), 1.0)
        memory_time_s = dram_bytes / (spec.peak_bandwidth_bytes * mem_eff) if dram_bytes else 0.0

        # ---------------------------------------------------------- compute
        effective_flops = compiled.effective_flops_per_thread * active_threads
        raw_flops = compiled.raw_flops_per_thread * active_threads
        peak_flops = spec.peak_flops(model.dtype.name)
        compute_eff = _COMPUTE_EFFICIENCY * max(min(1.0, occ.occupancy / 0.25), 0.1)
        # Independent work items per thread (ILP) let the scheduler hide
        # instruction latency: e.g. miniBUDE throughput rises with PPWI until
        # register pressure takes over (Figures 6-7).
        ilp_factor = 1.0 + 0.5 * min(max(model.ilp - 1.0, 0.0), 7.0) / 7.0
        compute_eff *= ilp_factor * lane_utilisation
        compute_eff = min(max(compute_eff, 1e-3), 0.95)
        compute_time_s = effective_flops / (peak_flops * compute_eff) if effective_flops else 0.0

        # ----------------------------------------------------------- atomics
        atomic_ops = compiled.atomic_ops_per_thread * active_threads
        atomic_rate = spec.atomic_gups * 1e9 * max(compiled.atomic_throughput_scale, 1e-6)
        atomic_time_s = atomic_ops / atomic_rate if atomic_ops else 0.0

        overhead_s = spec.launch_overhead_us * 1e-6

        kernel_time_s = max(memory_time_s, compute_time_s) + atomic_time_s + overhead_s

        achieved_bw = dram_bytes / kernel_time_s / 1e9 if kernel_time_s > 0 else 0.0
        achieved_gflops = raw_flops / kernel_time_s / 1e9 if kernel_time_s > 0 else 0.0

        mem_pct = 100.0 * (dram_bytes / kernel_time_s) / spec.peak_bandwidth_bytes \
            if kernel_time_s > 0 else 0.0
        compute_pct = self._sm_utilisation(compiled, active_threads, kernel_time_s)

        if atomic_time_s > max(memory_time_s, compute_time_s):
            bound = "atomic"
        elif memory_time_s >= compute_time_s:
            bound = "memory"
        else:
            bound = "compute"

        return TimingBreakdown(
            kernel_name=compiled.kernel_name,
            backend_name=compiled.backend_name,
            gpu_name=spec.name,
            kernel_time_ms=kernel_time_s * 1e3,
            memory_time_ms=memory_time_s * 1e3,
            compute_time_ms=compute_time_s * 1e3,
            atomic_time_ms=atomic_time_s * 1e3,
            overhead_ms=overhead_s * 1e3,
            occupancy=occ,
            active_threads=active_threads,
            dram_bytes=dram_bytes,
            raw_flops=raw_flops,
            effective_flops=effective_flops,
            atomic_ops=atomic_ops,
            achieved_bandwidth_gbs=achieved_bw,
            achieved_gflops=achieved_gflops,
            memory_throughput_pct=min(mem_pct, 100.0),
            compute_throughput_pct=min(compute_pct, 100.0),
            memory_efficiency=mem_eff,
            compute_efficiency=compute_eff,
            bound=bound,
            notes=compiled.notes,
        )

    # ------------------------------------------------------------- internals
    def _sm_utilisation(self, compiled: CompiledKernel, active_threads: float,
                        kernel_time_s: float) -> float:
        """Approximate ncu's "Compute (SM) Throughput %".

        Modelled as issued instructions divided by the device's instruction
        issue capacity over the kernel duration.  Backends that emit more
        integer/move instructions (the paper's Figure 5 observation about
        Mojo's extra IADD3s) therefore report a higher SM utilisation even at
        identical memory throughput, matching Tables 2-3.
        """
        if kernel_time_s <= 0:
            return 0.0
        spec = self.spec
        mix = compiled.instruction_mix
        issue_ops = 0.0
        for opcode, count in mix.items():
            if opcode in (Opcode.LDG, Opcode.STG):
                issue_ops += count * 1.0
            elif opcode in (Opcode.BAR,):
                issue_ops += count * 2.0
            elif opcode in (Opcode.FDIV, Opcode.MUFU):
                issue_ops += count * 4.0
            elif opcode in (Opcode.ATOM, Opcode.ATOM_CAS):
                issue_ops += count * 4.0
            else:
                issue_ops += count
        total_issued = issue_ops * active_threads
        # Each SM can issue roughly 4 instructions/cycle for a full warp.
        issue_capacity = (
            spec.sm_count * spec.clock_ghz * 1e9 * 4.0 * spec.warp_size
        )
        return 100.0 * total_issued / (issue_capacity * kernel_time_s)
