"""Model-guided candidate pruning: occupancy + roofline, before measurement.

Measuring a tuning candidate costs a full (modelled) workload run plus a
functional capture/replay probe; most of a launch space is not worth that.
This module scores every candidate with the two *cheap* analytic models the
repository already trusts:

* the **occupancy model** (:func:`repro.gpu.occupancy.compute_occupancy`)
  rejects infeasible launches outright (block beyond the device thread
  limit, shared memory beyond the block budget) and derates candidates
  whose resident-warp count cannot hide memory latency;
* the **roofline model** (:class:`repro.gpu.roofline.Roofline`) bounds each
  candidate's attainable throughput from the kernel's arithmetic intensity,
  so the estimate respects the memory/compute bound the paper's Figure 2
  establishes per workload.

The resulting :class:`CandidateEstimate` is an *upper-bound style* score —
close in structure to the full timing model but intentionally independent of
the compile pipeline, so the tuner's "modelled vs measured" ranking is a
meaningful comparison rather than a tautology.  Candidates whose estimated
cost exceeds :data:`DEFAULT_KEEP_RATIO` times the best estimate are pruned
and never measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.errors import LaunchError, ReproError
from ..core.kernel import KernelModel, LaunchConfig
from ..gpu.occupancy import compute_occupancy
from ..gpu.roofline import Roofline
from ..gpu.specs import GPUSpec, get_gpu
from .space import TuningConfig, TuningSpace

__all__ = ["CandidateEstimate", "PruneReport", "estimate_candidate",
           "prune_space", "DEFAULT_KEEP_RATIO"]

#: candidates estimated slower than this many times the best estimate are
#: pruned before measurement
DEFAULT_KEEP_RATIO = 2.0

#: occupancy needed to hide memory latency (coarse, pattern-independent —
#: the full timing model refines this per access pattern)
_OCC_NEEDED = 0.35

#: fraction of the roofline compute roof a well-behaved kernel reaches
_COMPUTE_EFFICIENCY = 0.65

#: coarse register estimate per thread (mirrors the compiler's baseline
#: ``working_values * register_scale + bias`` without invoking the pipeline)
def _register_estimate(model: KernelModel) -> int:
    return max(int(model.working_values * 1.1) + 4, 16)


@dataclass(frozen=True)
class CandidateEstimate:
    """Occupancy/roofline estimate for one tuning candidate."""

    config: TuningConfig
    feasible: bool
    #: why an infeasible candidate was rejected ("" when feasible)
    reason: str
    #: estimated kernel cost in ms (``inf`` when infeasible)
    modelled_ms: float
    occupancy: float = 0.0
    #: waves of blocks over the device (tail-effect indicator)
    waves: float = 0.0
    #: "memory" / "compute" / "atomic" — which term dominated the estimate
    bound: str = ""

    def as_dict(self) -> Dict[str, object]:
        out = {
            "config": self.config.as_dict(),
            "feasible": self.feasible,
            "modelled_ms": None if math.isinf(self.modelled_ms)
            else self.modelled_ms,
            "occupancy": self.occupancy,
            "bound": self.bound,
        }
        if self.reason:
            out["reason"] = self.reason
        return out


def estimate_candidate(gpu, model: KernelModel, launch: LaunchConfig,
                       config: TuningConfig, *,
                       traffic: Optional[Tuple[float, float]] = None
                       ) -> CandidateEstimate:
    """Score one candidate from occupancy + roofline, without compiling.

    *traffic* optionally supplies exact ``(read_bytes, write_bytes)`` from
    the symbolic region analysis (:func:`repro.analysis.regions.launch_traffic`);
    when given it replaces the coarse ``bytes_per_thread × active`` memory
    estimate, so guard-masked tails and stencil halos stop inflating the
    memory term.
    """
    spec: GPUSpec = get_gpu(gpu)
    try:
        occ = compute_occupancy(
            spec, launch.threads_per_block,
            registers_per_thread=_register_estimate(model),
            shared_bytes_per_block=model.shared_bytes_per_block,
            num_blocks=launch.num_blocks,
        )
    except LaunchError as exc:
        return CandidateEstimate(config=config, feasible=False,
                                 reason=str(exc), modelled_ms=float("inf"))

    active = launch.total_threads * model.active_fraction
    if traffic is not None:
        total_bytes = float(traffic[0]) + float(traffic[1])
    else:
        total_bytes = model.bytes_per_thread() * active
    total_flops = model.total_flops(active)

    # Latency hiding and device fill, as coarse occupancy-derived derates.
    latency = min(1.0, occ.occupancy / _OCC_NEEDED) if _OCC_NEEDED else 1.0
    latency = max(latency, 0.05)
    fill = 1.0
    if occ.waves > 0:
        fill = occ.waves / math.ceil(occ.waves) if occ.waves > 1.0 \
            else occ.waves
        fill = max(fill, 0.05)

    # Memory side: the roofline's bandwidth roof, derated.
    mem_bw = spec.peak_bandwidth_bytes * latency * fill
    memory_s = total_bytes / mem_bw if total_bytes else 0.0

    # Compute side: the roofline bound at the kernel's arithmetic intensity
    # caps the reachable FLOP rate; occupancy derates it further.
    roofline = Roofline(spec)
    ai = model.arithmetic_intensity()
    if total_flops:
        if math.isinf(ai):  # no global traffic: pure compute roof
            roof = roofline.peak_flops(model.dtype.name)
        else:
            roof = roofline.attainable(ai, model.dtype.name)
        roof *= _COMPUTE_EFFICIENCY * max(min(1.0, occ.occupancy / 0.25), 0.1)
        compute_s = total_flops / roof if roof > 0 else float("inf")
    else:
        compute_s = 0.0

    atomic_s = 0.0
    if model.atomics:
        atomic_s = (model.atomics * active) / (spec.atomic_gups * 1e9)

    cost_s = max(memory_s, compute_s) + atomic_s \
        + spec.launch_overhead_us * 1e-6
    if atomic_s > max(memory_s, compute_s):
        bound = "atomic"
    elif memory_s >= compute_s:
        bound = "memory"
    else:
        bound = "compute"
    return CandidateEstimate(
        config=config, feasible=True, reason="", modelled_ms=cost_s * 1e3,
        occupancy=occ.occupancy, waves=occ.waves, bound=bound,
    )


def _probe_traffic(workload, request,
                   launch: LaunchConfig) -> Optional[Tuple[float, float]]:
    """Exact (read, write) bytes for one candidate, or None to fall back."""
    try:
        probe = workload.region_probe(request)
        if probe is None:
            return None
        kern, args = probe
        from ..analysis.regions import launch_traffic

        return launch_traffic(kern, args, launch)
    except Exception:  # noqa: BLE001 - analysis must never break tuning
        return None


@dataclass
class PruneReport:
    """Outcome of the pre-measurement pruning pass over a space."""

    estimates: List[CandidateEstimate] = field(default_factory=list)
    kept: List[CandidateEstimate] = field(default_factory=list)
    pruned: List[CandidateEstimate] = field(default_factory=list)
    #: the pruning cutoff, as a multiple of the best estimate
    keep_ratio = DEFAULT_KEEP_RATIO

    @property
    def space_size(self) -> int:
        return len(self.estimates)

    @property
    def pruned_fraction(self) -> float:
        if not self.estimates:
            return 0.0
        return len(self.pruned) / len(self.estimates)

    def as_dict(self) -> Dict[str, object]:
        return {
            "space_size": self.space_size,
            "kept": len(self.kept),
            "pruned": len(self.pruned),
            "pruned_fraction": self.pruned_fraction,
            "keep_ratio": self.keep_ratio,
        }


def prune_space(workload, request, space: TuningSpace, *,
                enabled: bool = True) -> PruneReport:
    """Estimate every candidate of *space* and drop the hopeless ones.

    A candidate is pruned when it is infeasible (the occupancy model rejects
    the launch) or when its occupancy/roofline cost estimate exceeds
    :data:`DEFAULT_KEEP_RATIO` times the best estimate in the space.
    ``enabled=False``
    keeps every feasible candidate (used to validate that pruning does not
    change winners).  Kept candidates are returned best-estimate-first.

    Workloads exposing :meth:`~repro.workloads.base.Workload.region_probe`
    get their memory term from the symbolic region analysis — exact
    bytes moved under each candidate's launch — instead of the coarse
    per-thread model; a probe or analysis failure silently falls back.
    """
    report = PruneReport()
    for config in space.candidates():
        tuned = config.apply(request)
        try:
            tuned = tuned.replace(params=workload.validate_params(tuned.params))
            model, launch = workload.tuning_model(tuned)
        except ReproError as exc:
            estimate = CandidateEstimate(config=config, feasible=False,
                                         reason=str(exc),
                                         modelled_ms=float("inf"))
        else:
            estimate = estimate_candidate(tuned.gpu, model, launch, config,
                                          traffic=_probe_traffic(
                                              workload, tuned, launch))
        report.estimates.append(estimate)

    feasible = [e for e in report.estimates if e.feasible]
    feasible.sort(key=lambda e: e.modelled_ms)
    if feasible and enabled:
        cutoff = feasible[0].modelled_ms * DEFAULT_KEEP_RATIO
        report.kept = [e for e in feasible if e.modelled_ms <= cutoff]
        report.pruned = [e for e in report.estimates
                         if e not in report.kept]
    else:
        report.kept = feasible
        report.pruned = [e for e in report.estimates if not e.feasible]
    return report
