"""High-level runner for the miniBUDE workload (Figures 6 and 7).

The benchmark engine itself lives in :mod:`repro.workloads.minibude`;
:func:`run_minibude` remains as a thin deprecated shim over it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.device import DeviceContext
from ...core.dtypes import DType
from ...core.errors import ConfigurationError
from ...core.intrinsics import ceildiv
from ...core.kernel import LaunchConfig
from ...gpu.timing import TimingBreakdown
from .deck import Deck
from .kernel import fasten_kernel, fasten_kernel_model
from .reference import verify_energies

__all__ = ["MiniBudeResult", "run_minibude", "run_fasten_functional",
           "minibude_launch_config", "DEFAULT_PPWI_SWEEP", "DEFAULT_WGSIZES"]

#: PPWI sweep used in Figures 6-7
DEFAULT_PPWI_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)
#: work-group sizes used in Figures 6-7
DEFAULT_WGSIZES = (8, 64)


@dataclass
class MiniBudeResult:
    """Result of one miniBUDE configuration."""

    ppwi: int
    wgsize: int
    nposes: int
    natlig: int
    natpro: int
    backend: str
    gpu: str
    fast_math: bool
    kernel_time_ms: float
    gflops: float
    verified: bool
    max_rel_error: float
    timing: TimingBreakdown


def minibude_launch_config(nposes: int, ppwi: int, wgsize: int) -> LaunchConfig:
    """One thread per ``ppwi`` poses, ``wgsize`` threads per block."""
    if nposes % ppwi != 0:
        raise ConfigurationError(
            f"nposes ({nposes}) must be divisible by ppwi ({ppwi})"
        )
    threads = nposes // ppwi
    blocks = ceildiv(threads, wgsize)
    return LaunchConfig.make(blocks, wgsize)


def run_fasten_functional(deck: Deck, *, ppwi: int = 2, wgsize: int = 8,
                          gpu: str = "h100", executor: str = "auto",
                          streams: int = 1,
                          pipeline_sink: Optional[dict] = None,
                          ) -> Tuple[np.ndarray, float]:
    """Run the fasten device kernel through the functional simulator.

    Returns ``(energies, max_rel_error)`` after verifying against the
    vectorised reference.  Intended for reduced decks.  ``executor`` selects
    the simulator mode (``"auto"`` runs the kernel as generated NumPy code,
    ``"vectorized"`` on the lockstep interpreter); ``streams > 1``
    distributes the deck uploads round-robin over that many H2D streams,
    with the kernel event-ordered after every upload (identical numerics,
    overlapped modelled pipeline).  *pipeline_sink*, when given, receives
    the context's :class:`~repro.core.device.PipelineTiming` under
    ``"pipeline"``.
    """
    launch = minibude_launch_config(deck.nposes, ppwi, wgsize)
    ctx = DeviceContext(gpu)
    pool, compute = ctx.upload_pipeline(streams)
    lanes = itertools.cycle(pool)

    def make_buffer(data, label):
        buf = ctx.enqueue_create_buffer(DType.float32, data.size, label=label)
        buf.copy_from_host(data, stream=next(lanes))
        return buf.tensor(bounds_check=False)

    protein = make_buffer(deck.protein_flat(), "protein")
    ligand = make_buffer(deck.ligand_flat(), "ligand")
    forcefield = make_buffer(deck.forcefield_flat(), "forcefield")
    transforms = [make_buffer(t, f"t{i}") for i, t in enumerate(deck.transforms())]
    etot_buf = ctx.enqueue_create_buffer(DType.float32, deck.nposes, label="etotals")
    etotals = etot_buf.tensor(bounds_check=False)

    ctx.fan_in(pool, compute, prefix="uploads")
    ctx.enqueue_function(
        fasten_kernel, ppwi, deck.natlig, deck.natpro, protein, ligand,
        *transforms, etotals, forcefield, deck.nposes,
        grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=executor,
        model=fasten_kernel_model(ppwi=ppwi, natlig=deck.natlig,
                                  natpro=deck.natpro, wgsize=wgsize),
        stream=compute,
    )
    ctx.synchronize()
    energies = etot_buf.copy_to_host(stream=compute)
    if pipeline_sink is not None:
        pipeline_sink["pipeline"] = ctx.pipeline_breakdown()
    err = verify_energies(energies, deck)
    return energies, err


def run_minibude(**kwargs) -> MiniBudeResult:
    """Benchmark one miniBUDE configuration (bm1 by default).

    .. deprecated::
        Thin shim over the unified Workload API; prefer
        ``repro.workloads.get_workload("minibude")`` with a
        :class:`~repro.workloads.RunRequest`.  The benchmark engine lives in
        :func:`repro.workloads.minibude.bench_minibude` and keeps this
        function's exact signature and semantics.
    """
    from ...workloads.minibude import bench_minibude

    return bench_minibude(**kwargs)
