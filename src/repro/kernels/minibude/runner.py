"""Launch geometry and functional verification for miniBUDE (Figures 6-7).

The benchmark itself (timing model, Eq. 3 GFLOP/s) is
:meth:`repro.workloads.minibude.MiniBudeWorkload._run`; this module holds
the launch configuration it shares with the tuner and the device-kernel run
it verifies on a reduced deck.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from ...core.device import DeviceContext
from ...core.dtypes import DType
from ...core.errors import ConfigurationError
from ...core.intrinsics import ceildiv
from ...core.kernel import LaunchConfig
from .deck import Deck
from .kernel import fasten_kernel, fasten_kernel_model
from .reference import verify_energies

__all__ = ["run_fasten_functional", "minibude_launch_config",
           "DEFAULT_PPWI_SWEEP", "DEFAULT_WGSIZES"]

#: PPWI sweep used in Figures 6-7
DEFAULT_PPWI_SWEEP = (1, 2, 4, 8, 16, 32, 64, 128)
#: work-group sizes used in Figures 6-7
DEFAULT_WGSIZES = (8, 64)


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
