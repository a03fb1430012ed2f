"""Launch geometry and the device program of miniBUDE (Figures 6-7).

The benchmark itself (timing model, Eq. 3 GFLOP/s) is
:meth:`repro.workloads.minibude.MiniBudeWorkload._run`.  This module holds
the launch configuration it shares with the tuner, the one device program
(:func:`enqueue_fasten`) that verification and the lint capture both
enqueue, and the comparison every verification of it shares.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

import numpy as np

from ...core.device import DeviceContext
from ...core.dtypes import DType
from ...core.errors import ConfigurationError
from ...core.intrinsics import ceildiv
from ...core.kernel import LaunchConfig
from ..expected import expected_output
from .deck import Deck
from .kernel import fasten_kernel, fasten_kernel_model
from .reference import reference_energies, verify_energies

__all__ = ["enqueue_fasten", "expected_energies", "fasten_error",
           "fasten_inputs", "run_fasten_functional",
           "minibude_launch_config", "DEFAULT_PPWI_SWEEP", "DEFAULT_WGSIZES"]

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


def fasten_inputs(deck: Deck) -> Dict[str, np.ndarray]:
    """The host sources :func:`enqueue_fasten` uploads, by buffer label
    (``protein``, ``ligand``, ``forcefield``, ``t0`` ... ``t5``)."""
    inputs = {"protein": deck.protein_flat(), "ligand": deck.ligand_flat(),
              "forcefield": deck.forcefield_flat()}
    inputs.update((f"t{i}", t) for i, t in enumerate(deck.transforms()))
    return inputs


def enqueue_fasten(ctx: DeviceContext, deck: Deck, *, ppwi: int = 2,
                   wgsize: int = 8, executor: str = "auto",
                   streams: int = 1) -> Optional[np.ndarray]:
    """Upload *deck*, launch fasten and download the pose energies on *ctx*.

    Returns the energies download: an array on an eager context, None
    under ``ctx.capture``.  The deck inputs are read-only tensors.
    ``streams > 1`` distributes the deck uploads round-robin over that many
    H2D streams, with the kernel event-ordered after every upload
    (identical numerics, overlapped modelled pipeline).
    """
    launch = minibude_launch_config(deck.nposes, ppwi, wgsize)
    pool, compute = ctx.upload_pipeline(streams)
    lanes = itertools.cycle(pool)

    def upload(data, label):
        buf = ctx.enqueue_create_buffer(DType.float32, data.size, label=label)
        buf.copy_from_host(data, stream=next(lanes))
        return buf.tensor(mut=False)

    inputs = {label: upload(data, label)
              for label, data in fasten_inputs(deck).items()}
    transforms = [inputs[f"t{i}"] for i in range(6)]
    etot_buf = ctx.enqueue_create_buffer(DType.float32, deck.nposes, label="etotals")

    ctx.fan_in(pool, compute, prefix="uploads")
    ctx.enqueue_function(
        fasten_kernel, ppwi, deck.natlig, deck.natpro, inputs["protein"],
        inputs["ligand"], *transforms, etot_buf.tensor(),
        inputs["forcefield"], deck.nposes,
        grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=executor,
        model=fasten_kernel_model(ppwi=ppwi, natlig=deck.natlig,
                                  natpro=deck.natpro, wgsize=wgsize),
        stream=compute,
    )
    return etot_buf.copy_to_host(stream=compute)


def expected_energies(deck: Deck) -> np.ndarray:
    """Reference pose energies of *deck*, read-only.

    Memoised on :attr:`Deck.key` in the ``reference`` memo
    (:mod:`repro.kernels.expected`); a deck without a key is computed fresh
    on every call.
    """
    return expected_output("minibude", deck.key,
                           lambda: reference_energies(deck))


def fasten_error(deck: Deck, energies: np.ndarray) -> float:
    """Max relative error of an energies download against
    :func:`expected_energies`."""
    return verify_energies(energies, expected_energies(deck))


def run_fasten_functional(ctx: DeviceContext, deck: Deck, *, ppwi: int = 2,
                          wgsize: int = 8, executor: str = "auto",
                          streams: int = 1) -> Tuple[np.ndarray, float]:
    """Run :func:`enqueue_fasten` on *ctx* and verify the energies.

    Returns ``(energies, max_rel_error)`` (:func:`fasten_error`).  Intended
    for reduced decks.  *ctx*'s timeline holds the modelled pipeline
    afterwards.
    """
    energies = enqueue_fasten(ctx, deck, ppwi=ppwi, wgsize=wgsize,
                              executor=executor, streams=streams)
    ctx.synchronize()
    return energies, fasten_error(deck, energies)
