"""High-level runner for the Hartree–Fock workload (Table 4).

Three execution paths with very different cost envelopes meet here:

* functional verification (:func:`run_hartreefock_functional`) drives the
  device kernel through the simulator — use only for the small
  ``verify_natoms`` systems;
* the expected Fock matrix comes from the *batched* ERI reference
  (:func:`~repro.kernels.hartreefock.reference.fock_quadruple_reference`),
  which vectorises everything except the ``ngauss^4`` primitive loop and
  handles hundreds of atoms in seconds;
* the Table 4 timings come from the analytic backend model — no ERI is
  evaluated at all, so ``natoms=1024`` costs no more than ``natoms=64``
  beyond the Schwarz-bound computation.

The benchmark itself is
:meth:`repro.workloads.hartreefock.HartreeFockWorkload._run`; this module
holds the setup it shares with the tuner (:func:`compute_schwarz`,
:func:`surviving_quadruple_fraction`), the one device program
(:func:`enqueue_hartreefock`) that verification and the lint capture both
enqueue, and the comparison every verification of it shares.
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from ...core.device import DeviceContext
from ...core.dtypes import DType
from ...core.kernel import LaunchConfig
from ...core.layout import Layout
from ...core.memo import Memo
from ..expected import expected_output
from .basis import HeSystem, make_helium_system, triangular_pairs
from .eri import pair_schwarz, schwarz_identical_basis
from .kernel import (
    SCHWARZ_TOLERANCE,
    hartree_fock_kernel,
    hartree_fock_kernel_model,
)
from .reference import fock_quadruple_reference, verify_fock

__all__ = ["compute_schwarz", "enqueue_hartreefock", "expected_fock",
           "fock_error", "run_hartreefock_functional",
           "surviving_quadruple_fraction"]

#: block size used by the proxy's GPU ports
DEFAULT_BLOCK_SIZE = 256

#: block size and atom spacing of the verification run
VERIFY_BLOCK_SIZE = 16
VERIFY_SPACING = 2.5

#: systems at or above this size use the distance-interpolated Schwarz bounds
#: when counting surviving quadruples for the timing model
APPROX_SCHWARZ_NATOMS = 512


#: memo behind :func:`compute_schwarz`
SCHWARZ_MEMO = Memo("schwarz")


def compute_schwarz(system: HeSystem, *, approximate: bool = False) -> np.ndarray:
    """Schwarz bounds for every unique basis-function pair of *system*.

    ``approximate=True`` switches to the distance-interpolation fast path
    (exact for identical basis functions up to interpolation error), which is
    what large systems (512+ atoms) use.

    The bounds are memoised on ``(system.key, approximate)``
    (:data:`SCHWARZ_MEMO`), so a system from
    :func:`~repro.kernels.hartreefock.basis.make_helium_system` pays for them
    once.  A hand-built system has no key and is recomputed on every call.
    The returned array is read-only either way.
    """
    if system.key is None:
        bounds = _schwarz_bounds(system, approximate)
        bounds.flags.writeable = False
        return bounds
    return SCHWARZ_MEMO.get_or_compute(
        (system.key, bool(approximate)),
        lambda: _schwarz_bounds(system, approximate))


def _schwarz_bounds(system: HeSystem, approximate: bool) -> np.ndarray:
    if approximate:
        return schwarz_identical_basis(system.pair_distances_sq(),
                                       system.xpnt, system.coef)
    pair_i, pair_j = triangular_pairs(system.natoms)
    return pair_schwarz(system.geometry, pair_i, pair_j, system.xpnt,
                        system.coef)


def surviving_quadruple_fraction(schwarz: np.ndarray,
                                 tol: float = SCHWARZ_TOLERANCE) -> float:
    """Fraction of unique (ij >= kl) quadruples that pass Schwarz screening.

    Computed exactly in O(npairs log npairs) by sorting the pair bounds: a
    quadruple survives when ``schwarz[ij] * schwarz[kl] >= tol``.
    """
    s = np.sort(np.asarray(schwarz, dtype=np.float64))
    n = len(s)
    if n == 0:
        return 0.0
    total = n * (n + 1) // 2
    # For each ij (value v), the partners kl <= ij that survive are those with
    # s[kl] >= tol / v.  Work on the sorted array and count pairs (p <= q).
    with np.errstate(divide="ignore", invalid="ignore"):
        thresholds = np.where(s > 0, tol / s, np.inf)
    # index of first element >= threshold for each q; q survives with the
    # q - firsts[q] + 1 partners at or below it, or none when firsts[q] > q
    firsts = np.searchsorted(s, thresholds, side="left")
    surviving = int(np.clip(np.arange(1, n + 1) - firsts, 0, None).sum())
    return surviving / total


def expected_fock(system: HeSystem,
                  schwarz_tol: Optional[float] = None) -> np.ndarray:
    """Host reference Fock matrix of *system*, read-only.

    ``schwarz_tol=None`` accumulates every quadruple; a tolerance screens
    with :func:`compute_schwarz` bounds.  Memoised on ``(system.key,
    schwarz_tol)`` in the ``reference`` memo (:mod:`repro.kernels.expected`);
    a hand-built system is computed fresh on every call.
    """
    def build():
        if schwarz_tol is None:
            return fock_quadruple_reference(system)
        return fock_quadruple_reference(system, schwarz_tol=schwarz_tol,
                                        schwarz=compute_schwarz(system))

    key = None if system.key is None else (system.key, schwarz_tol)
    return expected_output("hartreefock", key, build)


def enqueue_hartreefock(ctx: DeviceContext, system: HeSystem,
                        schwarz: np.ndarray, *, block_size: int = 16,
                        schwarz_tol: float = 0.0, executor: str = "auto",
                        streams: int = 1) -> Optional[np.ndarray]:
    """Upload *system*, launch the ERI kernel and download the Fock matrix.

    Returns the flat Fock download: an array on an eager context, None
    under ``ctx.capture``.  The inputs are read-only tensors; only the
    zero-initialised Fock matrix is written.  ``streams > 1`` spreads the
    six uploads round-robin over that many H2D streams with the kernel
    event-ordered behind them (identical numerics, overlapped modelled
    pipeline).
    """
    n, ngauss = system.natoms, system.ngauss
    pool, compute = ctx.upload_pipeline(streams)
    lanes = itertools.cycle(pool)

    def upload(data, shape, label, mut=False):
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        buf = ctx.enqueue_create_buffer(DType.float64, flat.size, label=label)
        buf.copy_from_host(flat, stream=next(lanes))
        return buf.tensor(Layout.row_major(*shape), mut=mut)

    schwarz_t = upload(schwarz, (len(schwarz),), "schwarz")
    xpnt_t = upload(system.xpnt, (ngauss,), "xpnt")
    coef_t = upload(system.coef, (ngauss,), "coef")
    geom_t = upload(system.geometry, (n, 3), "geom")
    dens_t = upload(system.dens, (n, n), "dens")
    fock_t = upload(np.zeros((n, n)), (n, n), "fock", mut=True)

    launch = LaunchConfig.for_elements(system.nquads, block_size)
    ctx.fan_in(pool, compute, prefix="uploads")
    survivors = (surviving_quadruple_fraction(schwarz, schwarz_tol)
                 if schwarz_tol > 0 else 1.0)
    ctx.enqueue_function(
        hartree_fock_kernel, ngauss, n, system.nquads, schwarz_t, schwarz_tol,
        xpnt_t, coef_t, geom_t, dens_t, fock_t,
        grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=executor,
        model=hartree_fock_kernel_model(natoms=n, ngauss=ngauss,
                                        surviving_fraction=survivors),
        stream=compute,
    )
    return fock_t.device_buffer.copy_to_host(stream=compute)


def fock_error(system: HeSystem, schwarz_tol: float,
               fock: np.ndarray) -> Tuple[np.ndarray, float]:
    """``(fock, max_rel_error)`` of a flat Fock download against
    :func:`expected_fock` (unscreened when *schwarz_tol* is 0)."""
    fock = fock.reshape(system.natoms, system.natoms)
    expected = expected_fock(system, schwarz_tol if schwarz_tol > 0 else None)
    return fock, verify_fock(fock, expected)


def run_hartreefock_functional(ctx: DeviceContext, natoms: int = 4,
                               ngauss: int = 3, *,
                               block_size: int = VERIFY_BLOCK_SIZE,
                               spacing: float = VERIFY_SPACING,
                               schwarz_tol: float = 0.0,
                               executor: str = "auto", streams: int = 1,
                               ) -> Tuple[np.ndarray, float]:
    """Run :func:`enqueue_hartreefock` on *ctx* for a small system, verify it.

    Returns ``(fock, max_rel_error)`` (:func:`fock_error`).
    ``schwarz_tol=0`` disables screening so every quadruple is exercised.
    *ctx*'s timeline holds the modelled pipeline afterwards.
    """
    system = make_helium_system(natoms, ngauss, spacing=spacing)
    fock = enqueue_hartreefock(ctx, system, compute_schwarz(system),
                               block_size=block_size, schwarz_tol=schwarz_tol,
                               executor=executor, streams=streams)
    ctx.synchronize()
    return fock_error(system, schwarz_tol, fock)
