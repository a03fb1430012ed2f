"""High-level runner for the Hartree–Fock workload (Table 4).

Three execution paths with very different cost envelopes meet here:

* functional verification (:func:`run_hartreefock_functional`) drives the
  device kernel thread-by-thread through the simulator — use only for the
  small ``verify_natoms`` systems;
* the expected Fock matrix comes from the *batched* ERI reference
  (:func:`~repro.kernels.hartreefock.reference.fock_quadruple_reference`),
  which vectorises everything except the ``ngauss^4`` primitive loop and
  handles hundreds of atoms in seconds;
* the Table 4 timings come from the analytic backend model — no ERI is
  evaluated at all, so ``natoms=1024`` costs no more than ``natoms=64``
  beyond the Schwarz-bound computation.

The benchmark engine itself lives in :mod:`repro.workloads.hartreefock`;
:func:`run_hartreefock` remains as a thin deprecated shim over it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...core.device import DeviceContext
from ...core.dtypes import DType
from ...core.kernel import LaunchConfig
from ...core.layout import Layout
from ...core.memo import Memo
from ...gpu.timing import TimingBreakdown
from .basis import HeSystem, make_helium_system, triangular_pairs
from .eri import pair_schwarz, schwarz_identical_basis
from .kernel import (
    SCHWARZ_TOLERANCE,
    hartree_fock_kernel,
    hartree_fock_kernel_model,
)
from .reference import fock_quadruple_reference, verify_fock

__all__ = ["HartreeFockResult", "run_hartreefock", "run_hartreefock_functional",
           "surviving_quadruple_fraction"]

#: block size used by the proxy's GPU ports
DEFAULT_BLOCK_SIZE = 256

#: systems at or above this size use the distance-interpolated Schwarz bounds
#: when counting surviving quadruples for the timing model
APPROX_SCHWARZ_NATOMS = 512


@dataclass
class HartreeFockResult:
    """Result of one Hartree–Fock configuration."""

    natoms: int
    ngauss: int
    backend: str
    gpu: str
    kernel_time_ms: float
    nquads: int
    surviving_fraction: float
    verified: bool
    max_rel_error: float
    timing: TimingBreakdown


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


def run_hartreefock_functional(natoms: int = 4, ngauss: int = 3, *,
                               gpu: str = "h100",
                               block_size: int = 16,
                               spacing: float = 2.5,
                               schwarz_tol: float = 0.0,
                               executor: str = "auto",
                               streams: int = 1,
                               pipeline_sink: Optional[dict] = None,
                               ) -> Tuple[np.ndarray, float]:
    """Run the device kernel functionally on a small system and verify it.

    Returns ``(fock, max_rel_error)`` against the host quadruple reference.
    ``schwarz_tol=0`` disables screening so every quadruple is exercised.
    ``executor`` selects the simulator mode (``"auto"`` runs the kernel as
    generated NumPy code, ``"vectorized"`` on the lockstep interpreter);
    ``streams > 1`` spreads the six input uploads round-robin
    over that many H2D streams with the kernel event-ordered behind them
    (identical numerics, overlapped modelled pipeline).  *pipeline_sink*
    receives the context's :class:`~repro.core.device.PipelineTiming` under
    ``"pipeline"`` when given.
    """
    system = make_helium_system(natoms, ngauss, spacing=spacing)
    schwarz = compute_schwarz(system)
    nquads = system.nquads

    ctx = DeviceContext(gpu)
    n = system.natoms
    pool, compute = ctx.upload_pipeline(streams)
    lanes = itertools.cycle(pool)

    def make_tensor(data, shape, label, dtype=DType.float64):
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        buf = ctx.enqueue_create_buffer(dtype, flat.size, label=label)
        buf.copy_from_host(flat, stream=next(lanes))
        return buf, buf.tensor(Layout.row_major(*shape), bounds_check=False)

    _, schwarz_t = make_tensor(schwarz, (len(schwarz),), "schwarz")
    _, xpnt_t = make_tensor(system.xpnt, (ngauss,), "xpnt")
    _, coef_t = make_tensor(system.coef, (ngauss,), "coef")
    _, geom_t = make_tensor(system.geometry, (n, 3), "geom")
    _, dens_t = make_tensor(system.dens, (n, n), "dens")
    fock_buf, fock_t = make_tensor(np.zeros((n, n)), (n, n), "fock")

    launch = LaunchConfig.for_elements(nquads, block_size)
    ctx.fan_in(pool, compute, prefix="uploads")
    survivors = (surviving_quadruple_fraction(schwarz, schwarz_tol)
                 if schwarz_tol > 0 else 1.0)
    ctx.enqueue_function(
        hartree_fock_kernel, ngauss, n, nquads, schwarz_t, schwarz_tol,
        xpnt_t, coef_t, geom_t, dens_t, fock_t,
        grid_dim=launch.grid_dim, block_dim=launch.block_dim, mode=executor,
        model=hartree_fock_kernel_model(natoms=n, ngauss=ngauss,
                                        surviving_fraction=survivors),
        stream=compute,
    )
    ctx.synchronize()

    fock = fock_buf.copy_to_host(stream=compute).reshape(n, n)
    if pipeline_sink is not None:
        pipeline_sink["pipeline"] = ctx.pipeline_breakdown()
    expected = fock_quadruple_reference(system, schwarz_tol=schwarz_tol,
                                        schwarz=schwarz if schwarz_tol > 0 else None)
    err = verify_fock(fock, expected)
    return fock, err


def run_hartreefock(**kwargs) -> HartreeFockResult:
    """Benchmark one Hartree–Fock configuration (Table 4).

    .. deprecated::
        Thin shim over the unified Workload API; prefer
        ``repro.workloads.get_workload("hartreefock")`` with a
        :class:`~repro.workloads.RunRequest`.  The benchmark engine lives in
        :func:`repro.workloads.hartreefock.bench_hartreefock` and keeps this
        function's exact signature and semantics.
    """
    from ...workloads.hartreefock import bench_hartreefock

    return bench_hartreefock(**kwargs)
