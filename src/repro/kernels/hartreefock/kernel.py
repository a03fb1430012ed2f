"""Hartree–Fock ERI device kernel (paper Listing 5).

One thread handles one unique quadruple of basis-function pairs
``(ij, kl)`` with ``i >= j``, ``k >= l`` and ``ij >= kl``: it evaluates the
contracted two-electron integral over the ``ngauss^4`` primitive products
(with Schwarz screening) and scatters the six Coulomb/exchange contributions
into the Fock matrix with atomic additions.
"""

from __future__ import annotations

import math

import numpy as np

from ...core.atomics import Atomic
from ...core.dtypes import DType
from ...core.intrinsics import (
    any_lane,
    block_dim,
    block_idx,
    compress_lanes,
    lane_where,
    thread_idx,
)
from ...core.kernel import KernelModel, MemoryPattern, kernel
from .eri import boys_f0, TWO_PI_POW_2_5

__all__ = ["hartree_fock_kernel", "hartree_fock_kernel_model",
           "decode_pair", "decode_pair_array", "SCHWARZ_TOLERANCE"]

#: default Schwarz screening tolerance (matches the proxy's dtol)
SCHWARZ_TOLERANCE = 1e-9


def decode_pair(idx: int) -> tuple:
    """Decode a triangular index into ``(row, col)`` with ``row >= col``.

    The inverse of ``idx = row*(row+1)/2 + col``.  Per-lane index arrays
    (the vectorized executor) dispatch to :func:`decode_pair_array`; both
    forms produce identical integer results.
    """
    if isinstance(idx, np.ndarray):
        return decode_pair_array(idx)
    row = int((math.sqrt(8.0 * idx + 1.0) - 1.0) / 2.0)
    # Guard against floating point rounding at triangle boundaries.
    while (row + 1) * (row + 2) // 2 <= idx:
        row += 1
    while row * (row + 1) // 2 > idx:
        row -= 1
    col = idx - row * (row + 1) // 2
    return row, col


def decode_pair_array(idx) -> tuple:
    """Vectorised :func:`decode_pair`: decode an array of triangular indices.

    Returns ``(row, col)`` int64 arrays with ``row >= col`` elementwise.
    """
    idx = np.asarray(idx, dtype=np.int64)
    row = ((np.sqrt(8.0 * idx + 1.0) - 1.0) / 2.0).astype(np.int64)
    # Same rounding guards as the scalar decode, applied until stable (at
    # most a couple of iterations for any representable index).
    while True:
        low = (row + 1) * (row + 2) // 2 <= idx
        if not low.any():
            break
        row[low] += 1
    while True:
        high = row * (row + 1) // 2 > idx
        if not high.any():
            break
        row[high] -= 1
    col = idx - row * (row + 1) // 2
    return row, col


@kernel(name="hartree_fock_kernel", strict=True)
def hartree_fock_kernel(ngauss, natoms, nquads, schwarz, schwarz_tol,
                        xpnt, coef, geom, dens, fock):
    """Accumulate the two-electron part of the Fock matrix for one quadruple.

    ``geom`` is a rank-2 tensor ``(natoms, 3)``; ``dens``/``fock`` are rank-2
    ``(natoms, natoms)`` tensors; ``schwarz`` holds the pair bounds in
    triangular order; ``xpnt``/``coef`` hold the primitive exponents and
    normalised contraction coefficients.

    Vector-safe form: the launch-tail and Schwarz-screening early exits are
    staged ``any_lane``/``compress_lanes`` guards (surviving lanes carry on),
    the symmetry weights are per-lane selects, and the six Fock updates use
    the lane-vector atomic form (``np.add.at`` semantics — identical
    ascending-lane accumulation order to the scalar executors).
    """
    ijkl = block_idx.x * block_dim.x + thread_idx.x
    m = ijkl < nquads
    if not any_lane(m):
        return
    ijkl = compress_lanes(m, ijkl)

    ij, kl = decode_pair(ijkl)
    keep = schwarz[ij] * schwarz[kl] >= schwarz_tol
    if not any_lane(keep):
        return
    ij, kl = compress_lanes(keep, ij, kl)

    i, j = decode_pair(ij)
    k, l = decode_pair(kl)

    ax, ay, az = geom[i, 0], geom[i, 1], geom[i, 2]
    bx, by, bz = geom[j, 0], geom[j, 1], geom[j, 2]
    cx, cy, cz = geom[k, 0], geom[k, 1], geom[k, 2]
    dx, dy, dz = geom[l, 0], geom[l, 1], geom[l, 2]

    rab2 = (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
    rcd2 = (cx - dx) ** 2 + (cy - dy) ** 2 + (cz - dz) ** 2

    # Four nested loops over the Gaussian primitives.
    eri = 0.0
    for ib in range(ngauss):
        for jb in range(ngauss):
            aij = xpnt[ib] + xpnt[jb]
            dij = coef[ib] * coef[jb] * np.exp(-xpnt[ib] * xpnt[jb] / aij * rab2)
            pijx = (xpnt[ib] * ax + xpnt[jb] * bx) / aij
            pijy = (xpnt[ib] * ay + xpnt[jb] * by) / aij
            pijz = (xpnt[ib] * az + xpnt[jb] * bz) / aij
            for kb in range(ngauss):
                for lb in range(ngauss):
                    akl = xpnt[kb] + xpnt[lb]
                    dkl = coef[kb] * coef[lb] * np.exp(
                        -xpnt[kb] * xpnt[lb] / akl * rcd2)
                    pklx = (xpnt[kb] * cx + xpnt[lb] * dx) / akl
                    pkly = (xpnt[kb] * cy + xpnt[lb] * dy) / akl
                    pklz = (xpnt[kb] * cz + xpnt[lb] * dz) / akl
                    rpq2 = ((pijx - pklx) ** 2 + (pijy - pkly) ** 2
                            + (pijz - pklz) ** 2)
                    aijkl = aij * akl / (aij + akl)
                    f0t = boys_f0(aijkl * rpq2)
                    prefac = TWO_PI_POW_2_5 / (aij * akl * math.sqrt(aij + akl))
                    eri = eri + dij * dkl * prefac * f0t

    # Symmetry weights for the unique-quadruple formulation.
    eri = eri * lane_where(i == j, 0.5, 1.0)
    eri = eri * lane_where(k == l, 0.5, 1.0)
    eri = eri * lane_where((i == k) & (j == l), 0.5, 1.0)

    # Six atomic Fock matrix updates (2 Coulomb, 4 exchange).
    Atomic.fetch_add(fock, (i, j), dens[k, l] * eri * 4.0)
    Atomic.fetch_add(fock, (k, l), dens[i, j] * eri * 4.0)
    Atomic.fetch_add(fock, (i, k), dens[j, l] * eri * -1.0)
    Atomic.fetch_add(fock, (i, l), dens[j, k] * eri * -1.0)
    Atomic.fetch_add(fock, (j, k), dens[i, l] * eri * -1.0)
    Atomic.fetch_add(fock, (j, l), dens[i, k] * eri * -1.0)


def hartree_fock_kernel_model(*, natoms: int, ngauss: int,
                              surviving_fraction: float = 1.0) -> KernelModel:
    """Analytic resource model of the ERI kernel per launched thread.

    FLOP/special-function counts are averaged over launched threads using the
    Schwarz survival fraction (screened-out threads exit after two loads).
    """
    g4 = float(ngauss) ** 4
    g2 = float(ngauss) ** 2
    s = max(min(surviving_fraction, 1.0), 0.0)
    # The geometry, exponents, coefficients and density matrix all fit in the
    # last-level cache (a 256-atom system needs ~0.5 MB for the density), so
    # per-thread DRAM traffic is only the Schwarz lookups plus a handful of
    # cache misses; the Fock updates are accounted as atomics.
    return KernelModel(
        name="hartree_fock_eri",
        dtype=DType.float64,
        loads_global=2.0 + s * 6.0,
        stores_global=0.0,
        flops=s * (22.0 * g4 + 8.0 * g2 + 30.0),
        int_ops=20.0 + s * 10.0 * g4,
        transcendentals=s * (2.0 * g4 + g2),   # exp + erf per primitive quartet
        divides=s * (2.0 * g4 + 6.0),          # sqrt / reciprocal per quartet
        atomics=s * 6.0,
        scalar_args=4,
        working_values=28 + 2 * int(g2),
        memory_pattern=MemoryPattern.GATHER,
        active_fraction=1.0,
        notes=f"natoms={natoms}, ngauss={ngauss}, survivors={s:.3f}",
    )
