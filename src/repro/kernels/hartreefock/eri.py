"""Electron-repulsion integrals over contracted s-type Gaussians.

Shared by the device kernel, the NumPy reference and the Schwarz-screening
machinery so that every code path evaluates exactly the same integral.

For normalised primitives with exponents ``a, b, c, d`` centred at
``A, B, C, D`` the (ss|ss) integral is::

    p   = a + b                q   = c + d
    P   = (aA + bB) / p        Q   = (cC + dD) / q
    rho = p q / (p + q)
    (ab|cd) = 2 pi^2.5 / (p q sqrt(p+q))
              * exp(-a b/p |A-B|^2 - c d/q |C-D|^2)
              * F0(rho |P-Q|^2)

where ``F0`` is the zeroth Boys function.

:func:`contracted_eri` is the scalar oracle: a plain loop over primitive
quartets on ``math.erf``.  :func:`contracted_eri_batch` is the one
vectorised primitive-quartet loop; the reference Fock builds, the Schwarz
bounds (:func:`pair_schwarz`) and the identical-basis Schwarz table
(:func:`schwarz_identical_basis`) all evaluate through it.  Its Boys
function calls :func:`_erf`, erf's Taylor series about the nearest of 193
centres 1/32 apart, built at import from ``math.erf``, so NumPy is the only
dependency.  Against ``math.erf`` (glibc) on 10^6 random points in [0, 6],
10^5 points over [0, 7] and log-spaced points in [1e-300, 1], ``_erf`` is
at most 3 ulp off (5.9e-16 relative).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["boys_f0", "boys_f0_array", "contracted_eri", "contracted_eri_batch",
           "pair_schwarz", "schwarz_identical_basis", "TWO_PI_POW_2_5"]

TWO_PI_POW_2_5 = 2.0 * math.pi ** 2.5

#: below this argument the Boys function uses its Taylor expansion
_F0_SMALL = 1e-12


def boys_f0(t: float) -> float:
    """Zeroth-order Boys function ``F0(t)``.

    Scalar arguments use the ``math``-library evaluation; per-lane arrays
    (the vectorized executor) dispatch to :func:`boys_f0_array`, so one
    kernel body serves both execution regimes.
    """
    if isinstance(t, np.ndarray):
        return boys_f0_array(t)
    if t < _F0_SMALL:
        return 1.0 - t / 3.0
    st = math.sqrt(t)
    return 0.5 * math.sqrt(math.pi / t) * math.erf(st)


def boys_f0_array(t: np.ndarray) -> np.ndarray:
    """Vectorised zeroth-order Boys function (NumPy implementation)."""
    t = np.asarray(t, dtype=np.float64)
    t_safe = np.where(t < _F0_SMALL, 1.0, t)
    with np.errstate(invalid="ignore", divide="ignore"):
        large = 0.5 * np.sqrt(np.pi / t_safe) * _erf(np.sqrt(t_safe))
    small = 1.0 - t / 3.0
    return np.where(t < _F0_SMALL, small, large)


#: column ``k`` of :data:`_ERF_TAYLOR` expands erf about ``k * _ERF_STEP``
_ERF_STEP = 1.0 / 32.0
#: smallest double whose ``math.erf`` is exactly 1.0
_ERF_ONE = 5.921587195794507


def _erf_taylor() -> np.ndarray:
    """Taylor coefficients of erf about the centres ``a = k * _ERF_STEP``.

    The centres run from 0 to 6.0 (``k = 0 .. 192``) and each expansion
    keeps 8 terms.  Entry ``[n, k]`` is the coefficient of ``u**n`` in
    ``erf(a + u * _ERF_STEP)``.  Row 0 is ``math.erf(a)``.  The rest follow
    exactly from ``erf' = 2/sqrt(pi) g`` with ``g(x) = exp(-x^2)``:
    ``g' = -2 x g`` gives ``(m + 1) g_{m+1} = -2 a g_m - 2 g_{m-1}`` for the
    Taylor coefficients of ``g`` about ``a``.  Nothing is fitted, and the
    power-of-two scaling by ``_ERF_STEP**n`` is exact.
    """
    a = np.arange(193) * _ERF_STEP
    table = np.empty((8, len(a)))
    table[0] = [math.erf(v) for v in a]
    g = np.array([math.exp(-v * v) for v in a])
    g_prev = np.zeros_like(g)
    for n in range(1, len(table)):
        table[n] = 2.0 / math.sqrt(math.pi) * g / n * _ERF_STEP ** n
        g, g_prev = (-2.0 * a * g - 2.0 * g_prev) / n, g
    table.flags.writeable = False
    return table


_ERF_TAYLOR = _erf_taylor()


def _erf(x: np.ndarray) -> np.ndarray:
    """Vectorised error function: a Taylor polynomial about the nearest centre.

    ``|x| / _ERF_STEP`` splits exactly into its nearest integer ``k`` and a
    remainder ``|u| <= 1/2``; centre 0 carries erf's odd series, so tiny
    arguments keep full relative accuracy.  From :data:`_ERF_ONE` on, the
    last centre is used with ``u = 0``, which gives exactly
    ``math.erf(6.0) == 1.0``.  Only elementwise multiplies and adds touch
    the values, so the bits do not depend on the array's size or shape.
    The sign is copied back, so ``_erf(-x)`` is exactly ``-_erf(x)``.
    The coefficients are gathered one power at a time into one reused
    buffer.  A single gather of whole table columns, or a fresh array per
    power, measured slower in the 16-atom reference Fock build: fresh
    temporaries there fault in new pages.
    """
    ax = np.abs(x)
    t = np.where(ax >= _ERF_ONE, _ERF_TAYLOR.shape[1] - 1.0,
                 ax * (1.0 / _ERF_STEP))
    k = np.rint(t)
    u = t - k
    k = k.astype(np.intp)
    # mode="clip" gives a NaN a valid index; its u keeps the NaN
    r = _ERF_TAYLOR[-1].take(k, mode="clip")
    c = np.empty_like(r)
    for coef in _ERF_TAYLOR[-2::-1]:
        r *= u
        r += coef.take(k, out=c, mode="clip")
    return np.copysign(r, x)


def contracted_eri(
    pos_a: Sequence[float], pos_b: Sequence[float],
    pos_c: Sequence[float], pos_d: Sequence[float],
    xpnt: Sequence[float], coef: Sequence[float],
) -> float:
    """Contracted (ss|ss) ERI over four centres (scalar, loop implementation).

    This is the exact arithmetic executed per surviving quadruple by the
    device kernel; the coefficients are expected to already include the
    primitive normalisation (see :func:`normalise_coefficients`).
    """
    ax, ay, az = float(pos_a[0]), float(pos_a[1]), float(pos_a[2])
    bx, by, bz = float(pos_b[0]), float(pos_b[1]), float(pos_b[2])
    cx, cy, cz = float(pos_c[0]), float(pos_c[1]), float(pos_c[2])
    dx, dy, dz = float(pos_d[0]), float(pos_d[1]), float(pos_d[2])

    rab2 = (ax - bx) ** 2 + (ay - by) ** 2 + (az - bz) ** 2
    rcd2 = (cx - dx) ** 2 + (cy - dy) ** 2 + (cz - dz) ** 2

    ngauss = len(xpnt)
    eri = 0.0
    for ib in range(ngauss):
        for jb in range(ngauss):
            aij = xpnt[ib] + xpnt[jb]
            dij = coef[ib] * coef[jb] * math.exp(-xpnt[ib] * xpnt[jb] / aij * rab2)
            if dij == 0.0:
                continue
            pijx = (xpnt[ib] * ax + xpnt[jb] * bx) / aij
            pijy = (xpnt[ib] * ay + xpnt[jb] * by) / aij
            pijz = (xpnt[ib] * az + xpnt[jb] * bz) / aij
            for kb in range(ngauss):
                for lb in range(ngauss):
                    akl = xpnt[kb] + xpnt[lb]
                    dkl = coef[kb] * coef[lb] * math.exp(
                        -xpnt[kb] * xpnt[lb] / akl * rcd2)
                    if dkl == 0.0:
                        continue
                    pklx = (xpnt[kb] * cx + xpnt[lb] * dx) / akl
                    pkly = (xpnt[kb] * cy + xpnt[lb] * dy) / akl
                    pklz = (xpnt[kb] * cz + xpnt[lb] * dz) / akl
                    rpq2 = ((pijx - pklx) ** 2 + (pijy - pkly) ** 2
                            + (pijz - pklz) ** 2)
                    aijkl = aij * akl / (aij + akl)
                    f0t = boys_f0(aijkl * rpq2)
                    prefac = TWO_PI_POW_2_5 / (aij * akl * math.sqrt(aij + akl))
                    eri += dij * dkl * prefac * f0t
    return eri


def contracted_eri_batch(
    pos_a: np.ndarray, pos_b: np.ndarray,
    pos_c: np.ndarray, pos_d: np.ndarray,
    xpnt: Sequence[float], coef: Sequence[float],
) -> np.ndarray:
    """Contracted (ss|ss) ERIs for arrays of centre quadruples at once.

    ``pos_a .. pos_d`` are ``(N, 3)`` arrays (one row per quadruple); the
    return value is the ``(N,)`` array of integrals.  The arithmetic is the
    same term-by-term accumulation as the scalar :func:`contracted_eri` (the
    bit-level oracle), with the per-quadruple work vectorised so only the
    ``ngauss^4`` primitive-product loop remains in Python.
    """
    pos_a = np.atleast_2d(np.asarray(pos_a, dtype=np.float64))
    pos_b = np.atleast_2d(np.asarray(pos_b, dtype=np.float64))
    pos_c = np.atleast_2d(np.asarray(pos_c, dtype=np.float64))
    pos_d = np.atleast_2d(np.asarray(pos_d, dtype=np.float64))
    xpnt = np.asarray(xpnt, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    ngauss = len(xpnt)

    diff_ab = pos_a - pos_b
    diff_cd = pos_c - pos_d
    rab2 = np.einsum("ij,ij->i", diff_ab, diff_ab)
    rcd2 = np.einsum("ij,ij->i", diff_cd, diff_cd)

    # Precompute the primitive-pair quantities for the bra (a, b) and ket
    # (c, d) sides: ngauss^2 exponential prefactors and product centres each,
    # instead of ngauss^4 of them inside the combined loop.
    bra = []  # (aij, dij(N,), pij(N,3)) per (ib, jb)
    ket = []  # (akl, dkl(N,), pkl(N,3)) per (kb, lb)
    for ib in range(ngauss):
        for jb in range(ngauss):
            aij = xpnt[ib] + xpnt[jb]
            dij = coef[ib] * coef[jb] * np.exp(-xpnt[ib] * xpnt[jb] / aij * rab2)
            pij = (xpnt[ib] * pos_a + xpnt[jb] * pos_b) / aij
            bra.append((aij, dij, pij))
    for kb in range(ngauss):
        for lb in range(ngauss):
            akl = xpnt[kb] + xpnt[lb]
            dkl = coef[kb] * coef[lb] * np.exp(-xpnt[kb] * xpnt[lb] / akl * rcd2)
            pkl = (xpnt[kb] * pos_c + xpnt[lb] * pos_d) / akl
            ket.append((akl, dkl, pkl))

    eri = np.zeros(pos_a.shape[0], dtype=np.float64)
    # One buffer each for the per-quartet temporaries, not a fresh (N, 3)
    # array per primitive quartet.
    dpq = np.empty_like(pos_a)
    rpq2 = np.empty_like(eri)
    for aij, dij, pij in bra:
        for akl, dkl, pkl in ket:
            np.subtract(pij, pkl, out=dpq)
            np.einsum("ij,ij->i", dpq, dpq, out=rpq2)
            aijkl = aij * akl / (aij + akl)
            rpq2 *= aijkl
            f0t = boys_f0_array(rpq2)
            prefac = TWO_PI_POW_2_5 / (aij * akl * math.sqrt(aij + akl))
            eri += dij * dkl * prefac * f0t
    return eri


def pair_schwarz(positions: np.ndarray, pair_i: np.ndarray, pair_j: np.ndarray,
                 xpnt: np.ndarray, coef: np.ndarray, *,
                 chunk: int = 8192) -> np.ndarray:
    """Schwarz bounds ``sqrt((ij|ij))`` for a list of basis-function pairs.

    Evaluated through :func:`contracted_eri_batch` in chunks of *chunk*
    pairs, which bounds the memory of its primitive-pair intermediates.
    """
    positions = np.asarray(positions, dtype=np.float64)
    eri = np.empty(len(pair_i), dtype=np.float64)
    for start in range(0, len(pair_i), chunk):
        a_pos = positions[pair_i[start:start + chunk]]
        b_pos = positions[pair_j[start:start + chunk]]
        eri[start:start + chunk] = contracted_eri_batch(a_pos, b_pos, a_pos,
                                                        b_pos, xpnt, coef)
    return np.sqrt(np.maximum(eri, 0.0))


def schwarz_identical_basis(rab2: np.ndarray, xpnt: np.ndarray, coef: np.ndarray,
                            *, samples: int = 4096) -> np.ndarray:
    """Schwarz bounds for pairs of *identical* s-type contractions.

    When every basis function shares the same exponents and coefficients (the
    helium decks), the bound ``sqrt((ij|ij))`` depends only on the squared
    centre distance, so it can be tabulated exactly on a distance grid and
    interpolated.  This keeps the 1024-atom case (half a million pairs with
    1296 primitive products each) inexpensive without giving up accuracy.
    The table is :func:`contracted_eri_batch` on pairs along one axis.
    """
    rab2 = np.asarray(rab2, dtype=np.float64)
    if rab2.size == 0:
        return np.zeros(0, dtype=np.float64)
    grid = np.linspace(0.0, float(np.max(rab2)), samples)
    a_pos = np.zeros((samples, 3))
    b_pos = np.zeros((samples, 3))
    b_pos[:, 0] = np.sqrt(grid)
    eri = contracted_eri_batch(a_pos, b_pos, a_pos, b_pos, xpnt, coef)
    return np.interp(rab2, grid, np.sqrt(np.maximum(eri, 0.0)))
