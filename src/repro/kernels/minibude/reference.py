"""Vectorized NumPy reference for the miniBUDE docking energy.

Computes the same energy as :func:`~repro.kernels.minibude.kernel.fasten_kernel`
for every pose, vectorised over ligand and protein atoms and chunked over
poses to bound memory use.  Used both as the gold standard for the device
kernel and as the large-scale execution path.
"""

from __future__ import annotations

import numpy as np

from ...core.errors import VerificationError
from .deck import Deck
from .kernel import CNSTNT, HALF, HARDNESS, HBTYPE_E, HBTYPE_F, NPNPDIST

__all__ = ["reference_energies", "verify_energies"]


def _pose_transforms(poses: np.ndarray) -> np.ndarray:
    """Build the (nposes, 3, 4) rigid-body transform array."""
    rx, ry, rz, tx, ty, tz = (poses[i] for i in range(6))
    sx, cx = np.sin(rx), np.cos(rx)
    sy, cy = np.sin(ry), np.cos(ry)
    sz, cz = np.sin(rz), np.cos(rz)
    nposes = poses.shape[1]
    m = np.zeros((nposes, 3, 4), dtype=np.float64)
    m[:, 0, 0] = cy * cz
    m[:, 0, 1] = sx * sy * cz - cx * sz
    m[:, 0, 2] = cx * sy * cz + sx * sz
    m[:, 0, 3] = tx
    m[:, 1, 0] = cy * sz
    m[:, 1, 1] = sx * sy * sz + cx * cz
    m[:, 1, 2] = cx * sy * sz - sx * cz
    m[:, 1, 3] = ty
    m[:, 2, 0] = -sy
    m[:, 2, 1] = sx * cy
    m[:, 2, 2] = cx * cy
    m[:, 2, 3] = tz
    return m


def reference_energies(deck: Deck, *, pose_chunk: int = 256) -> np.ndarray:
    """Energies of all poses in *deck* (float32 array of length nposes)."""
    protein = deck.protein.astype(np.float64)
    ligand = deck.ligand.astype(np.float64)
    ff = deck.forcefield.astype(np.float64)

    p_type = protein[:, 3].astype(int)
    l_type = ligand[:, 3].astype(int)
    p_hbtype, p_radius, p_hphb, p_elsc = ff[p_type].T
    l_hbtype, l_radius, l_hphb, l_elsc = ff[l_type].T

    # Pairwise (ligand, protein) forcefield combinations — pose independent.
    radij = p_radius[None, :] + l_radius[:, None]              # (L, P)
    r_radij = 1.0 / radij
    both_f = (p_hbtype[None, :] == HBTYPE_F) & (l_hbtype[:, None] == HBTYPE_F)
    elcdst = np.where(both_f, 4.0, 2.0)
    elcdst1 = np.where(both_f, 0.25, 0.5)
    type_e = (p_hbtype[None, :] == HBTYPE_E) | (l_hbtype[:, None] == HBTYPE_E)
    hphb_sum = p_hphb[None, :] + l_hphb[:, None]
    elsc_prod = p_elsc[None, :] * l_elsc[:, None]

    transforms = _pose_transforms(deck.poses.astype(np.float64))
    nposes = deck.nposes
    energies = np.zeros(nposes, dtype=np.float64)

    lig_xyz = ligand[:, :3]                                     # (L, 3)
    pro_x, pro_y, pro_z = protein[:, :3].T                      # (P,) each

    for start in range(0, nposes, pose_chunk):
        stop = min(start + pose_chunk, nposes)
        m = transforms[start:stop]                              # (C, 3, 4)
        # Transform ligand atoms: (C, L, 3)
        lpos = np.einsum("cij,lj->cli", m[:, :, :3], lig_xyz) + m[:, None, :, 3]
        # Pairwise distances: (C, L, P), one axis at a time
        dx = lpos[:, :, None, 0] - pro_x
        dy = lpos[:, :, None, 1] - pro_y
        dz = lpos[:, :, None, 2] - pro_z
        dist = np.sqrt(dx * dx + dy * dy + dz * dz)

        etot = np.zeros(stop - start, dtype=np.float64)

        # Steric clash
        zone1 = dist < radij[None, :, :]
        steric = np.where(zone1, (1.0 - dist * r_radij[None, :, :]) * 2.0 * HARDNESS, 0.0)
        etot += steric.sum(axis=(1, 2))

        # Hydrophobic / de-solvation
        dslv = np.where(dist < NPNPDIST,
                        hphb_sum[None, :, :] * (1.0 - dist / NPNPDIST), 0.0)
        etot += dslv.sum(axis=(1, 2))

        # Electrostatics
        chrg = np.where(dist < elcdst[None, :, :],
                        elsc_prod[None, :, :] * (1.0 - dist * elcdst1[None, :, :]) * CNSTNT,
                        0.0)
        chrg = np.where(type_e[None, :, :] & (chrg < 0.0), 0.0, chrg)
        etot += chrg.sum(axis=(1, 2))

        energies[start:stop] = etot * HALF

    return energies.astype(np.float32)


def verify_energies(computed: np.ndarray, expected: np.ndarray, *,
                    rtol: float = 2e-3) -> float:
    """Compare computed pose energies against the *expected* ones.

    Returns the maximum relative error; raises :class:`VerificationError`
    beyond *rtol* (float32 accumulation order differs between the per-thread
    kernel and the vectorised reference, hence the loose default tolerance).
    """
    computed = np.asarray(computed, dtype=np.float32)
    if computed.shape != expected.shape:
        raise VerificationError(
            f"energy array has shape {computed.shape}, expected {expected.shape}"
        )
    scale = np.maximum(np.abs(expected), 1.0)
    err = float(np.max(np.abs(computed - expected) / scale))
    if err > rtol:
        raise VerificationError(
            f"miniBUDE verification failed: max relative error {err:.3e} > {rtol:.1e}",
            max_rel_error=err,
        )
    return err
