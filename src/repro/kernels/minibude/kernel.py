"""The miniBUDE ``fasten`` device kernel (paper Listing 4).

Each thread evaluates the docking energy of ``PPWI`` (poses-per-work-item)
poses: it builds the rigid-body transform of every pose from its six
parameters, transforms the ligand atoms, and accumulates the BUDE energy
terms (steric clash, hydrophobic/de-solvation and electrostatic) over all
ligand-protein atom pairs.

The energy expression is the miniBUDE structure with a simplified
de-solvation term (documented in DESIGN.md); what matters for the paper's
experiments is that the device kernel, the vectorized reference and the
FLOP-count model (Eq. 3) all describe the same arithmetic.
"""

from __future__ import annotations

import numpy as np

from ...core.dtypes import DType
from ...core.intrinsics import (
    any_lane,
    block_dim,
    block_idx,
    compress_lanes,
    lane_where,
    masked_store,
    thread_idx,
)
from ...core.kernel import KernelModel, MemoryPattern, kernel

__all__ = ["fasten_kernel", "fasten_kernel_model",
           "HARDNESS", "NPNPDIST", "CNSTNT", "HBTYPE_F", "HBTYPE_E", "HALF"]

# BUDE forcefield constants (as in the miniBUDE sources)
HARDNESS = 38.0
NPNPDIST = 5.5
CNSTNT = 45.0
HBTYPE_F = 70
HBTYPE_E = 69
HALF = 0.5


@kernel(name="fasten_kernel", strict=True)
def fasten_kernel(ppwi, natlig, natpro, protein, ligand,
                  t0, t1, t2, t3, t4, t5,
                  etotals, forcefield, num_transforms):
    """Evaluate ``ppwi`` poses per thread and write their energies.

    Array arguments are flat tensors following the deck layout: ``protein``
    and ``ligand`` hold 4 floats per atom ``(x, y, z, type)``, ``forcefield``
    holds 4 floats per type ``(hbtype, radius, hphb, elsc)``, ``t0..t5`` are
    the per-pose transform parameters, ``etotals`` receives one energy per
    pose.

    Vector-safe form: only the pose data varies per lane — the deck loops
    (ligand, protein atoms and their forcefield entries) are uniform across
    the lane set — so the per-pair energy conditionals become ``lane_where``
    predication and the tail-thread clamp / final store become per-lane
    selects / masked scatters.
    """
    lsz = block_dim.x
    ix = block_idx.x * lsz * ppwi + thread_idx.x
    ix = lane_where(ix >= num_transforms, num_transforms - ppwi, ix)

    # Build the 3x4 rigid-body transform of each pose handled by this thread.
    transforms = []
    for i in range(ppwi):
        index = ix + i * lsz
        rx = t0[index]
        ry = t1[index]
        rz = t2[index]
        sx, cx = np.sin(rx), np.cos(rx)
        sy, cy = np.sin(ry), np.cos(ry)
        sz, cz = np.sin(rz), np.cos(rz)
        transforms.append((
            (cy * cz, sx * sy * cz - cx * sz, cx * sy * cz + sx * sz, t3[index]),
            (cy * sz, sx * sy * sz + cx * cz, cx * sy * sz - sx * cz, t4[index]),
            (-sy, sx * cy, cx * cy, t5[index]),
        ))

    etot = [0.0] * ppwi

    # Loop over ligand atoms
    for il in range(natlig):
        lx = ligand[il * 4 + 0]
        ly = ligand[il * 4 + 1]
        lz = ligand[il * 4 + 2]
        ltype = int(ligand[il * 4 + 3])
        l_hbtype = forcefield[ltype * 4 + 0]
        l_radius = forcefield[ltype * 4 + 1]
        l_hphb = forcefield[ltype * 4 + 2]
        l_elsc = forcefield[ltype * 4 + 3]

        # Transform the ligand atom for each pose handled by this thread.
        lpos = []
        for i in range(ppwi):
            m = transforms[i]
            lpos.append((
                m[0][0] * lx + m[0][1] * ly + m[0][2] * lz + m[0][3],
                m[1][0] * lx + m[1][1] * ly + m[1][2] * lz + m[1][3],
                m[2][0] * lx + m[2][1] * ly + m[2][2] * lz + m[2][3],
            ))

        # Loop over protein atoms
        for ip in range(natpro):
            px = protein[ip * 4 + 0]
            py = protein[ip * 4 + 1]
            pz = protein[ip * 4 + 2]
            ptype = int(protein[ip * 4 + 3])
            p_hbtype = forcefield[ptype * 4 + 0]
            p_radius = forcefield[ptype * 4 + 1]
            p_hphb = forcefield[ptype * 4 + 2]
            p_elsc = forcefield[ptype * 4 + 3]

            radij = p_radius + l_radius
            r_radij = 1.0 / radij
            elcdst = 4.0 if (p_hbtype == HBTYPE_F and l_hbtype == HBTYPE_F) else 2.0
            elcdst1 = 0.25 if (p_hbtype == HBTYPE_F and l_hbtype == HBTYPE_F) else 0.5
            type_e = (p_hbtype == HBTYPE_E or l_hbtype == HBTYPE_E)

            for i in range(ppwi):
                x, y, z = lpos[i]
                dx = x - px
                dy = y - py
                dz = z - pz
                distij = np.sqrt(dx * dx + dy * dy + dz * dz)

                # Steric clash term
                zone1 = distij < radij
                etot[i] = etot[i] + lane_where(
                    zone1, (1.0 - distij * r_radij) * 2.0 * HARDNESS, 0.0)

                # Hydrophobic / de-solvation term (simplified miniBUDE form)
                dslv = (p_hphb + l_hphb) * (1.0 - distij / NPNPDIST)
                etot[i] = etot[i] + lane_where(distij < NPNPDIST, dslv, 0.0)

                # Electrostatic term
                chrg_e = p_elsc * l_elsc * (1.0 - distij * elcdst1) * CNSTNT
                if type_e:
                    chrg_e = lane_where(chrg_e < 0.0, 0.0, chrg_e)
                etot[i] = etot[i] + lane_where(distij < elcdst, chrg_e, 0.0)

    # Write energy results
    td_base = block_idx.x * lsz * ppwi + thread_idx.x
    in_range = td_base < num_transforms
    if not any_lane(in_range):
        return
    for i in range(ppwi):
        masked_store(etotals, td_base + i * lsz, etot[i] * HALF, in_range)


def fasten_kernel_model(*, ppwi: int, natlig: int, natpro: int,
                        wgsize: int = 64) -> KernelModel:
    """Analytic resource model of the fasten kernel per thread.

    FLOP counts follow the paper's Eq. 3 accounting; the square root per
    ligand-protein pair and the pose-transform trigonometry are tracked
    separately because they are the operations sensitive to fast-math.
    """
    pairs = natlig * natpro * ppwi
    flops = 28.0 * ppwi + natlig * (2.0 + 18.0 * ppwi) + natlig * natpro * (10.0 + 30.0 * ppwi)
    # The deck (ligand + protein + forcefield, ~60 KB for bm1) is read by
    # every thread but stays resident in L2, so DRAM traffic per thread is
    # only the pose transforms and the energy writes.
    return KernelModel(
        name="minibude_fasten",
        dtype=DType.float32,
        loads_global=6.0 * ppwi + 24.0,
        stores_global=float(ppwi),
        flops=max(flops - pairs, 1.0),
        int_ops=10.0 + 6.0 * natlig * natpro,
        divides=float(pairs),          # one sqrt per ligand-protein pair per pose
        transcendentals=12.0 * ppwi,   # sin/cos of the pose angles
        scalar_args=4,
        working_values=10 + 16 * ppwi,
        memory_pattern=MemoryPattern.STRIDE1,
        ilp=float(ppwi),
        notes=f"ppwi={ppwi}, wg={wgsize}, natlig={natlig}, natpro={natpro}",
    )
