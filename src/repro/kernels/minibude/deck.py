"""Synthetic miniBUDE input decks.

The paper uses miniBUDE's ``bm1`` benchmark deck: 26 ligand atoms, 938
protein atoms, 65,536 poses.  The original deck ships binary files with the
Bristol docking engine; here an equivalent synthetic deck with the same
shapes and physically plausible value ranges is generated from a seeded RNG
(documented substitution — the arithmetic exercised per atom pair is
identical, only the literal coordinates differ).

Atom records follow the paper's flattened layout workaround: each atom is four
``float32`` values ``(x, y, z, type)`` with the type cast back to an integer
inside the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ...core.errors import ConfigurationError

__all__ = ["Deck", "make_deck", "make_bm1", "BM1_NATLIG", "BM1_NATPRO",
           "BM1_NPOSES", "BM1_NTYPES", "HBTYPE_F", "HBTYPE_E"]

#: bm1 deck dimensions from the miniBUDE distribution
BM1_NATLIG = 26
BM1_NATPRO = 938
BM1_NPOSES = 65536
BM1_NTYPES = 64

#: hydrogen-bond type codes used by the BUDE forcefield
HBTYPE_F = 70
HBTYPE_E = 69
HBTYPE_N = 0


@dataclass
class Deck:
    """One miniBUDE input deck.

    Attributes
    ----------
    protein, ligand:
        ``(natoms, 4)`` float32 arrays of ``(x, y, z, type_index)``.
    forcefield:
        ``(ntypes, 4)`` float32 array of ``(hbtype, radius, hphb, elsc)``.
    poses:
        ``(6, nposes)`` float32 array of pose transforms: three rotation
        angles followed by three translations.
    key:
        ``(natlig, natpro, ntypes, nposes, seed)`` when built by
        :func:`make_deck`, whose arrays are read-only; None for a
        hand-built or :meth:`subset` deck.
    """

    protein: np.ndarray
    ligand: np.ndarray
    forcefield: np.ndarray
    poses: np.ndarray
    name: str = "synthetic"
    key: Optional[tuple] = field(default=None, init=False, compare=False,
                                 repr=False)

    def __post_init__(self):
        for label, arr, cols in (("protein", self.protein, 4),
                                 ("ligand", self.ligand, 4),
                                 ("forcefield", self.forcefield, 4)):
            if arr.ndim != 2 or arr.shape[1] != cols:
                raise ConfigurationError(
                    f"{label} array must have shape (n, {cols}), got {arr.shape}"
                )
        if self.poses.ndim != 2 or self.poses.shape[0] != 6:
            raise ConfigurationError(
                f"poses array must have shape (6, nposes), got {self.poses.shape}"
            )

    # ------------------------------------------------------------ properties
    @property
    def natlig(self) -> int:
        return self.ligand.shape[0]

    @property
    def natpro(self) -> int:
        return self.protein.shape[0]

    @property
    def ntypes(self) -> int:
        return self.forcefield.shape[0]

    @property
    def nposes(self) -> int:
        return self.poses.shape[1]

    # ------------------------------------------------------------- flattened
    def protein_flat(self) -> np.ndarray:
        """Protein atoms as a flat float32 array (4 values per atom)."""
        return np.ascontiguousarray(self.protein, dtype=np.float32).reshape(-1)

    def ligand_flat(self) -> np.ndarray:
        """Ligand atoms as a flat float32 array (4 values per atom)."""
        return np.ascontiguousarray(self.ligand, dtype=np.float32).reshape(-1)

    def forcefield_flat(self) -> np.ndarray:
        """Forcefield records as a flat float32 array (4 values per type)."""
        return np.ascontiguousarray(self.forcefield, dtype=np.float32).reshape(-1)

    def transforms(self) -> Tuple[np.ndarray, ...]:
        """The six per-pose transform arrays (``transforms_0`` ... ``transforms_5``)."""
        return tuple(np.ascontiguousarray(self.poses[i], dtype=np.float32)
                     for i in range(6))

    def subset(self, nposes: int) -> "Deck":
        """A deck with only the first *nposes* poses (for reduced runs)."""
        if nposes <= 0 or nposes > self.nposes:
            raise ConfigurationError(
                f"cannot take {nposes} poses from a deck with {self.nposes}"
            )
        return Deck(self.protein, self.ligand, self.forcefield,
                    self.poses[:, :nposes].copy(), name=f"{self.name}[{nposes}]")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Deck({self.name}: natlig={self.natlig}, natpro={self.natpro}, "
                f"ntypes={self.ntypes}, nposes={self.nposes})")


def make_deck(*, natlig: int, natpro: int, ntypes: int, nposes: int,
              seed: int = 2025, name: str = "synthetic") -> Deck:
    """Generate a synthetic deck with the given dimensions.

    The deck's arrays are read-only and its :attr:`~Deck.key` records the
    dimensions and seed that determine them (not *name*).
    """
    if min(natlig, natpro, ntypes, nposes) <= 0:
        raise ConfigurationError("all deck dimensions must be positive")
    rng = np.random.default_rng(seed)

    # Ligand atoms in a small ball around the origin (a drug-like molecule).
    lig_pos = rng.normal(0.0, 2.0, size=(natlig, 3))
    lig_type = rng.integers(0, ntypes, size=(natlig, 1))
    ligand = np.concatenate([lig_pos, lig_type], axis=1).astype(np.float32)

    # Protein atoms fill a binding-site-sized box.
    pro_pos = rng.uniform(-20.0, 20.0, size=(natpro, 3))
    pro_type = rng.integers(0, ntypes, size=(natpro, 1))
    protein = np.concatenate([pro_pos, pro_type], axis=1).astype(np.float32)

    # Forcefield records: (hbtype, radius, hphb, elsc).
    hbtype = rng.choice([HBTYPE_N, HBTYPE_E, HBTYPE_F], size=ntypes,
                        p=[0.6, 0.2, 0.2]).astype(np.float32)
    radius = rng.uniform(1.0, 2.5, size=ntypes).astype(np.float32)
    hphb = rng.uniform(-1.0, 1.0, size=ntypes).astype(np.float32)
    hphb[rng.random(ntypes) < 0.25] = 0.0
    elsc = rng.choice([0.0, 0.5, -0.5, 1.0], size=ntypes).astype(np.float32)
    forcefield = np.stack([hbtype, radius, hphb, elsc], axis=1)

    # Poses: three Euler angles and three translations per pose.
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(3, nposes))
    trans = rng.uniform(-5.0, 5.0, size=(3, nposes))
    poses = np.concatenate([angles, trans], axis=0).astype(np.float32)

    deck = Deck(protein=protein, ligand=ligand, forcefield=forcefield,
                poses=poses, name=name)
    for array in (protein, ligand, forcefield, poses):
        array.flags.writeable = False
    deck.key = (natlig, natpro, ntypes, nposes, seed)
    return deck


def make_bm1(nposes: int = BM1_NPOSES, *, seed: int = 2025) -> Deck:
    """The bm1-shaped deck (26 ligand atoms, 938 protein atoms)."""
    return make_deck(natlig=BM1_NATLIG, natpro=BM1_NATPRO, ntypes=BM1_NTYPES,
                     nposes=nposes, seed=seed, name="bm1")
