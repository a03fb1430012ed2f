"""Helium test systems for the Hartree–Fock proxy kernel.

The paper uses the basic Hartree–Fock proxy app's helium decks (64 to 1024
atoms, 3 or 6 Gaussian primitives per atom).  The original deck files are not
redistributed here; an equivalent generator places helium atoms on a cubic
lattice and attaches standard STO-nG style s-type contractions, which
produces the same computational structure (one contracted s function per
atom, ``ngauss`` primitives each) and realistic Schwarz screening behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ...core.errors import ConfigurationError
from ...core.memo import Memo

__all__ = ["HeSystem", "make_helium_system", "STO3G_HE_EXPONENTS",
           "STO3G_HE_COEFFS", "STO6G_HE_EXPONENTS", "STO6G_HE_COEFFS"]

#: STO-3G helium 1s exponents / contraction coefficients
STO3G_HE_EXPONENTS = (6.36242139, 1.158922999, 0.31364979)
STO3G_HE_COEFFS = (0.15432897, 0.53532814, 0.44463454)

#: STO-6G style helium 1s contraction (hydrogen STO-6G scaled by zeta^2 = 2.0925^2)
_HE_ZETA2 = 2.0925 ** 2
STO6G_HE_EXPONENTS = tuple(a * _HE_ZETA2 for a in (
    35.52322122, 6.513143725, 1.822142904, 0.625955266, 0.243076747, 0.100112428))
STO6G_HE_COEFFS = (0.00916359628, 0.04936149294, 0.16853830490,
                   0.37056279970, 0.41649152980, 0.13033408410)


@dataclass(frozen=True)
class HeSystem:
    """A helium cluster with one contracted s basis function per atom.

    Systems from :func:`make_helium_system` are shared memo entries: their
    arrays are read-only and :attr:`key` records the arguments that built
    them.  A hand-built system has ``key=None``.
    """

    #: atom (and basis function) count
    natoms: int
    #: primitives per contracted function
    ngauss: int
    #: (natoms, 3) positions in bohr
    geometry: np.ndarray
    #: (ngauss,) primitive exponents
    xpnt: np.ndarray
    #: (ngauss,) normalised contraction coefficients
    coef: np.ndarray
    #: (natoms, natoms) initial (symmetric) density matrix
    dens: np.ndarray
    #: ``(natoms, ngauss, spacing, density_decay, seed)`` when built by
    #: :func:`make_helium_system`; not copied by ``dataclasses.replace``
    key: Optional[tuple] = field(default=None, init=False, compare=False,
                                 repr=False)

    def __post_init__(self):
        if self.geometry.shape != (self.natoms, 3):
            raise ConfigurationError(
                f"geometry must have shape ({self.natoms}, 3), got {self.geometry.shape}"
            )
        if self.xpnt.shape != (self.ngauss,) or self.coef.shape != (self.ngauss,):
            raise ConfigurationError("xpnt/coef must have shape (ngauss,)")
        if not np.allclose(self.dens, self.dens.T):
            raise ConfigurationError("density matrix must be symmetric")

    # ------------------------------------------------------------ properties
    @property
    def npairs(self) -> int:
        """Number of unique (i >= j) basis-function pairs."""
        return self.natoms * (self.natoms + 1) // 2

    @property
    def nquads(self) -> int:
        """Number of unique (ij >= kl) pair-of-pair quadruples."""
        n = self.npairs
        return n * (n + 1) // 2

    def pair_distances_sq(self) -> np.ndarray:
        """Squared distances of the unique pairs, ordered by triangular index."""
        i_idx, j_idx = triangular_pairs(self.natoms)
        diff = self.geometry[i_idx] - self.geometry[j_idx]
        return np.einsum("ij,ij->i", diff, diff)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"HeSystem(natoms={self.natoms}, ngauss={self.ngauss})"


def triangular_pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return arrays (i, j) of the unique pairs in triangular-index order.

    The ordering matches :func:`decode_pair`: index ``ij`` corresponds to
    ``i = row(ij)``, ``j = ij - i*(i+1)/2`` with ``i >= j``.
    """
    i_idx, j_idx = np.tril_indices(n)
    return i_idx.astype(np.int64, copy=False), j_idx.astype(np.int64, copy=False)


def normalise_coefficients(xpnt, coef) -> np.ndarray:
    """Fold the s-primitive normalisation constants into the coefficients."""
    xpnt = np.asarray(xpnt, dtype=np.float64)
    coef = np.asarray(coef, dtype=np.float64)
    norm = (2.0 * xpnt / np.pi) ** 0.75
    return coef * norm


#: memo behind :func:`make_helium_system`
HELIUM_MEMO = Memo("helium_system")


def make_helium_system(natoms: int, ngauss: int = 3, *, spacing: float = 3.0,
                       density_decay: float = 0.2,
                       seed: int = 2025) -> HeSystem:
    """Create a helium lattice system.

    The result is memoised on all five arguments (:data:`HELIUM_MEMO`):
    repeated calls return the same :class:`HeSystem`, whose arrays are
    read-only and whose :attr:`~HeSystem.key` is that argument tuple.

    Parameters
    ----------
    natoms:
        Number of helium atoms (64, 128, 256, 1024 in the paper's Table 4).
    ngauss:
        Primitives per contracted function: 3 or 6.
    spacing:
        Lattice spacing in bohr; controls how aggressively Schwarz screening
        prunes distant quadruples.
    density_decay:
        Exponential decay of the off-diagonal density guess with distance.
    seed:
        Seed of the lattice jitter.
    """
    key = (natoms, ngauss, spacing, density_decay, seed)
    return HELIUM_MEMO.get_or_compute(key, lambda: _build_helium_system(key))


def _build_helium_system(key: tuple) -> HeSystem:
    natoms, ngauss, spacing, density_decay, seed = key
    if natoms <= 0:
        raise ConfigurationError("natoms must be positive")
    if ngauss == 3:
        xpnt = np.asarray(STO3G_HE_EXPONENTS)
        coef = np.asarray(STO3G_HE_COEFFS)
    elif ngauss == 6:
        xpnt = np.asarray(STO6G_HE_EXPONENTS)
        coef = np.asarray(STO6G_HE_COEFFS)
    else:
        raise ConfigurationError("ngauss must be 3 or 6")

    # Cubic lattice, filled in order, with a small deterministic jitter so no
    # two pair distances are exactly equal (mirrors a relaxed cluster).
    edge = int(np.ceil(natoms ** (1.0 / 3.0)))
    idx = np.arange(natoms)
    coords = np.stack([idx % edge, (idx // edge) % edge, idx // (edge * edge)],
                      axis=1)
    geometry = coords.astype(np.float64) * spacing
    rng = np.random.default_rng(seed)
    geometry += rng.uniform(-0.05, 0.05, size=geometry.shape) * spacing

    # Closed-shell helium guess: 2 electrons in the 1s orbital of each atom,
    # with an exponentially decaying off-diagonal bond order.
    diff = geometry[:, None, :] - geometry[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dens = 2.0 * np.exp(-density_decay * dist)
    dens = 0.5 * (dens + dens.T)

    system = HeSystem(
        natoms=natoms,
        ngauss=ngauss,
        geometry=geometry,
        xpnt=xpnt.astype(np.float64),
        coef=normalise_coefficients(xpnt, coef),
        dens=dens,
    )
    object.__setattr__(system, "key", key)
    return system
