"""Hartree–Fock two-electron Fock build (compute-bound with atomics)."""

from .basis import (
    HeSystem,
    STO3G_HE_COEFFS,
    STO3G_HE_EXPONENTS,
    STO6G_HE_COEFFS,
    STO6G_HE_EXPONENTS,
    make_helium_system,
    triangular_pairs,
)
from .eri import (
    boys_f0,
    boys_f0_array,
    contracted_eri,
    contracted_eri_batch,
    pair_schwarz,
)
from .kernel import (
    SCHWARZ_TOLERANCE,
    decode_pair,
    decode_pair_array,
    hartree_fock_kernel,
    hartree_fock_kernel_model,
)
from .reference import (
    eri_tensor,
    fock_direct_reference,
    fock_quadruple_reference,
    symmetrize,
    verify_fock,
)
from .runner import (
    compute_schwarz,
    run_hartreefock_functional,
    surviving_quadruple_fraction,
)

__all__ = [
    "HeSystem", "STO3G_HE_COEFFS", "STO3G_HE_EXPONENTS", "STO6G_HE_COEFFS",
    "STO6G_HE_EXPONENTS", "make_helium_system", "triangular_pairs",
    "boys_f0", "boys_f0_array", "contracted_eri", "contracted_eri_batch",
    "pair_schwarz",
    "SCHWARZ_TOLERANCE", "decode_pair", "decode_pair_array",
    "hartree_fock_kernel", "hartree_fock_kernel_model",
    "eri_tensor", "fock_direct_reference", "fock_quadruple_reference",
    "symmetrize", "verify_fock",
    "compute_schwarz", "run_hartreefock_functional",
    "surviving_quadruple_fraction",
]
