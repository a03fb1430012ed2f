"""miniBUDE in-silico molecular docking workload (compute-bound)."""

from .deck import (
    BM1_NATLIG,
    BM1_NATPRO,
    BM1_NPOSES,
    BM1_NTYPES,
    HBTYPE_E,
    HBTYPE_F,
    Deck,
    make_bm1,
    make_deck,
)
from .kernel import fasten_kernel, fasten_kernel_model
from .metrics import gflops, ops_per_workitem, total_ops
from .reference import reference_energies, verify_energies
from .runner import (
    DEFAULT_PPWI_SWEEP,
    DEFAULT_WGSIZES,
    minibude_launch_config,
    run_fasten_functional,
)

__all__ = [
    "BM1_NATLIG", "BM1_NATPRO", "BM1_NPOSES", "BM1_NTYPES",
    "HBTYPE_E", "HBTYPE_F", "Deck", "make_bm1", "make_deck",
    "fasten_kernel", "fasten_kernel_model",
    "gflops", "ops_per_workitem", "total_ops",
    "reference_energies", "verify_energies",
    "DEFAULT_PPWI_SWEEP", "DEFAULT_WGSIZES",
    "minibude_launch_config", "run_fasten_functional",
]
