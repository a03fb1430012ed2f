"""The four science workloads evaluated in the paper.

* :mod:`repro.kernels.stencil` — seven-point Laplacian stencil (memory-bound)
* :mod:`repro.kernels.babelstream` — BabelStream Copy/Mul/Add/Triad/Dot (memory-bound)
* :mod:`repro.kernels.minibude` — miniBUDE ``fasten`` docking kernel (compute-bound)
* :mod:`repro.kernels.hartreefock` — Hartree–Fock ERI kernel (compute-bound + atomics)

Each subpackage is imported on first access (:mod:`repro._lazy`), so a
command that runs one kernel does not import the other three.
"""

from .._lazy import lazy_exports

__all__ = ["stencil", "babelstream", "minibude", "hartreefock"]

__getattr__, __dir__ = lazy_exports(__name__, {}, submodules=__all__)
