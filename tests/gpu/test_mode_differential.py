"""Differential execution: every shipped kernel in every executor mode.

The verify-path launches of the four science kernels (stencil, the five
BabelStream kernels, miniBUDE's fasten and the Hartree–Fock ERI kernel) run
on small seeded inputs in ``auto``, ``lowered``, ``vectorized`` and the
scalar mode each kernel needs.  Outputs must be bitwise equal and the
:class:`~repro.gpu.executor.ExecutionCounters` identical; ``auto`` (and its
alias ``lowered``) must report the tier that actually ran.

The one stated tolerance: the Hartree–Fock kernel's scalar path evaluates
the Boys function with ``math.erf`` per thread where the lane path uses a
vectorised erf, so its sequential Fock matrix agrees to ``SCALAR_ERF_RTOL``
relative (measured ~1e-15) rather than bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dtypes import DType
from repro.core.kernel import LaunchConfig
from repro.core.layout import Layout, LayoutTensor
from repro.gpu.executor import KernelExecutor
from repro.kernels.babelstream.kernels import (
    SCALAR,
    add_kernel,
    copy_kernel,
    dot_kernel,
    mul_kernel,
    triad_kernel,
)
from repro.kernels.hartreefock import make_helium_system
from repro.kernels.hartreefock.kernel import hartree_fock_kernel
from repro.kernels.hartreefock.runner import compute_schwarz
from repro.kernels.minibude import make_deck
from repro.kernels.minibude.kernel import fasten_kernel
from repro.kernels.minibude.runner import minibude_launch_config
from repro.kernels.stencil import StencilProblem
from repro.kernels.stencil.kernel import laplacian_kernel
from repro.kernels.stencil.runner import stencil_launch_config

MODES = ("auto", "lowered", "vectorized", "sequential")
#: Hartree–Fock scalar-vs-lane tolerance (``math.erf`` vs vectorised erf)
SCALAR_ERF_RTOL = 1e-13


def _tensor(data, shape=None, dtype=DType.float64, mut=True):
    flat = np.array(data, dtype=dtype.to_numpy()).reshape(-1)
    layout = Layout.row_major(*(shape or (flat.size,)))
    return LayoutTensor(dtype, layout, flat, mut=mut, bounds_check=False)


def _stencil(ex, mode):
    L = 12
    problem = StencilProblem(L, "float64")
    u = _tensor(problem.initial_field(), (L, L, L), mut=False)
    f = _tensor(np.zeros(L ** 3), (L, L, L))
    res = ex.launch(laplacian_kernel,
                    (f, u, L, L, L, *problem.inverse_spacing_squared),
                    stencil_launch_config(L, (8, 4, 4)), mode=mode)
    return {"f": f.ptr}, {"laplacian_kernel": res}


def _babelstream(ex, mode):
    n, tb, blocks = 1000, 64, 4                  # n % tb != 0: tail guard
    rng = np.random.default_rng(13)
    a, b, c = (_tensor(rng.normal(size=n)) for _ in range(3))
    sums = _tensor(np.zeros(blocks))
    launch = LaunchConfig.for_elements(n, tb)
    results = {}
    for kern, args in ((copy_kernel, (a, c, n)),
                       (mul_kernel, (b, c, SCALAR, n)),
                       (add_kernel, (a, b, c, n)),
                       (triad_kernel, (a, b, c, SCALAR, n))):
        results[kern.name] = ex.launch(kern, args, launch, mode=mode)
    # Dot synchronises through shared memory: its scalar mode is the
    # cooperative pool, exactly as the BabelStream runner maps it.
    results["dot_kernel"] = ex.launch(
        dot_kernel, (a, b, sums, n, tb), LaunchConfig.make(blocks, tb),
        mode="cooperative" if mode == "sequential" else mode)
    return {"a": a.ptr, "b": b.ptr, "c": c.ptr, "sums": sums.ptr}, results


def _fasten(ex, mode):
    deck = make_deck(natlig=6, natpro=24, ntypes=4, nposes=32, seed=5)
    f32 = DType.float32
    etotals = _tensor(np.zeros(deck.nposes), dtype=f32)
    args = (2, deck.natlig, deck.natpro,
            _tensor(deck.protein_flat(), dtype=f32),
            _tensor(deck.ligand_flat(), dtype=f32),
            *(_tensor(t, dtype=f32) for t in deck.transforms()),
            etotals, _tensor(deck.forcefield_flat(), dtype=f32), deck.nposes)
    res = ex.launch(fasten_kernel, args,
                    minibude_launch_config(deck.nposes, 2, 8), mode=mode)
    return {"etotals": etotals.ptr}, {"fasten_kernel": res}


def _eri(ex, mode):
    system = make_helium_system(4, 3, spacing=2.5)
    n = system.natoms
    schwarz = compute_schwarz(system)
    fock = _tensor(np.zeros((n, n)), (n, n))
    args = (system.ngauss, n, system.nquads, _tensor(schwarz), 0.0,
            _tensor(system.xpnt), _tensor(system.coef),
            _tensor(system.geometry, (n, 3)), _tensor(system.dens, (n, n)),
            fock)
    res = ex.launch(hartree_fock_kernel, args,
                    LaunchConfig.for_elements(system.nquads, 16), mode=mode)
    return {"fock": fock.ptr}, {"hartree_fock_kernel": res}


#: kernel family -> (driver, the tier ``auto`` must pick per kernel)
CASES = {
    "stencil": (_stencil, {"laplacian_kernel": "lowered"}),
    "babelstream": (_babelstream, {"copy_kernel": "lowered",
                                   "mul_kernel": "lowered",
                                   "add_kernel": "lowered",
                                   "triad_kernel": "lowered",
                                   "dot_kernel": "vectorized"}),
    "minibude": (_fasten, {"fasten_kernel": "vectorized"}),
    "hartreefock": (_eri, {"hartree_fock_kernel": "vectorized"}),
}


@pytest.mark.parametrize("family", sorted(CASES))
def test_modes_agree_bitwise_with_identical_counters(family):
    driver, auto_tiers = CASES[family]
    runs = {mode: driver(KernelExecutor(), mode) for mode in MODES}
    ref_out, ref_res = runs["vectorized"]
    for mode in MODES:
        outputs, results = runs[mode]
        for label, expected in ref_out.items():
            assert np.any(expected != 0.0), label
            if family == "hartreefock" and mode == "sequential":
                np.testing.assert_allclose(outputs[label], expected,
                                           rtol=SCALAR_ERF_RTOL, atol=0.0)
            else:
                assert np.array_equal(outputs[label], expected), (mode, label)
        for name, res in results.items():
            assert res.counters.as_dict() == \
                ref_res[name].counters.as_dict(), (mode, name)
    for mode in ("auto", "lowered"):
        ran = {name: res.mode for name, res in runs[mode][1].items()}
        assert ran == auto_tiers, mode
    assert {res.mode for res in runs["vectorized"][1].values()} \
        == {"vectorized"}
