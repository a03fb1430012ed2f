"""Out-of-bounds inputs raise in every executor mode.

Bounds checks are decided by the region analysis: a tensor whose accesses
it proves inside the extent runs unchecked, every other access is checked.
These fixtures feed the science kernels inputs the analysis cannot prove
(a miniBUDE ligand atom type of -1 or ``ntypes``, a Schwarz array one pair
short, a stencil field one plane short) through the device programs the
workloads run.  Each must raise :class:`LayoutError` in ``auto``,
``vectorized`` and ``sequential``; ``auto`` runs the lowered code, whose
message must be the ``vectorized`` interpreter's.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.core.device import DeviceContext
from repro.core.errors import LayoutError
from repro.core.layout import Layout
from repro.graphopt import lower_source
from repro.kernels.hartreefock import make_helium_system
from repro.kernels.hartreefock.runner import (compute_schwarz,
                                              enqueue_hartreefock)
from repro.kernels.minibude import make_deck
from repro.kernels.minibude.deck import Deck
from repro.kernels.minibude.runner import enqueue_fasten
from repro.kernels.stencil import StencilProblem
from repro.kernels.stencil.kernel import laplacian_kernel
from repro.kernels.stencil.runner import stencil_launch_config

MODES = ("auto", "vectorized", "sequential")


#: a deck whose ligand x protein nest exceeds the lowering tier's axis
#: budget at 128 poses: the ligand loop runs in chunks of ligand atoms
CHUNKED = {"natlig": 12, "natpro": 32, "nposes": 128}


def _fasten(ligand_type=None, protein_type=None, natlig=6, natpro=24,
            nposes=32):
    """fasten with ligand atom 2 and protein atom 3 of the given types."""
    deck = make_deck(natlig=natlig, natpro=natpro, ntypes=4, nposes=nposes,
                     seed=5)
    ligand, protein = deck.ligand.copy(), deck.protein.copy()
    for atoms, row, kind in ((ligand, 2, ligand_type),
                             (protein, 3, protein_type)):
        if kind is not None:
            atoms[row, 3] = deck.ntypes if kind == "ntypes" else kind
    bad = Deck(protein, ligand, deck.forcefield, deck.poses)
    return lambda ctx, mode: enqueue_fasten(ctx, bad, executor=mode)


def _hartreefock(ctx, mode):
    system = make_helium_system(4, 3, spacing=2.5)
    return enqueue_hartreefock(ctx, system, compute_schwarz(system)[:-1],
                               executor=mode)


def _stencil(ctx, mode, L=8):
    # the runner's launch with a field one z-plane short: u[i, j, k + 1]
    # leaves it on the last interior plane
    problem = StencilProblem(L, "float64")
    u_buf = ctx.enqueue_create_buffer(problem.dtype, L * L * (L - 1),
                                      label="u")
    f_buf = ctx.enqueue_create_buffer(problem.dtype, L ** 3, label="f")
    u_buf.copy_from_host(problem.initial_field()[:, :, :L - 1])
    launch = stencil_launch_config(L, (8, 4, 4))
    ctx.enqueue_function(
        laplacian_kernel, f_buf.tensor(Layout.row_major(L, L, L)),
        u_buf.tensor(Layout.row_major(L, L, L - 1), mut=False), L, L, L,
        *problem.inverse_spacing_squared, grid_dim=launch.grid_dim,
        block_dim=launch.block_dim, mode=mode)
    return f_buf.copy_to_host()


FIXTURES = {
    "fasten-type-minus-1": _fasten(-1),
    "fasten-type-ntypes": _fasten("ntypes"),
    "fasten-chunked-ligand-type-minus-1": _fasten(-1, **CHUNKED),
    "fasten-chunked-protein-type-ntypes": _fasten(None, "ntypes", **CHUNKED),
    "hartreefock-short-schwarz": _hartreefock,
    "stencil-short-field": _stencil,
}


def _lowered_source(program):
    """The generated code ``auto`` runs for the program's one kernel."""
    ctx = DeviceContext("h100")
    with ctx.capture("oob") as graph:
        program(ctx, "auto")
    (op,) = [op for op in graph.ops if op.kind == "kernel"]
    return lower_source(op.meta["kern"], op.meta["args"], op.meta["launch"])


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_out_of_bounds_input_raises_in_every_mode(name):
    program = FIXTURES[name]
    source = _lowered_source(program)
    assert source is not None and "_check_index(" in source
    errors = {}
    for mode in MODES:
        with pytest.raises(LayoutError) as info:
            program(DeviceContext("h100"), mode)
        errors[mode] = str(info.value)
    assert errors["auto"] == errors["vectorized"]
    assert "out of bounds" in errors["sequential"]


#: ``_check_index`` lines in the lowered source of each shipped kernel at
#: the differential launches: one per unproven index variable and extent
CHECKS = {"laplacian_kernel": 0, "copy_kernel": 0, "mul_kernel": 0,
          "add_kernel": 0, "triad_kernel": 0,
          "dot_kernel": 0,             # a[i], b[i] bounded by i < n
          "fasten_kernel": 10,         # 2 pose indices, 8 forcefield rows
          "hartree_fock_kernel": 6}    # ij, kl, i, j, k, l


class _Recorder:
    def __init__(self):
        self.sources = {}

    def launch(self, kern, args, launch, mode=None):
        self.sources[kern.name] = lower_source(kern, args, launch)


def test_unproven_index_values_are_checked_once():
    path = Path(__file__).with_name("test_mode_differential.py")
    spec = importlib.util.spec_from_file_location("mode_differential", path)
    diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff)
    rec = _Recorder()
    for family in ("stencil", "babelstream", "minibude", "hartreefock"):
        diff.CASES[family][0](rec, "auto")
    assert {name: src.count("_check_index(")
            for name, src in rec.sources.items()} == CHECKS


def test_scalar_index_reports_its_value():
    # the forcefield index is one scalar per ligand atom: every mode names
    # the first bad one, as the interpreter's per-iteration read does
    for deck, mode in itertools.product(({}, CHUNKED), MODES):
        with pytest.raises(LayoutError, match=r"^index -4 out of bounds "
                           r"for dimension 0 of extent 16$"):
            _fasten(-1, **deck)(DeviceContext("h100"), mode)


def test_two_bad_types_under_chunking_raise_the_same_error_type():
    # The stated axis-form divergence, per chunk: the interpreter meets the
    # bad protein type first (ligand atom 0), the lowered code checks the
    # forcefield rows of a whole chunk of ligand atoms (atom 2 among them)
    # before any protein row.  Both raise LayoutError, naming a bad index.
    program = _fasten(-1, "ntypes", **CHUNKED)
    source = _lowered_source(program)
    assert "for _chunk" in source and "while" not in source
    errors = {}
    for mode in ("auto", "vectorized"):
        with pytest.raises(LayoutError) as info:
            program(DeviceContext("h100"), mode)
        errors[mode] = str(info.value)
    assert set(errors.values()) <= {
        f"index {i} out of bounds for dimension 0 of extent 16"
        for i in (-4, 16)}


def test_in_bounds_inputs_still_run():
    # the proven-in-bounds path of the same programs is unchanged
    deck = make_deck(natlig=6, natpro=24, ntypes=4, nposes=32, seed=5)
    runs = [enqueue_fasten(DeviceContext("h100"), deck, executor=mode)
            for mode in MODES]
    assert all(np.array_equal(runs[0], r) for r in runs[1:])
