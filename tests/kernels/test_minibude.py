"""Tests for the miniBUDE workload."""

import hashlib

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.kernels.minibude import (
    BM1_NATLIG,
    BM1_NATPRO,
    BM1_NPOSES,
    Deck,
    fasten_kernel_model,
    gflops,
    make_bm1,
    make_deck,
    minibude_launch_config,
    ops_per_workitem,
    reference_energies,
    run_fasten_functional,
    total_ops,
    verify_energies,
)
from repro.workloads import get_workload


def bench(backend, gpu, *, fast_math=False, verify=False, **params):
    """One miniBUDE run (bm1 shape) through the workload API."""
    workload = get_workload("minibude")
    return workload.run(workload.make_request(
        backend=backend, gpu=gpu, fast_math=fast_math, verify=verify,
        params=params))


class TestDeck:
    def test_bm1_dimensions(self):
        deck = make_bm1(nposes=1024)
        assert deck.natlig == BM1_NATLIG == 26
        assert deck.natpro == BM1_NATPRO == 938
        assert deck.nposes == 1024

    def test_default_bm1_pose_count(self):
        assert BM1_NPOSES == 65536

    def test_deck_reproducible(self):
        a = make_deck(natlig=4, natpro=8, ntypes=4, nposes=16, seed=3)
        b = make_deck(natlig=4, natpro=8, ntypes=4, nposes=16, seed=3)
        np.testing.assert_array_equal(a.protein, b.protein)
        np.testing.assert_array_equal(a.poses, b.poses)

    def test_deck_seed_changes_data(self):
        a = make_deck(natlig=4, natpro=8, ntypes=4, nposes=16, seed=1)
        b = make_deck(natlig=4, natpro=8, ntypes=4, nposes=16, seed=2)
        assert not np.array_equal(a.poses, b.poses)

    def test_atom_types_within_range(self):
        deck = make_deck(natlig=8, natpro=16, ntypes=5, nposes=4)
        assert deck.ligand[:, 3].max() < 5
        assert deck.protein[:, 3].min() >= 0

    def test_flattened_layouts(self):
        deck = make_deck(natlig=3, natpro=5, ntypes=4, nposes=8)
        assert deck.protein_flat().shape == (20,)
        assert deck.ligand_flat().shape == (12,)
        assert deck.forcefield_flat().shape == (16,)
        assert len(deck.transforms()) == 6
        assert deck.transforms()[0].shape == (8,)

    def test_subset(self):
        deck = make_deck(natlig=3, natpro=5, ntypes=4, nposes=32)
        sub = deck.subset(8)
        assert sub.nposes == 8
        np.testing.assert_array_equal(sub.poses, deck.poses[:, :8])

    def test_subset_invalid(self):
        deck = make_deck(natlig=3, natpro=5, ntypes=4, nposes=8)
        with pytest.raises(ConfigurationError):
            deck.subset(100)

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            Deck(protein=np.zeros((4, 3)), ligand=np.zeros((4, 4)),
                 forcefield=np.zeros((2, 4)), poses=np.zeros((6, 4)))
        with pytest.raises(ConfigurationError):
            make_deck(natlig=0, natpro=8, ntypes=4, nposes=4)


class TestEnergyMetric:
    def test_eq3_ops_per_workitem(self):
        # direct transcription of Eq. 3
        ppwi, natlig, natpro = 4, 26, 938
        expected = 28 * ppwi + natlig * (2 + 18 * ppwi + natpro * (10 + 30 * ppwi))
        assert ops_per_workitem(ppwi, natlig, natpro) == expected

    def test_total_ops_scales_with_poses(self):
        assert total_ops(2, 26, 938, 1024) == pytest.approx(
            ops_per_workitem(2, 26, 938) * 512)

    def test_gflops(self):
        ops = total_ops(1, 26, 938, 65536)
        assert gflops(1, 26, 938, 65536, 1.0) == pytest.approx(ops * 1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            ops_per_workitem(0, 26, 938)
        with pytest.raises(ConfigurationError):
            gflops(1, 26, 938, 65536, 0.0)


class TestDeviceKernelVsReference:
    def test_small_deck_matches_reference(self, ctx):
        deck = make_deck(natlig=6, natpro=20, ntypes=8, nposes=32, seed=11)
        energies, err = run_fasten_functional(ctx, deck, ppwi=2, wgsize=8)
        assert err < 2e-3
        assert energies.shape == (32,)
        assert np.any(energies != 0.0)

    def test_ppwi_does_not_change_energies(self, ctx):
        deck = make_deck(natlig=4, natpro=12, ntypes=6, nposes=16, seed=5)
        e1, _ = run_fasten_functional(ctx, deck, ppwi=1, wgsize=4)
        e2, _ = run_fasten_functional(ctx, deck, ppwi=4, wgsize=4)
        np.testing.assert_allclose(e1, e2, rtol=1e-5)

    def test_reference_energies_deterministic(self):
        deck = make_deck(natlig=4, natpro=12, ntypes=6, nposes=16, seed=5)
        np.testing.assert_array_equal(reference_energies(deck),
                                      reference_energies(deck))

    def test_verify_energies_detects_corruption(self):
        deck = make_deck(natlig=4, natpro=12, ntypes=6, nposes=16, seed=5)
        energies = reference_energies(deck)
        energies[3] += 100.0
        with pytest.raises(Exception):
            verify_energies(energies, reference_energies(deck))

    # sha256 of the float32 energies: the host reference keeps these exact
    # bits, also on a deck whose 300 poses span two pose chunks
    @pytest.mark.parametrize("dims,digest", [
        (dict(natlig=8, natpro=32, ntypes=64, nposes=64, seed=2025),
         "5e76b818bffe745a8da59b8aba88ada9d1e0f22bdb6eb3334ced3af3155a6198"),
        (dict(natlig=4, natpro=12, ntypes=6, nposes=16, seed=5),
         "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"),
        (dict(natlig=8, natpro=64, ntypes=64, nposes=300, seed=7),
         "44293a0a8b676e6af3dc85ab82ccaa8b4185411d98e3bbf4ac879e21d2e8f3ca"),
        (dict(natlig=26, natpro=938, ntypes=64, nposes=32, seed=2025),
         "9b68895665153ec3fa1fc19a0b6989c09632058d3f483c87c4433338f4c6d3be"),
    ])
    def test_reference_energies_are_bitwise_pinned(self, dims, digest):
        energies = reference_energies(make_deck(**dims))
        assert hashlib.sha256(energies.tobytes()).hexdigest() == digest

    def test_reference_chunking_invariance(self):
        deck = make_deck(natlig=4, natpro=12, ntypes=6, nposes=64, seed=5)
        np.testing.assert_allclose(reference_energies(deck, pose_chunk=7),
                                   reference_energies(deck, pose_chunk=64),
                                   rtol=1e-12)


class TestLaunchAndModel:
    def test_launch_config(self):
        launch = minibude_launch_config(65536, 4, 64)
        assert launch.total_threads == 65536 // 4
        assert launch.threads_per_block == 64

    def test_launch_requires_divisibility(self):
        with pytest.raises(ConfigurationError):
            minibude_launch_config(100, 3, 8)

    def test_model_scales_with_ppwi(self):
        m1 = fasten_kernel_model(ppwi=1, natlig=26, natpro=938)
        m8 = fasten_kernel_model(ppwi=8, natlig=26, natpro=938)
        assert m8.flops > 5 * m1.flops
        assert m8.working_values > m1.working_values
        assert m8.ilp == 8

    def test_model_is_compute_heavy(self):
        m = fasten_kernel_model(ppwi=2, natlig=26, natpro=938)
        assert m.arithmetic_intensity() > 100


class TestRunner:
    def test_run_minibude_basic(self):
        res = bench("cuda", "h100", ppwi=2, wgsize=64, fast_math=True)
        assert res.primary_value > 0
        assert res.request.fast_math is True
        assert "fast-math" in " ".join(res.timing["kernel"].notes)
        assert res.request.params["nposes"] == 65536

    def test_fast_math_improves_cuda(self):
        fm = bench("cuda", "h100", ppwi=2, wgsize=64, fast_math=True)
        nofm = bench("cuda", "h100", ppwi=2, wgsize=64)
        assert fm.primary_value > nofm.primary_value

    def test_mojo_between_cuda_variants_on_h100(self):
        mojo = bench("mojo", "h100", ppwi=2, wgsize=64)
        fm = bench("cuda", "h100", ppwi=2, wgsize=64, fast_math=True)
        nofm = bench("cuda", "h100", ppwi=2, wgsize=64)
        assert nofm.primary_value <= mojo.primary_value <= fm.primary_value

    def test_mojo_below_hip_on_mi300a(self):
        mojo = bench("mojo", "mi300a", ppwi=2, wgsize=64)
        hip = bench("hip", "mi300a", ppwi=2, wgsize=64)
        assert mojo.primary_value < hip.primary_value

    def test_wg64_beats_wg8(self):
        wg8 = bench("cuda", "h100", ppwi=2, wgsize=8, fast_math=True)
        wg64 = bench("cuda", "h100", ppwi=2, wgsize=64, fast_math=True)
        assert wg64.primary_value > wg8.primary_value

    def test_throughput_rises_then_falls_with_ppwi(self):
        values = [bench("cuda", "h100", ppwi=p, wgsize=64,
                        fast_math=True).primary_value
                  for p in (1, 8, 128)]
        assert values[1] > values[0]          # ILP gain
        assert values[2] < values[1]          # register-pressure loss

    def test_run_with_functional_verification(self):
        res = bench("mojo", "h100", ppwi=2, wgsize=8, verify=True,
                    verify_poses=16)
        assert res.verification.ran and res.verification.passed
        assert res.verification.max_rel_error < 2e-3

    def test_default_deck_is_not_generated(self, monkeypatch):
        """Only the bm1 shape enters the model: the run generates no
        full-size deck, and its GFLOP/s are those of a generated bm1 deck's
        shape."""
        deck = make_bm1(4096, seed=11)
        check = Deck.__post_init__

        def only_verify_decks(deck):
            assert deck.nposes == 16, "a full-size deck was generated"
            check(deck)

        monkeypatch.setattr(Deck, "__post_init__", only_verify_decks)
        res = bench("mojo", "h100", ppwi=4, wgsize=64, verify=True,
                    verify_poses=16, seed=11, nposes=4096)
        assert res.verification.passed
        assert res.primary_value == gflops(
            4, deck.natlig, deck.natpro, deck.nposes,
            res.timing["kernel"].kernel_time_s)

    def test_non_positive_pose_count_rejected(self):
        with pytest.raises(ConfigurationError):
            bench("mojo", "h100", nposes=0)
