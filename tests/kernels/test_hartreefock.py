"""Tests for the Hartree-Fock workload."""

import math

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, VerificationError
from repro.kernels.hartreefock import (
    SCHWARZ_TOLERANCE,
    boys_f0,
    boys_f0_array,
    compute_schwarz,
    contracted_eri,
    contracted_eri_batch,
    decode_pair,
    decode_pair_array,
    eri_tensor,
    fock_direct_reference,
    fock_quadruple_reference,
    hartree_fock_kernel_model,
    make_helium_system,
    pair_schwarz,
    run_hartreefock_functional,
    surviving_quadruple_fraction,
    symmetrize,
    triangular_pairs,
    verify_fock,
)
from repro.workloads import get_workload


def bench(backend, gpu, *, verify=False, **params):
    """One Hartree-Fock run through the workload API."""
    workload = get_workload("hartreefock")
    return workload.run(workload.make_request(
        backend=backend, gpu=gpu, verify=verify, params=params))
from repro.kernels.hartreefock.eri import schwarz_identical_basis


class TestBasis:
    def test_system_shapes(self):
        s = make_helium_system(8, 3)
        assert s.geometry.shape == (8, 3)
        assert s.xpnt.shape == (3,)
        assert s.dens.shape == (8, 8)

    def test_ngauss6(self):
        assert make_helium_system(4, 6).ngauss == 6

    def test_invalid_ngauss(self):
        with pytest.raises(ConfigurationError):
            make_helium_system(4, 5)

    def test_invalid_natoms(self):
        with pytest.raises(ConfigurationError):
            make_helium_system(0, 3)

    def test_density_symmetric_with_occupied_diagonal(self):
        s = make_helium_system(6, 3)
        np.testing.assert_allclose(s.dens, s.dens.T)
        np.testing.assert_allclose(np.diag(s.dens), 2.0)

    def test_pair_and_quad_counts(self):
        s = make_helium_system(8, 3)
        assert s.npairs == 36
        assert s.nquads == 36 * 37 // 2

    def test_geometry_reproducible(self):
        a = make_helium_system(8, 3, seed=1)
        b = make_helium_system(8, 3, seed=1)
        np.testing.assert_array_equal(a.geometry, b.geometry)

    def test_spacing_controls_extent(self):
        near = make_helium_system(8, 3, spacing=2.0)
        far = make_helium_system(8, 3, spacing=6.0)
        assert far.pair_distances_sq().max() > near.pair_distances_sq().max()


class TestTriangularIndexing:
    def test_decode_roundtrip(self):
        idx = 0
        for row in range(25):
            for col in range(row + 1):
                assert decode_pair(idx) == (row, col)
                idx += 1

    def test_triangular_pairs_ordering_matches_decode(self):
        i_idx, j_idx = triangular_pairs(10)
        for ij in range(len(i_idx)):
            assert decode_pair(ij) == (i_idx[ij], j_idx[ij])

    def test_large_indices(self):
        # triangle boundaries are where naive float decoding goes wrong
        for row in (1000, 4095, 65535):
            base = row * (row + 1) // 2
            assert decode_pair(base) == (row, 0)
            assert decode_pair(base + row) == (row, row)


class TestBoysFunction:
    def test_at_zero(self):
        assert boys_f0(0.0) == pytest.approx(1.0)

    def test_small_argument_expansion(self):
        assert boys_f0(1e-14) == pytest.approx(1.0, abs=1e-10)

    def test_large_argument_decay(self):
        assert boys_f0(100.0) == pytest.approx(0.5 * math.sqrt(math.pi / 100.0),
                                               rel=1e-10)

    def test_monotonically_decreasing(self):
        values = [boys_f0(t) for t in (0.0, 0.1, 1.0, 10.0, 100.0)]
        assert values == sorted(values, reverse=True)

    def test_array_matches_scalar(self):
        ts = np.array([0.0, 1e-13, 0.5, 3.0, 50.0])
        np.testing.assert_allclose(boys_f0_array(ts),
                                   [boys_f0(t) for t in ts], rtol=1e-14)


class TestERI:
    def _system(self, natoms=2):
        return make_helium_system(natoms, 3, spacing=2.0)

    def test_same_centre_positive(self):
        s = self._system()
        val = contracted_eri(s.geometry[0], s.geometry[0], s.geometry[0],
                             s.geometry[0], s.xpnt, s.coef)
        assert val > 0

    def test_decay_with_distance(self):
        s = make_helium_system(4, 3, spacing=4.0)
        near = contracted_eri(s.geometry[0], s.geometry[0], s.geometry[0],
                              s.geometry[0], s.xpnt, s.coef)
        far = contracted_eri(s.geometry[0], s.geometry[3], s.geometry[0],
                             s.geometry[3], s.xpnt, s.coef)
        assert far < near

    def test_permutation_symmetries(self):
        s = make_helium_system(4, 3, spacing=2.0)
        g = s.geometry
        base = contracted_eri(g[0], g[1], g[2], g[3], s.xpnt, s.coef)
        assert contracted_eri(g[1], g[0], g[2], g[3], s.xpnt, s.coef) == pytest.approx(base, rel=1e-12)
        assert contracted_eri(g[0], g[1], g[3], g[2], s.xpnt, s.coef) == pytest.approx(base, rel=1e-12)
        assert contracted_eri(g[2], g[3], g[0], g[1], s.xpnt, s.coef) == pytest.approx(base, rel=1e-12)

    def test_schwarz_inequality(self):
        """|(ij|kl)| <= sqrt((ij|ij)) * sqrt((kl|kl)) for sampled quadruples."""
        s = make_helium_system(5, 3, spacing=2.5)
        g = s.geometry
        for (i, j, k, l) in ((0, 1, 2, 3), (0, 0, 1, 2), (1, 3, 2, 4)):
            lhs = abs(contracted_eri(g[i], g[j], g[k], g[l], s.xpnt, s.coef))
            sij = math.sqrt(contracted_eri(g[i], g[j], g[i], g[j], s.xpnt, s.coef))
            skl = math.sqrt(contracted_eri(g[k], g[l], g[k], g[l], s.xpnt, s.coef))
            assert lhs <= sij * skl * (1 + 1e-10)

    def test_pair_schwarz_matches_direct(self):
        s = make_helium_system(4, 3, spacing=2.5)
        pair_i, pair_j = triangular_pairs(4)
        bounds = pair_schwarz(s.geometry, pair_i, pair_j, s.xpnt, s.coef)
        for ij in range(len(pair_i)):
            i, j = pair_i[ij], pair_j[ij]
            direct = math.sqrt(contracted_eri(s.geometry[i], s.geometry[j],
                                              s.geometry[i], s.geometry[j],
                                              s.xpnt, s.coef))
            assert bounds[ij] == pytest.approx(direct, rel=1e-13)

    @pytest.mark.parametrize("natoms, digest", [
        (4, "753c09830cbd6822cf9b7e428ce59f3c4a883a4d28520ae87c8256d7f8eac1e2"),
        (32, "1297bb52d5379ee623cc27abbdeaf1df287aeb5843e3ca967df364f586213d44"),
        (96, "efd20cc80605a01e405f61bc0dbb37fdff5b4f72cb9f6ff66236c8b473e9ca56"),
    ])
    def test_pair_schwarz_bits_are_pinned(self, natoms, digest):
        # sha256 of the bounds' bytes as computed with a fresh temporary
        # per primitive quartet; the reused buffers must not move a bit
        import hashlib

        s = make_helium_system(natoms, 3)
        pair_i, pair_j = triangular_pairs(natoms)
        for chunk in (8192, 1000):
            bounds = pair_schwarz(s.geometry, pair_i, pair_j, s.xpnt, s.coef,
                                  chunk=chunk)
            assert hashlib.sha256(bounds.tobytes()).hexdigest() == digest

    def test_interpolated_schwarz_matches_exact(self):
        s = make_helium_system(6, 3, spacing=2.5)
        exact = compute_schwarz(s, approximate=False)
        interp = schwarz_identical_basis(s.pair_distances_sq(), s.xpnt, s.coef)
        np.testing.assert_allclose(interp, exact, rtol=5e-3, atol=1e-12)


class TestFockBuild:
    def test_quadruple_vs_direct_formulation(self):
        s = make_helium_system(4, 3, spacing=2.5)
        quad = symmetrize(fock_quadruple_reference(s))
        direct = fock_direct_reference(s)
        assert verify_fock(quad, direct, rtol=1e-10) < 1e-10

    def test_fock_symmetric(self):
        s = make_helium_system(3, 3, spacing=2.5)
        fock = symmetrize(fock_quadruple_reference(s))
        np.testing.assert_allclose(fock, fock.T)

    def test_eri_tensor_symmetry(self):
        s = make_helium_system(3, 3, spacing=2.5)
        eri = eri_tensor(s)
        np.testing.assert_allclose(eri, eri.transpose(1, 0, 2, 3), rtol=1e-12)
        np.testing.assert_allclose(eri, eri.transpose(2, 3, 0, 1), rtol=1e-12)

    def test_screening_changes_little_for_tight_tolerance(self):
        s = make_helium_system(4, 3, spacing=2.5)
        schwarz = compute_schwarz(s)
        unscreened = fock_quadruple_reference(s)
        screened = fock_quadruple_reference(s, schwarz=schwarz,
                                            schwarz_tol=SCHWARZ_TOLERANCE)
        assert np.max(np.abs(unscreened - screened)) < 1e-6

    def test_verify_fock_detects_mismatch(self):
        s = make_helium_system(3, 3, spacing=2.5)
        fock = fock_quadruple_reference(s)
        with pytest.raises(VerificationError):
            verify_fock(fock + 0.5, fock)


class TestDeviceKernel:
    def test_device_kernel_matches_host_reference(self, ctx):
        fock, err = run_hartreefock_functional(ctx, 4, 3)
        assert err < 1e-10
        assert fock.shape == (4, 4)

    def test_device_kernel_ngauss6(self, ctx):
        fock, err = run_hartreefock_functional(ctx, 3, 6)
        assert err < 1e-10

    def test_device_kernel_with_screening(self, ctx):
        fock, err = run_hartreefock_functional(ctx, 4, 3,
                                               schwarz_tol=SCHWARZ_TOLERANCE)
        assert err < 1e-10


class TestScreeningStatistics:
    def test_fraction_bounds(self):
        s = make_helium_system(32, 3)
        frac = surviving_quadruple_fraction(compute_schwarz(s))
        assert 0.0 < frac <= 1.0

    def test_zero_tolerance_keeps_everything(self):
        s = make_helium_system(16, 3)
        assert surviving_quadruple_fraction(compute_schwarz(s), tol=0.0) == 1.0

    def test_fraction_decreases_with_system_size(self):
        f32 = surviving_quadruple_fraction(compute_schwarz(make_helium_system(32, 3)))
        f64 = surviving_quadruple_fraction(compute_schwarz(make_helium_system(64, 3)))
        assert f64 < f32

    def test_fraction_decreases_with_tolerance(self):
        schwarz = compute_schwarz(make_helium_system(32, 3))
        loose = surviving_quadruple_fraction(schwarz, tol=1e-12)
        tight = surviving_quadruple_fraction(schwarz, tol=1e-6)
        assert tight < loose

    def test_brute_force_agreement_small_system(self):
        s = make_helium_system(6, 3)
        schwarz = compute_schwarz(s)
        frac = surviving_quadruple_fraction(schwarz, tol=1e-9)
        count = 0
        for ijkl in range(s.nquads):
            ij, kl = decode_pair(ijkl)
            if schwarz[ij] * schwarz[kl] >= 1e-9:
                count += 1
        assert frac == pytest.approx(count / s.nquads)


class TestRunner:
    def test_model_scales_with_ngauss(self):
        m3 = hartree_fock_kernel_model(natoms=64, ngauss=3, surviving_fraction=0.5)
        m6 = hartree_fock_kernel_model(natoms=64, ngauss=6, surviving_fraction=0.5)
        assert m6.flops > 10 * m3.flops
        assert m6.atomics == m3.atomics == 3.0

    def test_table4_shape_h100(self):
        mojo = bench("mojo", "h100", natoms=64, ngauss=3)
        cuda = bench("cuda", "h100", natoms=64, ngauss=3)
        speedup = cuda.primary_value / mojo.primary_value
        assert 1.5 < speedup < 3.5            # paper: ~2.5x

    def test_table4_shape_mi300a(self):
        mojo = bench("mojo", "mi300a", natoms=64, ngauss=3)
        hip = bench("hip", "mi300a", natoms=64, ngauss=3)
        assert mojo.primary_value > 20 * hip.primary_value

    def test_time_grows_with_system_size(self):
        t64 = bench("cuda", "h100", natoms=64, ngauss=3).primary_value
        t128 = bench("cuda", "h100", natoms=128, ngauss=3).primary_value
        assert t128 > 3 * t64

    def test_runner_with_verification(self):
        res = bench("cuda", "h100", natoms=64, ngauss=3, verify=True,
                    verify_natoms=3)
        assert res.verification.ran and res.verification.passed
        assert res.verification.max_rel_error < 1e-10


class TestBatchedERI:
    """The vectorised ERI engine against its scalar bit-level oracle."""

    @pytest.mark.parametrize("ngauss", [3, 6])
    def test_batch_matches_scalar_on_random_geometries(self, ngauss):
        s = make_helium_system(2, ngauss)
        rng = np.random.default_rng(20260729 + ngauss)
        n = 48
        pos = [rng.normal(scale=2.5, size=(n, 3)) for _ in range(4)]
        batch = contracted_eri_batch(*pos, s.xpnt, s.coef)
        assert batch.shape == (n,)
        for q in range(n):
            scalar = contracted_eri(pos[0][q], pos[1][q], pos[2][q], pos[3][q],
                                    s.xpnt, s.coef)
            assert batch[q] == pytest.approx(scalar, rel=1e-12, abs=1e-18)

    def test_single_quadruple_broadcast(self):
        s = make_helium_system(4, 3, spacing=2.0)
        g = s.geometry
        batch = contracted_eri_batch(g[0], g[1], g[2], g[3], s.xpnt, s.coef)
        scalar = contracted_eri(g[0], g[1], g[2], g[3], s.xpnt, s.coef)
        assert batch.shape == (1,)
        assert batch[0] == pytest.approx(scalar, rel=1e-12)

    def test_decode_pair_array_matches_scalar(self):
        idx = np.concatenate([
            np.arange(0, 400),
            # triangle boundaries at large rows (naive float decode territory)
            np.array([r * (r + 1) // 2 + off
                      for r in (1000, 4095, 65535) for off in (0, 1, r - 1, r)]),
        ])
        rows, cols = decode_pair_array(idx)
        for pos, ij in enumerate(idx):
            assert (rows[pos], cols[pos]) == decode_pair(int(ij))

    def test_fock_reference_independent_of_chunk(self):
        s = make_helium_system(5, 3, spacing=2.5)
        full = fock_quadruple_reference(s)
        tiny_chunks = fock_quadruple_reference(s, chunk=17)
        np.testing.assert_allclose(tiny_chunks, full, rtol=1e-13, atol=0)

    def test_fock_screening_with_chunks_matches_unchunked(self):
        s = make_helium_system(5, 3, spacing=2.5)
        schwarz = compute_schwarz(s)
        a = fock_quadruple_reference(s, schwarz=schwarz,
                                     schwarz_tol=SCHWARZ_TOLERANCE, chunk=23)
        b = fock_quadruple_reference(s, schwarz=schwarz,
                                     schwarz_tol=SCHWARZ_TOLERANCE)
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)

    def test_eri_tensor_entries_match_scalar(self):
        s = make_helium_system(3, 3, spacing=2.5)
        tensor = eri_tensor(s, chunk=11)
        g = s.geometry
        for (i, j, k, l) in ((0, 0, 0, 0), (0, 1, 2, 0), (2, 1, 0, 2)):
            scalar = contracted_eri(g[i], g[j], g[k], g[l], s.xpnt, s.coef)
            assert tensor[i, j, k, l] == pytest.approx(scalar, rel=1e-12)
