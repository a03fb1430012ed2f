"""Memoised, read-only Hartree-Fock problem setup and its vectorised loops."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.harness.sweep import Sweep
from repro.kernels.hartreefock import (
    boys_f0_array,
    compute_schwarz,
    make_helium_system,
    surviving_quadruple_fraction,
    triangular_pairs,
)
from repro.kernels.hartreefock.basis import HELIUM_MEMO
from repro.kernels.hartreefock.runner import SCHWARZ_MEMO
from repro.workloads import get_workload
from repro.workloads.hartreefock import SURVIVORS_MEMO


def _loop_triangular_pairs(n):
    """The double loop ``triangular_pairs`` used to run."""
    i_list, j_list = [], []
    for i in range(n):
        for j in range(i + 1):
            i_list.append(i)
            j_list.append(j)
    return np.asarray(i_list, dtype=np.int64), np.asarray(j_list, dtype=np.int64)


def _loop_surviving_fraction(schwarz, tol):
    """The per-pair loop ``surviving_quadruple_fraction`` used to run."""
    s = np.sort(np.asarray(schwarz, dtype=np.float64))
    n = len(s)
    if n == 0:
        return 0.0
    total = n * (n + 1) // 2
    surviving = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        thresholds = np.where(s > 0, tol / s, np.inf)
    firsts = np.searchsorted(s, thresholds, side="left")
    for q in range(n):
        lo = firsts[q]
        if lo > q:
            continue
        surviving += q - lo + 1
    return surviving / total


def _assert_same_array(a, b):
    assert type(a) is type(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()
    assert not a.flags.writeable and not b.flags.writeable


def _system_arrays(system):
    return (system.geometry, system.xpnt, system.coef, system.dens)


class TestMemoisedSetup:
    def test_helium_hit_equals_miss(self):
        HELIUM_MEMO.clear()
        miss = make_helium_system(12, 3, spacing=2.75)
        hit = make_helium_system(12, 3, spacing=2.75)
        assert hit is miss
        HELIUM_MEMO.clear()
        fresh = make_helium_system(12, 3, spacing=2.75)
        assert type(fresh) is type(miss)
        assert (fresh.natoms, fresh.ngauss, fresh.key) == \
            (miss.natoms, miss.ngauss, miss.key) == \
            (12, 3, (12, 3, 2.75, 0.2, 2025))
        for a, b in zip(_system_arrays(fresh), _system_arrays(miss)):
            _assert_same_array(a, b)
        info = HELIUM_MEMO.cache_info()
        assert (info.hits, info.misses) == (0, 1)

    @pytest.mark.parametrize("approximate", [False, True])
    def test_schwarz_hit_equals_miss(self, approximate):
        system = make_helium_system(10, 3)
        SCHWARZ_MEMO.clear()
        miss = compute_schwarz(system, approximate=approximate)
        hit = compute_schwarz(system, approximate=approximate)
        assert hit is miss
        SCHWARZ_MEMO.clear()
        _assert_same_array(compute_schwarz(system, approximate=approximate),
                           miss)
        info = SCHWARZ_MEMO.cache_info()
        assert (info.hits, info.misses) == (0, 1)

    def test_every_returned_array_is_read_only(self):
        system = make_helium_system(6, 6, spacing=2.0)
        arrays = _system_arrays(system) + (
            compute_schwarz(system), compute_schwarz(system, approximate=True))
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            system.natoms = 7

    def test_hand_built_system_is_recomputed_every_call(self):
        system = make_helium_system(8, 3)
        copy = dataclasses.replace(system)
        assert copy.key is None
        before = SCHWARZ_MEMO.cache_info()
        first = compute_schwarz(copy)
        second = compute_schwarz(copy)
        after = SCHWARZ_MEMO.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)
        assert first is not second and not first.flags.writeable
        assert first.tobytes() == compute_schwarz(system).tobytes()

    def test_threaded_sweep_matches_sequential(self):
        workload = get_workload("hartreefock")
        sweep = Sweep().add("natoms", [16, 20]).add("gpu", ["h100", "mi300a"]) \
            .add("repeat", [0, 1, 2])

        def run(natoms, gpu, repeat):
            result = workload.run(workload.make_request(
                gpu=gpu, params={"natoms": natoms}, verify=False))
            return result.metrics

        memos = (HELIUM_MEMO, SCHWARZ_MEMO, SURVIVORS_MEMO)
        for memo in memos:
            memo.clear()
        threaded = sweep.run(run, workers=4)
        for memo in memos:
            memo.clear()
        assert threaded == sweep.run(run)

    def test_surviving_fraction_is_counted_once_per_tolerance(self):
        workload = get_workload("hartreefock")
        SURVIVORS_MEMO.clear()
        fractions = []
        for tol, block_size in ((1e-10, 64), (1e-10, 128), (1e-6, 64)):
            request = workload.make_request(params={
                "natoms": 14, "schwarz_tol": tol, "block_size": block_size},
                verify=False)
            workload.tuning_model(request)
            fractions.append(workload.run(request).metrics["surviving_fraction"])
        info = SURVIVORS_MEMO.cache_info()
        assert info.misses == 2 and info.hits >= 4
        schwarz = compute_schwarz(make_helium_system(14, 3))
        assert fractions == [surviving_quadruple_fraction(schwarz, tol)
                             for tol in (1e-10, 1e-10, 1e-6)]


class TestVectorisedLoops:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
    def test_triangular_pairs_matches_loop(self, n):
        for new, old in zip(triangular_pairs(n), _loop_triangular_pairs(n)):
            assert new.dtype == old.dtype
            np.testing.assert_array_equal(new, old)

    def test_surviving_fraction_matches_loop(self):
        rng = np.random.default_rng(20261016)
        cases = [(np.zeros(0), 1e-9), (np.zeros(17), 1e-9),
                 (np.zeros(5), 0.0)]
        for size in (1, 2, 9, 300):
            cases.append((10.0 ** rng.uniform(-9, 0, size), 1e-9))
        # entries exactly at the threshold: 0.5 * 0.5 >= 0.25 survives
        cases.append((np.array([0.5, 0.5, 0.25, 1.0, 0.0]), 0.25))
        cases.append((np.repeat([1e-3, 1e-6], [4, 6]), 1e-9))
        for schwarz, tol in cases:
            assert surviving_quadruple_fraction(schwarz, tol) == \
                _loop_surviving_fraction(schwarz, tol)


class TestLazySciPy:
    def test_importing_the_cli_does_not_import_scipy(self):
        code = "import sys, repro.cli; print('scipy' in sys.modules)"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=120,
                             env=env)
        assert out.stdout.strip() == "False"

    def test_boys_f0_array_bitwise_unchanged(self):
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(7)
        t = np.concatenate([[0.0, 1e-13, 1e-12, 0.5, 3.0, 50.0],
                            10.0 ** rng.uniform(-14, 3, 500)])
        t_safe = np.where(t < 1e-12, 1.0, t)
        expected = np.where(
            t < 1e-12, 1.0 - t / 3.0,
            0.5 * np.sqrt(np.pi / t_safe) * special.erf(np.sqrt(t_safe)))
        assert boys_f0_array(t).tobytes() == expected.tobytes()
