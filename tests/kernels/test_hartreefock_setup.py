"""Memoised, read-only Hartree-Fock problem setup and its vectorised loops."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.harness.sweep import Sweep
from repro.kernels.hartreefock import (
    compute_schwarz,
    make_helium_system,
    surviving_quadruple_fraction,
    triangular_pairs,
)
from repro.kernels.hartreefock.basis import HELIUM_MEMO
from repro.kernels.hartreefock.eri import _erf
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


def _python(code):
    """Run *code* in a fresh interpreter on this checkout's ``src``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)


class TestWithoutSciPy:
    def test_importing_the_cli_does_not_import_scipy(self):
        out = _python("import sys, repro.cli; print('scipy' in sys.modules)")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_bench_hartreefock_verifies_with_scipy_blocked(self):
        # the first meta-path finder refuses and records every scipy import
        out = _python(
            "import sys\n"
            "class Block:\n"
            "    tried = []\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            self.tried.append(name)\n"
            "            raise ImportError(name)\n"
            "sys.meta_path.insert(0, Block())\n"
            "from repro.cli import main\n"
            "code = main(['bench', 'hartreefock', '--no-cache', '--json'])\n"
            "print(Block.tried, file=sys.stderr)\n"
            "sys.exit(code)")
        assert out.returncode == 0, out.stderr
        assert out.stderr.strip().splitlines()[-1] == "[]"
        verification = json.loads(out.stdout)["verification"]
        assert verification["ran"] and verification["passed"], verification


def _math_erf_grid():
    """10^5 + 1 points over [0, 7] and log-spaced points in [1e-16, 1]."""
    return np.concatenate([np.linspace(0.0, 7.0, 100_001),
                           np.logspace(-16.0, 0.0, 2001)])


class TestErf:
    """The one vectorised erf against ``math.erf``."""

    def test_within_1e14_of_math_erf(self):
        x = _math_erf_grid()
        expected = np.array([math.erf(v) for v in x])
        got = _erf(x)
        nonzero = expected != 0.0
        assert np.all(got[~nonzero] == 0.0)
        rel = np.abs(got - expected)[nonzero] / expected[nonzero]
        assert rel.max() <= 1e-14

    def test_exactly_odd(self):
        x = np.concatenate([_math_erf_grid(), [0.0, np.inf]])
        assert _erf(-x).tobytes() == (-_erf(x)).tobytes()
        assert np.signbit(_erf(np.array([-0.0])))[0]

    def test_exactly_one_where_math_erf_is(self):
        x = np.concatenate([_math_erf_grid(), [5.9, 6.0, 30.0, 1e300, np.inf]])
        ones = np.array([math.erf(v) == 1.0 for v in x])
        assert ones.sum() > 1000
        got = _erf(x)
        assert np.all(got[ones] == 1.0)
        assert np.all(got[~ones] < 1.0)

    def test_nan_and_shape(self):
        with np.errstate(invalid="ignore"):
            assert np.isnan(_erf(np.array([np.nan]))).all()
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        assert _erf(grid).shape == (3, 4)
        assert _erf(grid).ravel().tobytes() == _erf(grid.ravel()).tobytes()
