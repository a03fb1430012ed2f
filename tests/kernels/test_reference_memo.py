"""The ``reference`` memo: each verifier's expected output, once per problem.

A memo hit reuses only the host-side expected array; the device kernel
still runs and its fresh download is still compared, so a wrong device
result fails verification on a hit exactly as on a miss.
"""

import numpy as np
import pytest

from repro.core.memo import memo_infos
from repro.harness.runner import MeasurementProtocol
from repro.kernels.expected import REFERENCE_MEMO
from repro.kernels.hartreefock.basis import HeSystem, make_helium_system
from repro.kernels.hartreefock.runner import expected_fock
from repro.kernels.minibude.deck import Deck, make_deck
from repro.kernels.minibude.runner import expected_energies
from repro.kernels.stencil.problem import StencilProblem
from repro.resilience.faults import FaultPlan, FaultRule, install_fault_plan
from repro.workloads import get_workload

FAST = MeasurementProtocol(warmup=0, repeats=1)

#: small verified requests, one per memoised kernel family
REQUESTS = {
    "stencil": {"L": 20},
    "hartreefock": {"natoms": 8},
    "minibude": {"nposes": 1024, "seed": 11},
}


@pytest.fixture(autouse=True)
def _cold_reference_memo():
    REFERENCE_MEMO.clear()
    yield
    REFERENCE_MEMO.clear()


def _verified(name, **overrides):
    workload = get_workload(name)
    fields = dict(params=REQUESTS[name], protocol=FAST, verify=True)
    fields.update(overrides)
    return workload.run(workload.make_request(**fields))


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_memo_hit_still_catches_a_corrupted_download(name):
    assert _verified(name).verification.passed
    hits = REFERENCE_MEMO.cache_info().hits
    plan = FaultPlan(rules=(FaultRule(site="corrupt.d2h", indices=(0,)),))
    with install_fault_plan(plan) as injector:
        result = _verified(name)
    assert injector.stats()["total_fired"] == 1
    assert result.verification.ran and not result.verification.passed
    assert REFERENCE_MEMO.cache_info().hits > hits


def test_stencil_reference_computed_once_across_platforms_and_executors():
    for gpu, backend in (("h100", "mojo"), ("h100", "cuda"),
                         ("mi300a", "mojo"), ("mi300a", "hip")):
        for executor in ("auto", "lowered"):
            result = _verified("stencil", gpu=gpu, backend=backend,
                               executor=executor)
            assert result.verification.passed
    info = REFERENCE_MEMO.cache_info()
    assert (info.misses, info.hits, info.entries) == (1, 7, 1)


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_memo_hit_gives_the_cold_verification(name):
    cold = _verified(name).verification
    warm = _verified(name).verification
    assert REFERENCE_MEMO.cache_info().hits >= 1
    assert (warm.passed, warm.max_rel_error) == (cold.passed,
                                                 cold.max_rel_error)


def test_hartreefock_verifier_and_reference_share_one_entry():
    _verified("hartreefock")
    get_workload("hartreefock").reference()
    info = REFERENCE_MEMO.cache_info()
    assert (info.misses, info.hits, info.entries) == (1, 1, 1)


def test_expected_arrays_are_read_only():
    arrays = (
        StencilProblem(10).expected_laplacian(),
        expected_fock(make_helium_system(3, 3)),
        expected_energies(make_deck(natlig=4, natpro=8, ntypes=4, nposes=16)),
        get_workload("stencil").reference(L=10),
    )
    for expected in arrays:
        assert not expected.flags.writeable
        with pytest.raises(ValueError):
            expected[(0,) * expected.ndim] = 1.0


def test_memo_infos_lists_reference():
    StencilProblem(10).expected_laplacian()
    assert memo_infos()["reference"]["entries"] >= 1


def test_only_make_deck_decks_have_a_key():
    deck = make_deck(natlig=4, natpro=8, ntypes=4, nposes=16, seed=3)
    assert deck.key == (4, 8, 4, 16, 3)
    assert deck.subset(8).key is None
    hand_built = Deck(np.zeros((8, 4), np.float32), np.zeros((4, 4), np.float32),
                      np.zeros((4, 4), np.float32), np.zeros((6, 16), np.float32))
    assert hand_built.key is None


def test_keyless_problems_are_computed_fresh():
    deck = make_deck(natlig=4, natpro=8, ntypes=4, nposes=16).subset(8)
    he = make_helium_system(2, 3)
    system = HeSystem(he.natoms, he.ngauss, he.geometry, he.xpnt, he.coef,
                      he.dens)
    first, second = expected_energies(deck), expected_energies(deck)
    assert first is not second and not first.flags.writeable
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(expected_fock(system), expected_fock(he))
    assert REFERENCE_MEMO.cache_info().entries == 1      # only ``he``'s
