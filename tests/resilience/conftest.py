"""Fixtures for the resilience/chaos suite."""

import pytest

from repro.resilience import faults
from repro.workloads import default_result_cache, get_workload


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Fault injection must never leak across tests (or into the suite)."""
    assert faults._ACTIVE is None
    yield
    assert faults._ACTIVE is None


@pytest.fixture(autouse=True)
def _clean_default_cache():
    default_result_cache().memo.clear()
    yield
    default_result_cache().memo.clear()


@pytest.fixture
def stencil():
    return get_workload("stencil")
