"""Fixtures for the observability suite."""

import pytest

from repro.obs import trace
from repro.obs.metrics import reset_metrics
from repro.workloads import default_result_cache, get_workload


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    """A trace collector must never leak across tests (or into the suite)."""
    assert trace._ACTIVE is None
    yield
    assert trace._ACTIVE is None


@pytest.fixture(autouse=True)
def _clean_metrics():
    """Counter assertions in this suite start from a zeroed registry."""
    reset_metrics()
    yield


@pytest.fixture(autouse=True)
def _clean_default_cache():
    default_result_cache().memo.clear()
    yield
    default_result_cache().memo.clear()


@pytest.fixture
def stencil():
    return get_workload("stencil")
