"""The experiment driver: one result cache per invocation, one run per
distinct request, and verification verdicts that survive cache hits."""

import collections

import pytest

from repro.cli import main
from repro.harness.compare import verification_comparison
from repro.harness.runner import MeasurementProtocol
from repro.experiments import driver, run_experiment
from repro.resilience.faults import FaultPlan, FaultRule, install_fault_plan
from repro.workloads import get_workload
from repro.workloads.base import Workload
from repro.workloads.cache import default_result_cache

#: distinct requests an in-process ``repro report`` runs: 108 in the ten
#: experiments and 106 in the tuned-portability searches
REPORT_REQUESTS = 214


@pytest.fixture
def run_counts(monkeypatch):
    """Count ``Workload.run`` calls per request."""
    calls = collections.Counter()
    original = Workload.run

    def counting(self, request):
        calls[request] += 1
        return original(self, request)

    monkeypatch.setattr(Workload, "run", counting)
    return calls


def _stencil_request(**fields):
    return get_workload("stencil").make_request(
        params={"L": 20}, protocol=MeasurementProtocol(warmup=0, repeats=1),
        **fields)


def test_report_runs_each_distinct_request_once(run_counts, tmp_path, capsys):
    assert main(["report", "--write", str(tmp_path / "report.md")]) == 0
    repeated = {r: n for r, n in run_counts.items() if n > 1}
    assert not repeated
    assert sum(run_counts.values()) == REPORT_REQUESTS


def test_a_cached_failed_verdict_still_fails(run_counts):
    request = _stencil_request(verify=True)
    plan = FaultPlan(rules=(FaultRule(site="corrupt.d2h", indices=(0,)),))
    with install_fault_plan(plan) as injector, \
            driver.result_scope() as verified:
        first = driver.run(request)
        second = driver.run(request)
    assert injector.stats()["total_fired"] == 1
    assert run_counts[request] == 1          # the second read is a hit
    assert first.verification.ran and not first.verification.passed
    assert second.verification.ran and not second.verification.passed
    assert len(verified) == 2
    assert not verification_comparison(verified).passed


def test_scopes_nest_and_end(run_counts):
    request = _stencil_request(verify=False)
    with driver.result_scope():
        driver.run(request)
        with driver.result_scope() as inner:
            driver.run(request)
        assert inner == []                   # unverified runs are not listed
    assert run_counts[request] == 1
    driver.run(request)                      # outside a scope: uncached
    assert run_counts[request] == 2


def test_the_process_default_cache_is_untouched():
    before = default_result_cache().memo.cache_info()
    run_experiment("fig4")
    assert default_result_cache().memo.cache_info() == before


def test_run_pair_runs_mojo_and_an_unverified_baseline():
    request = _stencil_request(verify=True, gpu="mi300a")
    with driver.result_scope() as verified:
        mojo, base = driver.run_pair(request, "hip", fast_math=True)
    assert (mojo.request.backend, mojo.request.verify) == ("mojo", True)
    assert (base.request.backend, base.request.verify,
            base.request.fast_math) == ("hip", False, True)
    assert len(verified) == 1 and verified[0] is mojo
