"""Profiling counters in WorkloadResult.metrics (``counter_*`` keys).

Every run folds the analytic profiling counters of its primary kernel into
the uniform metrics dict, read off the same run that priced the kernel.  The counters are a pure function of the
compiled kernel and the analytic timing model, so they must not depend on
which functional-simulator mode executed the verification launches.
"""

import math

import pytest

from repro.backends.base import Backend
from repro.harness.runner import MeasurementProtocol
from repro.workloads import get_workload

FAST = MeasurementProtocol(warmup=1, repeats=3)

QUICK = {
    "stencil": {"L": 64},
    "babelstream": {"n": 2 ** 18},
    "minibude": {"ppwi": 2, "wgsize": 8, "nposes": 1024},
    "hartreefock": {"natoms": 16},
}

EXPECTED_KEYS = {
    "counter_duration_ms",
    "counter_compute_throughput_pct",
    "counter_memory_throughput_pct",
    "counter_flops_per_second",
    "counter_occupancy",
    "counter_registers",
}


@pytest.mark.parametrize("name", sorted(QUICK))
def test_every_workload_reports_counters(name):
    workload = get_workload(name)
    request = workload.make_request(params=QUICK[name], protocol=FAST)
    result = workload.run(request)
    counter_keys = {k for k in result.metrics if k.startswith("counter_")}
    assert EXPECTED_KEYS <= counter_keys
    for key in counter_keys:
        value = result.metrics[key]
        assert isinstance(value, float) and math.isfinite(value)
    assert result.metrics["counter_duration_ms"] > 0


@pytest.mark.parametrize("executor", ["sequential", "cooperative",
                                      "vectorized"])
def test_counters_are_executor_mode_invariant(executor):
    workload = get_workload("stencil")
    base = workload.make_request(params={"L": 18},
                                 protocol=MeasurementProtocol(warmup=0,
                                                              repeats=2))
    reference = workload.run(base)
    other = workload.run(base.replace(executor=executor))
    ref_counters = {k: v for k, v in reference.metrics.items()
                    if k.startswith("counter_")}
    assert ref_counters
    for key, value in ref_counters.items():
        assert other.metrics[key] == value, key


#: parameters no other test runs, so no memo has seen the request
UNSEEN = {
    "stencil": {"L": 43},
    "babelstream": {"n": 3 * 2 ** 15 + 7},
    "minibude": {"ppwi": 2, "wgsize": 16, "nposes": 96},
    "hartreefock": {"natoms": 5},
}

#: ``Backend.time`` calls per run: the primary kernel once, plus
#: BabelStream's four other operations
PRICED = {"stencil": 1, "babelstream": 5, "minibude": 1, "hartreefock": 1}


@pytest.mark.parametrize("name", sorted(UNSEEN))
def test_each_kernel_is_priced_once(name, monkeypatch):
    calls = []
    original = Backend.time

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Backend, "time", counting)
    workload = get_workload(name)
    request = workload.make_request(params=UNSEEN[name], protocol=FAST)
    result = workload.run(request)
    assert result.verification.passed
    assert len(calls) == PRICED[name]
    # the counters are read off the run that priced the primary kernel
    primary = result.timing["triad" if name == "babelstream" else "kernel"]
    assert result.metrics["counter_duration_ms"] == primary.kernel_time_ms
    # ... and belong to that result: mutating them leaves the next run's
    counters = {k: v for k, v in result.metrics.items()
                if k.startswith("counter_")}
    result.metrics["counter_duration_ms"] = -1.0
    again = workload.run(request)
    assert len(calls) == 2 * PRICED[name]
    assert {k: again.metrics[k] for k in counters} == counters
