"""Golden oracles of the workloads' results.

``tests/golden/workloads/defaults.json`` records, for each registered
workload, the ``metrics`` (``counter_*`` included) and the verification
verdict of one ``Workload.run(make_request())``: the request ``repro bench
<workload>`` runs.  Metric names, ``ran`` and ``passed`` must match
exactly; floats to at most 1e-12 relative.

``tests/golden/workloads/requests.json`` records the whole
``WorkloadResult.as_dict()`` (minus ``provenance.python``) of a request
grid: every workload model-only on each gpu/backend pair, supported
precision and fast-math setting, plus the verified default request at one
and two streams.  Every mapping's key order must match (metric, timing and
sample order are part of the export), strings, bools and ints exactly,
floats to at most 1e-12 relative.

Regenerate both on purpose with
``PYTHONPATH=src python tests/workloads/test_default_requests.py --write``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from repro.workloads import get_workload, list_workloads

GOLDEN = (Path(__file__).resolve().parents[1] / "golden" / "workloads"
          / "defaults.json")
GRID_GOLDEN = GOLDEN.with_name("requests.json")

#: relative tolerance for float values
REL_TOL = 1e-12

#: the gpu/backend pairs of the grid's model-only requests
PAIRS = (("h100", "mojo"), ("h100", "cuda"), ("mi300a", "mojo"),
         ("mi300a", "hip"))


def build(name):
    workload = get_workload(name)
    result = workload.run(workload.make_request()).as_dict()
    verification = result["verification"]
    return {"metrics": result["metrics"],
            "verification": {key: verification[key]
                             for key in ("ran", "passed", "max_rel_error")}}


def grid():
    """``{label: request kwargs}`` of the request grid, in a fixed order."""
    cases = {}
    for name in list_workloads():
        for gpu, backend in PAIRS:
            for precision in get_workload(name).precisions:
                for fast_math in (False, True):
                    label = (f"{name}-{gpu}-{backend}-{precision}"
                             f"{'-fastmath' if fast_math else ''}")
                    cases[label] = dict(gpu=gpu, backend=backend,
                                        precision=precision,
                                        fast_math=fast_math, verify=False)
        for streams in (1, 2):
            cases[f"{name}-verified-streams{streams}"] = dict(streams=streams)
    return cases


def build_case(label):
    name = label.split("-", 1)[0]
    workload = get_workload(name)
    result = workload.run(workload.make_request(**grid()[label])).as_dict()
    del result["provenance"]["python"]
    return json.loads(json.dumps(result))


def _approx(values):
    return pytest.approx(values, rel=REL_TOL, abs=0)


def assert_matches(actual, expected, path="result"):
    """*actual* equals *expected*: key order included, floats to REL_TOL."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert list(actual) == list(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, float) and not isinstance(actual, bool) \
            and isinstance(actual, (int, float)):
        assert (actual == expected
                or (math.isnan(actual) and math.isnan(expected))
                or math.isclose(actual, expected, rel_tol=REL_TOL,
                                abs_tol=0)), (path, actual, expected)
    else:
        assert type(actual) is type(expected) and actual == expected, \
            (path, actual, expected)


@pytest.mark.parametrize("name", list_workloads())
def test_default_request_matches_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    actual = json.loads(json.dumps(build(name)))
    assert sorted(actual["metrics"]) == sorted(expected["metrics"])
    assert actual["metrics"] == _approx(expected["metrics"])
    verdict, want = actual["verification"], expected["verification"]
    assert (verdict["ran"], verdict["passed"]) == (want["ran"],
                                                   want["passed"])
    assert verdict["max_rel_error"] == _approx(want["max_rel_error"])


def test_golden_covers_every_workload():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(list_workloads())


@pytest.mark.parametrize("label", list(grid()))
def test_request_grid_matches_golden(label):
    assert_matches(build_case(label), json.loads(GRID_GOLDEN.read_text())[label])


def test_grid_golden_covers_the_grid():
    assert list(json.loads(GRID_GOLDEN.read_text())) == list(grid())


def test_metric_nudge_is_caught():
    expected = json.loads(GOLDEN.read_text())["stencil"]["metrics"]
    nudged = dict(expected,
                  counter_duration_ms=expected["counter_duration_ms"]
                  * (1 + 1e-9))
    assert nudged != _approx(expected)


def test_grid_checker_catches_order_and_nudges():
    expected = json.loads(GRID_GOLDEN.read_text())["stencil-verified-streams2"]
    metrics = expected["metrics"]
    reordered = dict(expected, metrics=dict(reversed(list(metrics.items()))))
    with pytest.raises(AssertionError):
        assert_matches(reordered, expected)
    nudged = dict(expected, metrics=dict(
        metrics, kernel_time_ms=metrics["kernel_time_ms"] * (1 + 1e-9)))
    with pytest.raises(AssertionError):
        assert_matches(nudged, expected)


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {name: build(name) for name in list_workloads()},
            indent=1, sort_keys=True) + "\n")
        GRID_GOLDEN.write_text(json.dumps(
            {label: build_case(label) for label in grid()}, indent=1) + "\n")
