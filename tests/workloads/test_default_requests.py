"""Golden oracle of every workload's default request.

``tests/golden/workloads/defaults.json`` records, for each registered
workload, the ``metrics`` (``counter_*`` included) and the verification
verdict of one ``Workload.run(make_request())``: the request ``repro bench
<workload>`` runs.  Metric names, ``ran`` and ``passed`` must match
exactly; floats to at most 1e-12 relative.  Regenerate on purpose with
``PYTHONPATH=src python tests/workloads/test_default_requests.py --write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.workloads import get_workload, list_workloads

GOLDEN = (Path(__file__).resolve().parents[1] / "golden" / "workloads"
          / "defaults.json")

#: relative tolerance for float values
REL_TOL = 1e-12


def build(name):
    workload = get_workload(name)
    result = workload.run(workload.make_request()).as_dict()
    verification = result["verification"]
    return {"metrics": result["metrics"],
            "verification": {key: verification[key]
                             for key in ("ran", "passed", "max_rel_error")}}


def _approx(values):
    return pytest.approx(values, rel=REL_TOL, abs=0)


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


def test_metric_nudge_is_caught():
    expected = json.loads(GOLDEN.read_text())["stencil"]["metrics"]
    nudged = dict(expected,
                  counter_duration_ms=expected["counter_duration_ms"]
                  * (1 + 1e-9))
    assert nudged != _approx(expected)


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(
            {name: build(name) for name in list_workloads()},
            indent=1, sort_keys=True) + "\n")
