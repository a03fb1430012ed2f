"""Golden snapshots of the quick-mode experiments that run through
``Workload.run``: no modelled number may move when the run path changes.

Each ``tests/golden/experiments/<id>.json`` is ``ExperimentResult.to_json()``
of ``run_experiment(<id>, quick=True)``.  Strings, bools, ints and ``None``
must match exactly; floats to at most 1e-12 relative.
"""

import json
import math
from pathlib import Path

import pytest

from repro.experiments import run_experiment

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "experiments"

#: relative tolerance for float leaves
REL_TOL = 1e-12


def assert_matches(actual, expected, path="$"):
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{path}: {actual!r} is not a float"
        if math.isnan(expected):
            assert math.isnan(actual), f"{path}: {actual!r} != nan"
            return
        assert actual == expected or \
            abs(actual - expected) <= REL_TOL * abs(expected), \
            f"{path}: {actual!r} != {expected!r}"
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), \
            f"{path}: keys {sorted(actual)} != {sorted(expected)}"
        for key, value in expected.items():
            assert_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            f"{path}: length {len(actual)} != {len(expected)}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{path}: {actual!r} != {expected!r}"


@pytest.mark.parametrize("experiment",
                         ["table3", "table4", "table5", "fig6", "fig7"])
def test_quick_run_matches_golden(experiment):
    expected = json.loads((GOLDEN / f"{experiment}.json").read_text())
    actual = json.loads(run_experiment(experiment, quick=True).to_json())
    assert_matches(actual, expected)


def test_float_nudge_is_caught():
    expected = json.loads((GOLDEN / "table4.json").read_text())
    actual = json.loads(json.dumps(expected))
    row = actual["tables"][0]["rows"][0]
    row["h100_mojo_ms"] *= 1 + 1e-9
    with pytest.raises(AssertionError, match="h100_mojo_ms"):
        assert_matches(actual, expected)
