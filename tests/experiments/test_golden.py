"""Golden snapshots of every quick-mode experiment and of the report:
no modelled number may move when the run path changes.

Each ``tests/golden/experiments/<id>.json`` is ``ExperimentResult.to_json()``
of ``run_experiment(<id>, quick=True)``.  Strings, bools, ints and ``None``
must match exactly; floats to at most 1e-12 relative.  The committed
``EXPERIMENTS.md`` pins the rendered report: every section up to the
tuned-Φ table must come out byte for byte.
"""

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import list_experiments, run_experiment

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "experiments"

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


@pytest.mark.parametrize("experiment", list_experiments())
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


def test_report_is_a_prefix_of_the_committed_document(capsys):
    # Without the graph-compiler and observability sections (host wall
    # times) the report is deterministic, and it is exactly the start of
    # the committed document.
    assert main(["report", "--no-graphopt", "--no-obs"]) == 0
    out = capsys.readouterr().out
    assert "## Tuned performance portability" in out
    committed = (ROOT / "EXPERIMENTS.md").read_bytes()
    assert committed.startswith(out.encode("utf-8"))
