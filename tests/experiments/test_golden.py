"""Golden snapshots of every quick-mode experiment and of the report:
no modelled number may move when the run path changes.

Each ``tests/golden/experiments/<id>.json`` is ``ExperimentResult.to_json()``
of ``run_experiment(<id>, quick=True)``.  Strings, bools, ints and ``None``
must match exactly; floats to at most 1e-12 relative.  The committed
``EXPERIMENTS.md`` pins the rendered report: ``repro report --write``
must reproduce it byte for byte, also under a jittering host clock.
Regenerate it on purpose with
``PYTHONPATH=src python -m repro report --write EXPERIMENTS.md``.
"""

import json
import math
import random
import time
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


def _report_bytes(tmp_path):
    target = tmp_path / "EXPERIMENTS.md"
    assert main(["report", "--write", str(target)]) == 0
    return target.read_bytes()


def test_report_equals_the_committed_document(tmp_path, capsys):
    assert _report_bytes(tmp_path) == (ROOT / "EXPERIMENTS.md").read_bytes()


def test_report_does_not_read_the_host_clock(tmp_path, monkeypatch, capsys):
    # A clock that jumps by a random step on every read: any host timing
    # that reached the document would change its bytes.
    rng = random.Random(0)
    now = [0.0]

    def jittering():
        now[0] += rng.uniform(1e-6, 1.0)
        return now[0]

    monkeypatch.setattr(time, "perf_counter", jittering)
    assert _report_bytes(tmp_path) == (ROOT / "EXPERIMENTS.md").read_bytes()
