"""Golden oracle of every workload's device program.

``tests/golden/device/programs.json`` records, for each workload:

* ``verify``: for the ``test_streams_async.py::QUICK`` parameters, streams
  1, 2 and 3, and executors ``auto`` and ``vectorized``, the exported
  ``timing["verify_pipeline"]`` and ``verification.max_rel_error`` of one
  verified ``Workload.run``;
* ``lint``: the ``lint_graph()`` capture;
* ``probe``: the ``tuning_probe(make_request())`` capture, where one exists.

A capture is recorded as each op's kind, name, stream, buffer labels and
wait count, plus the graph's ``makespan_ms``.  Strings, ints and lists
must match exactly; floats to at most 1e-12 relative.  Regenerate on
purpose with
``PYTHONPATH=src python tests/workloads/test_device_programs.py --write``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.workloads import get_workload, list_workloads

GOLDEN = (Path(__file__).resolve().parents[1] / "golden" / "device"
          / "programs.json")

#: the ``test_streams_async.py`` quick parameters
QUICK = {
    "stencil": {"L": 32},
    "babelstream": {"n": 4096},
    "minibude": {"nposes": 256, "verify_poses": 64},
    "hartreefock": {"natoms": 16, "verify_natoms": 4},
}
STREAMS = (1, 2, 3)
EXECUTORS = ("auto", "vectorized")

#: relative tolerance for float leaves
REL_TOL = 1e-12


def _graph(graph):
    if graph is None:
        return None
    ops = [{"kind": op.kind, "name": op.name, "stream": op.stream.name,
            "buffers": [buf.label for buf in op.buffers],
            "waits": len(op.waits)} for op in graph.ops]
    return {"ops": ops, "makespan_ms": graph.makespan_ms}


def _verify(name):
    wl = get_workload(name)
    out = {}
    for streams in STREAMS:
        for executor in EXECUTORS:
            result = wl.run(wl.make_request(params=QUICK[name],
                                            streams=streams,
                                            executor=executor)).as_dict()
            out[f"streams={streams},executor={executor}"] = {
                "verify_pipeline": result["timing"]["verify_pipeline"],
                "max_rel_error": result["verification"]["max_rel_error"],
            }
    return out


def build(name):
    wl = get_workload(name)
    return {"verify": _verify(name), "lint": _graph(wl.lint_graph()),
            "probe": _graph(wl.tuning_probe(wl.make_request()))}


def assert_matches(actual, expected, path="$"):
    if isinstance(expected, float):
        assert isinstance(actual, float), f"{path}: {actual!r} is not a float"
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


@pytest.mark.parametrize("name", sorted(QUICK))
def test_device_program_matches_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    actual = json.loads(json.dumps(build(name)))
    assert_matches(actual, expected, name)


def test_golden_covers_every_workload():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(list_workloads())


def test_op_drift_is_caught():
    expected = json.loads(GOLDEN.read_text())["minibude"]["lint"]
    actual = json.loads(json.dumps(expected))
    actual["ops"][0]["waits"] += 1
    with pytest.raises(AssertionError, match="waits"):
        assert_matches(actual, expected)


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({name: build(name) for name in QUICK},
                                     indent=1, sort_keys=True) + "\n")
