"""Golden oracle of the kernel front end: verifier, regions and lowering.

``tests/golden/analysis/kernels.json`` records, for every shipped kernel
and every fixture function in ``fixtures/{broken,region}_kernels.py``:

* ``verify_kernel(k).as_dict()`` with ``source`` cut to the file name;
* the ``kernel_regions(k)`` summary: ``analyzable`` and each access's
  param, kind, line, guarded, exact and ``str`` of its index expressions;
* for the shipped kernels, ``lower_source`` at the launches
  ``tests/gpu/test_mode_differential.py::CASES`` runs (the region analysis
  decides which tensors the generated code checks): each kernel's first
  launch under its name, and a later family's launch of it only under its
  own key in :data:`RELAUNCHED` (float32 Dot).

The comparison is exact.  Regenerate with
``PYTHONPATH=src python tests/analysis/test_golden_analysis.py --write``.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import sys
from pathlib import Path

from repro.analysis import kernel_regions, verify_kernel
from repro.analysis.lint import shipped_kernels
from repro.core.kernel import Kernel
from repro.graphopt.lower import lower_source

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "golden" / "analysis" / "kernels.json"
FIXTURES = ("broken_kernels", "region_kernels")


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _kernels():
    """``{key: Kernel}``: the shipped kernels, then every fixture function."""
    out = {name: kern for name, kern in shipped_kernels().items()
           if kern.fn.__module__.startswith("repro.")}
    for fixture in FIXTURES:
        module = _load(fixture, HERE / "fixtures" / f"{fixture}.py")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == fixture:
                out[f"{fixture}.{name}"] = Kernel(fn)
    return out


class _Recorder:
    """Stands in for the executor: records each launch instead of running."""

    def __init__(self):
        self.launches = []

    def launch(self, kern, args, launch, mode=None):
        self.launches.append((kern, args, launch))


#: (CASES family, kernel) -> golden key of a kernel launched again
RELAUNCHED = {("babelstream-float32", "dot_kernel"): "dot_kernel.float32"}


def _lowered_sources():
    """``{key: source}`` at CASES launches."""
    diff = _load("mode_differential",
                 HERE.parent / "gpu" / "test_mode_differential.py")
    out = {}
    for family in sorted(diff.CASES):
        rec = _Recorder()
        diff.CASES[family][0](rec, "auto")
        for kern, args, launch in rec.launches:
            key = RELAUNCHED.get((family, kern.name), kern.name)
            if key not in out:
                out[key] = lower_source(kern, args, launch)
    return out


def _regions(kern):
    summary = kernel_regions(kern)
    return {
        "analyzable": summary.analyzable,
        "accesses": [
            {"param": a.param, "kind": a.kind, "line": a.line,
             "guarded": a.guarded, "exact": a.exact,
             "exprs": None if a.exprs is None else [str(e) for e in a.exprs]}
            for a in summary.accesses],
    }


def build():
    lowered = _lowered_sources()
    out = {}
    for key, kern in _kernels().items():
        verdict = verify_kernel(kern).as_dict()
        verdict["source"] = os.path.basename(verdict["source"])
        for diag in verdict["diagnostics"]:
            diag["source"] = os.path.basename(diag["source"] or "")
        entry = {"verify": verdict, "regions": _regions(kern)}
        if key in lowered:
            entry["lower"] = lowered[key]
        out[key] = entry
    for key in RELAUNCHED.values():
        out[key] = {"lower": lowered[key]}
    return out


def test_front_end_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = json.loads(json.dumps(build()))
    assert sorted(actual) == sorted(expected)
    for key in expected:
        for part in expected[key]:
            assert actual[key][part] == expected[key][part], (key, part)


def test_golden_covers_the_shipped_kernels_lowered():
    expected = json.loads(GOLDEN.read_text())
    lowered = {k for k, v in expected.items() if "lower" in v}
    assert len(lowered) == 9
    for key in lowered:
        assert expected[key]["lower"], key


if __name__ == "__main__":
    if "--write" in sys.argv:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps(build(), indent=1, sort_keys=True)
                          + "\n")
