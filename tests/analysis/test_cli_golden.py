"""Golden output of the analysis commands.

``tests/golden/cli/lint.json`` is the stdout of ``repro lint --all --json``
and ``tests/golden/cli/graph.json`` that of ``repro graph --all --passes
all --json``.  Both are run in-process through :func:`repro.cli.main` and
compared byte for byte, with the kernel registry cut to the shipped
kernels (other test modules register kernels of their own).  Regenerate
on purpose with
``PYTHONPATH=src python -m repro lint --all --json > tests/golden/cli/lint.json``
(and likewise for ``graph``).
"""

import importlib
import weakref
from pathlib import Path

import pytest

from repro.analysis.lint import shipped_kernels
from repro.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "cli"

COMMANDS = {
    "lint": ["lint", "--all", "--json"],
    "graph": ["graph", "--all", "--passes", "all", "--json"],
}


@pytest.fixture
def shipped_registry(monkeypatch):
    shipped = weakref.WeakValueDictionary(
        {name: kern for name, kern in shipped_kernels().items()
         if kern.fn.__module__.startswith("repro.")})
    monkeypatch.setattr(importlib.import_module("repro.core.kernel"),
                        "_REGISTRY", shipped)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(capsys, shipped_registry, name):
    assert main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
