"""What importing the package costs, and what its lazy re-exports resolve to.

``repro``, ``repro.core`` and the other re-exporting packages resolve their
names on first access, and ``repro.cli`` imports a command's subsystem only
when the command is dispatched.  These tests pin both halves: a cold
``import repro.cli`` stays free of NumPy and of every heavy subsystem, and
each lazily exported name is the defining module's own object.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: subpackages a cold ``import repro.cli`` must not load
HEAVY = ("repro.kernels", "repro.workloads", "repro.experiments",
         "repro.analysis", "repro.graphopt", "repro.tuning",
         "repro.harness")


def _fresh(code: str, cwd):
    """The JSON that *code* prints last, run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_numpy_and_no_subsystem(tmp_path):
    modules = _fresh("import json, sys; import repro.cli; "
                     "print(json.dumps(sorted(sys.modules)))", tmp_path)
    assert "numpy" not in modules
    loaded = [m for m in modules
              if any(m == p or m.startswith(p + ".") for p in HEAVY)]
    assert loaded == []


def test_registry_lists_the_builtins_without_importing_them(tmp_path):
    names, modules = _fresh(
        "import json, sys; from repro.workloads import list_workloads; "
        "print(json.dumps([list_workloads(), sorted(sys.modules)]))",
        tmp_path)
    assert names == ["babelstream", "hartreefock", "minibude", "stencil"]
    assert not [m for m in modules if m.startswith("repro.kernels")
                or m.startswith("repro.workloads.") and m.rpartition(".")[2]
                in names]


@pytest.mark.parametrize("package", [
    "repro", "repro.core", "repro.kernels", "repro.analysis",
    "repro.graphopt", "repro.harness", "repro.workloads"])
def test_every_export_is_the_defining_modules_object(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        assert name in dir(module), name
        value = getattr(module, name)
        if name == "__version__":
            assert isinstance(value, str)
        elif isinstance(value, types.ModuleType):
            assert value is sys.modules[f"{package}.{name}"]
        elif isinstance(value, (type, types.FunctionType)):
            defining = sys.modules[value.__module__]
            assert defining.__name__.startswith(package)
            assert vars(defining)[name] is value, name
        else:       # an instance: some module under the package binds it
            assert any(vars(m).get(name) is value
                       for n, m in list(sys.modules.items())
                       if n.startswith(package + ".")), name


def test_unknown_name_raises_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no_such_name"):
        repro.no_such_name
