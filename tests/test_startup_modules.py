"""The set of ``repro`` modules a cold ``repro bench stencil`` imports.

Every module on this path is paid for by every cold command, so a new
import must be a deliberate choice, and a deletion shows up here as a
shorter list.  ``startup_modules.txt`` holds the sorted module names;
regenerate it on purpose with
``PYTHONPATH=src python tests/test_startup_modules.py --write``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
EXPECTED = Path(__file__).with_name("startup_modules.txt")

_CODE = """
import json, sys
from repro.cli import main
code = main(["bench", "stencil", "--no-cache"])
print(json.dumps({"code": code, "modules": sorted(
    m for m in sys.modules if m == "repro" or m.startswith("repro."))}))
"""


def bench_stencil_modules(cwd) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CODE], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    payload = json.loads(proc.stdout.splitlines()[-1])
    assert payload["code"] == 0
    return payload["modules"]


def test_bench_stencil_imports_the_committed_module_set(tmp_path):
    expected = EXPECTED.read_text().split()
    assert bench_stencil_modules(tmp_path) == expected


if __name__ == "__main__":
    if "--write" in sys.argv:
        import tempfile

        with tempfile.TemporaryDirectory() as scratch:
            EXPECTED.write_text("\n".join(bench_stencil_modules(scratch))
                                + "\n")
