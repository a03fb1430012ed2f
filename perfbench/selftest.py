"""Self-test of the benchmark's layer wrappers.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py

Checks that

* wrapping is by identity: a function imported by value into another module
  is wrapped there too, and removing the wrappers restores every binding;
* the recorder keeps recording while ``repro.obs`` has its own
  ``TraceCollector`` installed (as ``repro report`` does);
* the untraced path installs no wrapper and no import hook;
* every layer records work on the workload NOTES.md marks for it, in a
  ``--trace 1`` run of ``run.py``, and the import is timed at set-up.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import layers
import run

#: layer -> the workload whose traced run must record work in it
MARKED = {
    "cli": "cli-warm", "cache": "cli-warm", "capture": "cli-warm",
    "graphopt": "cli-warm", "analysis": "cli-warm", "tuning": "cli-warm",
    "experiment": "cli-warm", "report": "cli-warm",
    "request": "sweep-mixed", "setup": "sweep-mixed",
    "compile": "sweep-mixed", "model": "sweep-mixed", "verify": "sweep-mixed",
    "replay": "graph-replay",
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_wrapping_and_untraced_path() -> None:
    run.SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=run.SCRATCH, prefix="selftest-"))
    try:
        samples, _, _, _ = run.measure("sweep-mixed", 1, 0.1, False, scratch)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    check(samples and all(s.ok for s in samples), "untraced sweep failed")
    check(layers.wrapped_targets() == [], "untraced run left wrappers")
    check(not any(isinstance(f, layers._WrapOnImport) for f in sys.meta_path),
          "untraced run left an import hook")

    import repro.kernels.hartreefock.runner as hf_runner
    import repro.workloads.hartreefock as hf_workload
    from repro.obs import TraceCollector, install_trace_collector
    from repro.workloads import get_workload

    original = hf_runner.compute_schwarz
    recorder = layers.Recorder()
    installation = layers.Installation(recorder)
    try:
        check(hf_workload.compute_schwarz is hf_runner.compute_schwarz
              and hf_runner.compute_schwarz is not original,
              "compute_schwarz imported by value was not wrapped")
        workload = get_workload("hartreefock")
        with install_trace_collector(TraceCollector()):
            workload.run(workload.make_request(params={"natoms": 8},
                                               verify=False))
    finally:
        installation.remove()
    check(recorder.calls["setup.schwarz"] >= 1,
          "no Schwarz call recorded under a TraceCollector")
    check(recorder.calls["request.validate"] >= 1, "no request recorded")
    check(hf_workload.compute_schwarz is original
          and hf_runner.compute_schwarz is original,
          "removing the wrappers did not restore compute_schwarz")
    check(layers.wrapped_targets() == [], "wrappers left after remove()")


def test_layers_record_on_marked_workloads() -> None:
    for workload in sorted(set(MARKED.values())):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
            timeout=600)
        lines = proc.stdout.splitlines()
        detail = json.loads(next(line for line in lines
                                 if line.startswith("breakdown "))
                            .split(" ", 1)[1])
        result = json.loads(lines[-1])
        check(result["correct"], f"{workload}: traced run failed")
        check(detail["import_ms"] > 0, f"{workload}: import not timed")
        for layer, marked in MARKED.items():
            if marked == workload:
                check(detail["layers_ms"][layer] > 0,
                      f"{workload}: layer {layer!r} recorded no time")


def main() -> int:
    for test in (test_wrapping_and_untraced_path,
                 test_layers_record_on_marked_workloads):
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
