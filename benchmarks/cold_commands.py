"""Time cold CLI commands of one or more checkouts, as ratios to ``import numpy``.

Run from the repository root::

    python benchmarks/cold_commands.py PARENT_CHECKOUT . --label "what changed"

Each command runs in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``, from an empty working directory, so every run is cold: no
result cache, no tuning database, no memo.  Bytecode is compiled first
(``compileall``), so the runs read warm ``.pyc`` files as an installed
package does.  The checkouts alternate within each repeat (the order flips
every repeat) and each command keeps its best time, so a host that slows
down for a while moves both sides alike.  Each time is also reported as a
ratio to ``import numpy`` on the same host, the unit the ROADMAP targets
use; ``import numpy`` does not depend on the checkout, so the ratios of
every checkout share its best time over all of them.

``--append BENCH_e2e.json`` adds the result as one row of that trajectory
file: a host fingerprint (CPU count, Python and NumPy versions), the
method, and per command each checkout's best seconds and ratio.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: command label -> interpreter arguments
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import numpy": ["-c", "import numpy"],
    "import repro.cli": ["-c", "import repro.cli"],
    "repro list": ["-m", "repro", "list"],
    "bench stencil --no-cache": ["-m", "repro", "bench", "stencil",
                                 "--no-cache"],
    "bench hartreefock --no-cache": ["-m", "repro", "bench", "hartreefock",
                                     "--no-cache"],
    "lint --all --json": ["-m", "repro", "lint", "--all", "--json"],
    "graph --all --json": ["-m", "repro", "graph", "--all", "--json"],
    "report": ["-m", "repro", "report"],
}


def run_once(checkout: Path, argv) -> float:
    """Wall seconds of one cold run of ``python *argv`` against *checkout*."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(checkout / "src")
    with tempfile.TemporaryDirectory() as cwd:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=600)
        elapsed = time.perf_counter() - start
    if proc.returncode not in (0, 1):    # 1: a paper check or lint finding
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited "
                         f"{proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return elapsed


def measure(checkouts, repeats: int):
    """Best seconds per checkout and command."""
    for checkout in checkouts:
        compileall.compile_dir(str(checkout / "src"), quiet=1)
    best = {str(c): {name: float("inf") for name in COMMANDS}
            for c in checkouts}
    for repeat in range(repeats):
        order = checkouts if repeat % 2 == 0 else checkouts[::-1]
        for name, argv in COMMANDS.items():
            for checkout in order:
                seconds = run_once(checkout, argv)
                best[str(checkout)][name] = min(best[str(checkout)][name],
                                                seconds)
    return best


def host_fingerprint() -> dict:
    import numpy

    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkouts", nargs="+", type=Path,
                        help="repository checkouts to time (e.g. the "
                             "parent commit's, then this one)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs per command and checkout; the best "
                             "counts (default 5)")
    parser.add_argument("--label", default="",
                        help="what the row measures (the change)")
    parser.add_argument("--names", nargs="*", default=None,
                        help="a name per checkout for the row (default: "
                             "the paths)")
    parser.add_argument("--append", type=Path, default=None,
                        metavar="BENCH_e2e.json",
                        help="append the result as a row of this file")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    names = args.names or [str(c) for c in args.checkouts]
    if len(names) != len(checkouts):
        parser.error("give one --names entry per checkout")
    best = measure(checkouts, args.repeats)
    numpy_s = min(times["import numpy"] for times in best.values())
    commands = {}
    for name in COMMANDS:
        commands[name] = {}
        for label, checkout in zip(names, checkouts):
            seconds = best[str(checkout)][name]
            commands[name][label] = {"s": round(seconds, 4),
                                     "x_numpy": round(seconds / numpy_s, 2)}
    for name, row in commands.items():
        cells = "  ".join(f"{label} {v['s']:.3f} s ({v['x_numpy']:.2f}x)"
                          for label, v in row.items())
        print(f"{name:30s} {cells}")
    if args.append is not None:
        document = (json.loads(args.append.read_text())
                    if args.append.exists() else
                    {"schema": "repro.bench-e2e/v1", "rows": []})
        document["rows"].append({
            "label": args.label,
            "host": host_fingerprint(),
            "method": (f"cold interpreter per run, warm bytecode, best of "
                       f"{args.repeats}, checkouts alternating"),
            "commands": commands,
        })
        args.append.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
