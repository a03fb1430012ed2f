"""Shared helpers for the benchmark suite.

Every paper artifact (Figures 2-7, Tables 2-5) has a benchmark that
regenerates it through the experiment harness; ``run_experiment_once`` wires
an experiment runner into pytest-benchmark (one round — the experiments are
deterministic model evaluations) and emits the regenerated rows with ``-s``.
"""

from __future__ import annotations

import json
import os

import pytest


def pytest_configure(config):
    """Register the ``slow`` mark (the full-size Table 4 benchmark).  It
    selects nothing by default: deselect it with ``-m "not slow"``."""
    config.addinivalue_line("markers",
                            "slow: a full-size paper benchmark (seconds)")


def pytest_sessionfinish(session, exitstatus):
    """Export the memo counters for ``repro bench-compare``.

    The CLI runs this benchmark suite in a subprocess, so its own memo
    counters never move; when it sets ``REPRO_CACHE_STATS_PATH`` we dump
    this process's counters there for the parent to report.
    """
    path = os.environ.get("REPRO_CACHE_STATS_PATH")
    if not path:
        return
    from repro.core.memo import memo_infos

    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"memo": memo_infos()}, fh)
    except OSError:  # pragma: no cover - best-effort reporting
        pass


def run_experiment_once(benchmark, runner, **options):
    """Benchmark one experiment execution and assert its paper checks pass."""
    result = benchmark.pedantic(lambda: runner(**options), rounds=1, iterations=1)
    assert result.all_passed, "\n" + "\n".join(
        c.to_text() for c in result.comparisons if not c.passed)
    print()
    print(result.to_text())
    return result
