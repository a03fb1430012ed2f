"""Benchmark regenerating Table 4 (Hartree-Fock wall-clock times).

The quick mode covers the 64/128/256-atom rows; ``test_table4_hartreefock_full``
adds the 1024-atom / 6-Gaussian row, whose Schwarz screening over ~1.4e11
quadruples takes extra host time.  It carries the ``slow`` mark
(``benchmarks/conftest.py``): ``-m "not slow"`` deselects it.
"""

import pytest

from repro.experiments.table4_hartreefock import run

from .conftest import run_experiment_once


def test_table4_hartreefock(benchmark):
    run_experiment_once(benchmark, run, quick=True)


@pytest.mark.slow
def test_table4_hartreefock_full(benchmark):
    run_experiment_once(benchmark, run, quick=False)
