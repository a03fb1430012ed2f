"""Kernel verifier: each broken fixture fires exactly its rule.

The fixtures live in ``fixtures/broken_kernels.py`` as plain functions
(see that module's docstring for why); they are wrapped in bare
:class:`Kernel` objects here so the registry ``repro lint`` walks stays
untouched.
"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pytest

from repro.analysis import lint_kernel, verify_kernel
from repro.analysis.lint import shipped_kernels
from repro.core.device import DeviceContext
from repro.core.dtypes import DType
from repro.core.errors import AnalysisError
from repro.core.kernel import Kernel, LaunchConfig
from repro.gpu.executor import KernelExecutor

_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "broken_kernels.py"
_spec = importlib.util.spec_from_file_location("broken_kernels", _FIXTURE)
broken = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(broken)


def _rules(kern):
    return sorted({d.rule for d in lint_kernel(kern)})


@pytest.mark.parametrize("fn_name, rule", [
    ("divergent_barrier", "KV101"),
    ("shared_memory_race", "KV102"),
    ("unguarded_oob", "KV103"),
    ("loop_carried_lane_index", "KV103"),
    ("simt_unsafe_print", "KV104"),
    ("data_dependent_while", "KV105"),
])
def test_fixture_fires_exactly_its_rule(fn_name, rule):
    kern = Kernel(getattr(broken, fn_name))
    assert _rules(kern) == [rule]


def test_guarded_clean_has_no_diagnostics():
    kern = Kernel(broken.guarded_clean)
    assert _rules(kern) == []
    # the lane-dependent if still blocks positive vector-safety inference —
    # the executors' scalar fallback for undeclared guarded kernels depends
    # on this staying False
    assert verify_kernel(kern).inferred is False


def test_verify_result_is_memoised():
    kern = Kernel(broken.unguarded_oob)
    assert verify_kernel(kern) is verify_kernel(kern)


def test_strict_kernel_refused_at_first_launch_resolution():
    """``strict=True`` is checked where a body would first run, not at
    decoration: every executor mode, ``instantiate`` and a captured graph
    refuse the unsound kernel before any lane runs, and lint reports it."""
    kern = Kernel(broken.divergent_barrier, strict=True)     # no raise
    launch = LaunchConfig.make(1, 4)
    out = np.zeros(1)
    executor = KernelExecutor()
    for mode in ("auto", "lowered", "vectorized", "sequential",
                 "cooperative"):
        with pytest.raises(AnalysisError, match="KV101"):
            executor.launch(kern, (out,), launch, mode=mode)
    with pytest.raises(AnalysisError, match="KV101"):
        executor.instantiate(kern, (out,), launch)
    ctx = DeviceContext("h100")
    buf = ctx.enqueue_create_buffer(DType.float64, 1)
    with pytest.raises(AnalysisError, match="KV101"):
        with ctx.capture("strict") as graph:
            ctx.enqueue_function(kern, buf, grid_dim=1, block_dim=4)
        graph.replay()
    assert out[0] == 0.0 and buf.array[0] == 0.0     # no lane ran
    assert "KV101" in _rules(kern)


def test_strict_decoration_accepts_clean_kernel():
    kern = Kernel(broken.guarded_clean, strict=True)
    assert _rules(kern) == []


#: the eight kernels the four science-kernel modules register
SHIPPED = {"laplacian_kernel", "copy_kernel", "mul_kernel", "add_kernel",
           "triad_kernel", "dot_kernel", "fasten_kernel",
           "hartree_fock_kernel"}


def test_shipped_kernels_verify_clean_and_inferred_safe():
    kernels = shipped_kernels()
    assert SHIPPED <= set(kernels)
    # the whole registry — including kernels other test modules registered
    # in this process — must lint clean; that is the `repro lint` contract
    for name, kern in kernels.items():
        assert _rules(kern) == [], f"{name} has diagnostics"
    for name in SHIPPED:
        # the verifier proves every shipped kernel lockstep-safe: that
        # proof, not a declaration, is what lets them lower
        assert verify_kernel(kernels[name]).inferred is True, name
