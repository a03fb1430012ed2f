"""Regions against execution: the region analysis over-approximates what
the lockstep interpreter actually touches.

Every launch of ``tests/gpu/test_mode_differential.py::CASES`` runs twice
on the vectorized interpreter.  The first run starts its write-only
outputs from a sentinel: every element that changes must lie inside a
write box of ``concretize_launch``.  The second run poisons every element
outside the read boxes with NaN: everything inside the read and write
boxes must come out byte-identical, so the kernel read nothing it was not
reported to read.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import concretize_launch
from repro.core.layout import LayoutTensor
from repro.gpu.executor import KernelExecutor

_DIFF = Path(__file__).resolve().parents[1] / "gpu" \
    / "test_mode_differential.py"
_spec = importlib.util.spec_from_file_location("mode_differential", _DIFF)
diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff)

SENTINEL = -12345.5


def _view(t: LayoutTensor) -> np.ndarray:
    return t.ptr[:t.size].reshape(t.shape)


def _inside(shape, boxes) -> np.ndarray:
    out = np.zeros(shape, dtype=bool)
    for box in boxes:
        out[tuple(slice(lo, hi + 1) for lo, hi in box)] = True
    return out


def _differs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise byte inequality (NaNs with equal bits compare equal)."""
    width = a.dtype.itemsize
    return (a.view(np.uint8).reshape(a.shape + (width,))
            != b.view(np.uint8).reshape(b.shape + (width,))).any(axis=-1)


class _Checked:
    """Runs each launch twice on the interpreter and checks its regions."""

    def __init__(self):
        self.executor = KernelExecutor()
        self.launches = 0

    def _run(self, kern, args, launch):
        return self.executor.launch(kern, args, launch, mode="vectorized")

    def launch(self, kern, args, launch, mode=None):
        lr = concretize_launch(kern, args, launch)
        assert lr is not None, kern.name
        regions = lr.by_index()
        tensors = {i: a for i, a in enumerate(args)
                   if isinstance(a, LayoutTensor)}
        reads = {i: _inside(t.shape, regions[i].reads)
                 for i, t in tensors.items()}
        writes = {i: _inside(t.shape, regions[i].writes)
                  for i, t in tensors.items()}
        for i, t in tensors.items():
            if writes[i].any() and not reads[i].any():
                _view(t)[...] = SENTINEL
        before = {i: _view(t).copy() for i, t in tensors.items()}

        result = self._run(kern, args, launch)
        after = {i: _view(t).copy() for i, t in tensors.items()}
        assert any(_differs(after[i], before[i]).any() for i in tensors), \
            kern.name
        for i, t in tensors.items():
            escaped = _differs(after[i], before[i]) & ~writes[i]
            assert not escaped.any(), (kern.name, i, np.argwhere(escaped)[:4])

        for i, t in tensors.items():
            poisoned = before[i].copy()
            poisoned[~reads[i]] = np.nan
            _view(t)[...] = poisoned
        self._run(kern, args, launch)
        for i, t in tensors.items():
            inside = reads[i] | writes[i]
            changed = _differs(_view(t), after[i]) & inside
            assert not changed.any(), (kern.name, i, np.argwhere(changed)[:4])
            _view(t)[...] = after[i]
        self.launches += 1
        return result


@pytest.mark.parametrize("family", sorted(diff.CASES))
def test_regions_cover_what_the_interpreter_touches(family):
    run_case, tiers = diff.CASES[family]
    checked = _Checked()
    run_case(checked, "vectorized")
    assert checked.launches == len(tiers)
