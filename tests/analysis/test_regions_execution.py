"""Regions against execution: the region analysis over-approximates what
the lockstep interpreter actually touches.

Every launch of ``tests/gpu/test_mode_differential.py::CASES`` runs twice
on the vectorized interpreter.  The first run starts its write-only
outputs from a sentinel: every element that changes must lie inside a
write box of ``concretize_launch``.  The second run poisons every element
outside the read boxes with NaN: everything inside the read and write
boxes must come out byte-identical, so the kernel read nothing it was not
reported to read.

The arguments the analysis proves in bounds (``ArgRegion.in_bounds``) run
without bounds checks, so each runs on storage twice its size whose tail
holds the sentinel in the first run and NaN in the second: the tail must
come out unchanged and, as NaN, must not reach anything inside the boxes.
An index past the extent, or a negative one wrapping around, lands in the
tail.  The same holds for the lowered code (``auto``) and for the region
fixtures of ``fixtures/region_kernels.py``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import concretize_launch
from repro.core.dtypes import DType
from repro.core.errors import LayoutError
from repro.core.kernel import Kernel, LaunchConfig
from repro.core.layout import Layout, LayoutTensor
from repro.gpu.executor import KernelExecutor

_DIFF = Path(__file__).resolve().parents[1] / "gpu" \
    / "test_mode_differential.py"
_spec = importlib.util.spec_from_file_location("mode_differential", _DIFF)
diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff)
_FIX = Path(__file__).resolve().parent / "fixtures" / "region_kernels.py"
_spec = importlib.util.spec_from_file_location("region_kernels", _FIX)
region_kernels = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(region_kernels)

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


def _padded(t: LayoutTensor) -> LayoutTensor:
    """*t* on storage twice its size, the tail holding the sentinel."""
    store = np.full(2 * t.size, SENTINEL, dtype=t.ptr.dtype)
    store[:t.size] = t.ptr[:t.size]
    return LayoutTensor(t.dtype, t.layout, store, mut=t.mut)


def _tail(t: LayoutTensor) -> np.ndarray:
    return t.ptr[t.size:]


class _Checked:
    """Runs each launch twice in one mode and checks its regions."""

    def __init__(self, mode="vectorized"):
        self.executor = KernelExecutor()
        self.mode = mode
        self.launches = 0
        self.proven = 0

    def _run(self, kern, args, launch):
        return self.executor.launch(kern, args, launch, mode=self.mode)

    def launch(self, kern, args, launch, mode=None):
        lr = concretize_launch(kern, args, launch)
        assert lr is not None, kern.name
        regions = lr.by_index()
        originals = {i: a for i, a in enumerate(args)
                     if isinstance(a, LayoutTensor)}
        proven = lr.in_bounds & set(originals)
        args = tuple(_padded(a) if i in proven else a
                     for i, a in enumerate(args))
        tensors = {i: args[i] for i in originals}
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
        for i in proven:
            tail = _tail(tensors[i])
            assert not _differs(tail, np.full_like(tail, SENTINEL)).any(), \
                (kern.name, i, "written past its extent")

        for i, t in tensors.items():
            poisoned = before[i].copy()
            poisoned[~reads[i]] = np.nan
            _view(t)[...] = poisoned
        for i in proven:
            _tail(tensors[i])[...] = np.nan
        self._run(kern, args, launch)
        for i, t in tensors.items():
            inside = reads[i] | writes[i]
            changed = _differs(_view(t), after[i]) & inside
            assert not changed.any(), (kern.name, i, np.argwhere(changed)[:4])
            _view(originals[i])[...] = after[i]
        for i in proven:
            tail = _tail(tensors[i])
            assert not _differs(tail, np.full_like(tail, np.nan)).any(), \
                (kern.name, i, "written past its extent")
        self.launches += 1
        self.proven += len(proven)
        return result


@pytest.mark.parametrize("family", sorted(diff.CASES))
def test_regions_cover_what_the_interpreter_touches(family):
    run_case, tiers = diff.CASES[family]
    checked = _Checked()
    run_case(checked, "vectorized")
    assert checked.launches == len(tiers)
    assert checked.proven > 0


@pytest.mark.parametrize("family", sorted(diff.CASES))
def test_proven_arguments_stay_inside_their_extent_lowered(family):
    run_case, tiers = diff.CASES[family]
    checked = _Checked("auto")
    run_case(checked, "auto")
    assert checked.launches == len(tiers)


def _f64(data):
    data = np.asarray(data, dtype=np.float64)
    return LayoutTensor(DType.float64, Layout.row_major(data.size), data)


#: region fixture -> (argument builder, launch); every launch is proven in
#: bounds for every tensor it passes
FIXTURE_LAUNCHES = {
    "guarded_copy": (lambda: (_f64(np.arange(100.0) + 1), _f64(np.zeros(100)),
                              60), LaunchConfig.make(4, 32)),
    "tile_scale": (lambda: (_f64(np.arange(64.0) + 1), 8, 40),
                   LaunchConfig.make(1, 64)),
    "guarded_accumulate": (lambda: (_f64(np.arange(50.0) + 1),
                                    _f64(np.zeros(50)), 50),
                           LaunchConfig.make(2, 32)),
    "oob_copy": (lambda: (_f64(np.arange(64.0) + 1), _f64(np.zeros(64)), 64),
                 LaunchConfig.make(2, 32)),
}


@pytest.mark.parametrize("mode", ["vectorized", "auto", "sequential"])
@pytest.mark.parametrize("name", sorted(FIXTURE_LAUNCHES))
def test_region_fixtures_touch_only_their_proven_extent(name, mode):
    kern = Kernel(getattr(region_kernels, name))
    build, launch = FIXTURE_LAUNCHES[name]
    args = build()
    lr = concretize_launch(kern, args, launch)
    assert lr.in_bounds == {i for i, a in enumerate(args)
                            if isinstance(a, LayoutTensor)}
    checked = _Checked(mode)
    checked.launch(kern, args, launch)
    assert checked.proven == len(lr.in_bounds)


def test_unproven_launch_keeps_its_checks():
    # one lane more than the extent: the unguarded copy is not proven and
    # the escaping lane raises instead of reading past the end
    kern = Kernel(region_kernels.oob_copy)
    args = (_f64(np.arange(64.0)), _f64(np.zeros(64)), 64)
    launch = LaunchConfig.make(1, 65)
    assert not concretize_launch(kern, args, launch).in_bounds
    for mode in ("vectorized", "auto", "sequential"):
        with pytest.raises(LayoutError):
            KernelExecutor().launch(kern, args, launch, mode=mode)
