"""Expected outputs of the kernel verifiers, memoised by problem.

A kernel family's host reference (``kernels/<k>/reference.py``) is a pure
function of its problem, and a sweep verifies the same few problems over and
over.  :func:`expected_output` pays for each reference once per
``(family, problem key)`` (:data:`REFERENCE_MEMO`).  Only the host-side
expected array is reused: every verified run still launches the kernel and
compares its fresh download against it.  A problem without a key (a
hand-built system or deck) is computed fresh on every call.  The returned
array is read-only either way.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

import numpy as np

from ..core.memo import Memo

__all__ = ["REFERENCE_MEMO", "expected_output"]

#: expected verifier outputs by ``(family, problem key)``
REFERENCE_MEMO = Memo("reference")


def expected_output(family: str, key: Optional[Hashable],
                    compute: Callable[[], np.ndarray]) -> np.ndarray:
    """``compute()`` memoised under ``(family, key)``; fresh when *key* is None."""
    if key is None:
        expected = compute()
        expected.flags.writeable = False
        return expected
    return REFERENCE_MEMO.get_or_compute((family, key), compute)
