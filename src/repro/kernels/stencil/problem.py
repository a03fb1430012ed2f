"""Problem setup for the seven-point Laplacian stencil.

The stencil discretises the Laplacian operator on a structured 3-D grid of
``L x L x L`` cells with spacing ``h`` in each direction.  The paper follows
AMD's lab-notes HIP implementation: the field is initialised with a quadratic
profile whose analytic Laplacian is a known constant, which doubles as the
correctness check for the ported kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from ...core.dtypes import DType, dtype_from_any
from ...core.errors import ConfigurationError
from ...core.memo import Memo
from ..expected import expected_output
from .reference import laplacian_reference

__all__ = ["StencilProblem", "FIELD_MEMO"]

#: initial fields by (L, extent, dtype): every verify, probe and reference
#: of one grid shares one read-only array
FIELD_MEMO = Memo("stencil_field")


@dataclass
class StencilProblem:
    """A seven-point stencil problem instance.

    Parameters
    ----------
    L:
        Grid points per direction (the paper uses 512 and 1024).
    precision:
        ``"float32"`` or ``"float64"``.
    extent:
        Physical domain edge length; the spacing is ``extent / (L - 1)``.
    """

    L: int
    precision: str = "float64"
    extent: float = 1.0

    def __post_init__(self):
        if self.L < 3:
            raise ConfigurationError(
                f"stencil needs at least 3 points per direction, got L={self.L}"
            )
        self.dtype: DType = dtype_from_any(self.precision)
        if not self.dtype.is_float:
            raise ConfigurationError("stencil precision must be a float type")

    # ------------------------------------------------------------ geometry
    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.L, self.L, self.L)

    @property
    def num_cells(self) -> int:
        return self.L ** 3

    @property
    def num_interior(self) -> int:
        return (self.L - 2) ** 3

    @property
    def spacing(self) -> Tuple[float, float, float]:
        h = self.extent / (self.L - 1)
        return (h, h, h)

    @property
    def inverse_spacing_squared(self) -> Tuple[float, float, float, float]:
        """``(invhx2, invhy2, invhz2, invhxyz2)`` as passed to the kernel."""
        hx, hy, hz = self.spacing
        invhx2 = 1.0 / (hx * hx)
        invhy2 = 1.0 / (hy * hy)
        invhz2 = 1.0 / (hz * hz)
        invhxyz2 = -2.0 * (invhx2 + invhy2 + invhz2)
        return (invhx2, invhy2, invhz2, invhxyz2)

    @property
    def key(self) -> Tuple[int, float, str]:
        """``(L, extent, dtype)``: what the initial field and the expected
        Laplacian are memoised by."""
        return (self.L, self.extent, self.dtype.name)

    # --------------------------------------------------------------- fields
    def initial_field(self) -> np.ndarray:
        """Quadratic input field ``u(x, y, z) = x^2 + y^2 + z^2``.

        Its analytic Laplacian is the constant 6, giving an exact expected
        value for every interior cell.  Memoised (:data:`FIELD_MEMO`); the
        returned array is read-only.
        """
        return FIELD_MEMO.get_or_compute(self.key, self._build_field)

    def expected_laplacian(self) -> np.ndarray:
        """Host reference Laplacian of :meth:`initial_field`.

        Boundary cells are zero, as in the device kernel's output buffer.
        Memoised by :attr:`key` in the ``reference`` memo
        (:mod:`repro.kernels.expected`); the returned array is read-only.
        """
        return expected_output(
            "stencil", self.key,
            lambda: laplacian_reference(self.initial_field(),
                                        *self.inverse_spacing_squared))

    def _build_field(self) -> np.ndarray:
        np_dtype = self.dtype.to_numpy()
        hx, hy, hz = self.spacing
        x = (np.arange(self.L) * hx).astype(np_dtype)
        y = (np.arange(self.L) * hy).astype(np_dtype)
        z = (np.arange(self.L) * hz).astype(np_dtype)
        xx, yy, zz = np.meshgrid(x, y, z, indexing="ij")
        return (xx * xx + yy * yy + zz * zz).astype(np_dtype)

    # --------------------------------------------------------------- sizing
    def memory_footprint_bytes(self) -> int:
        """Device bytes required (input + output field)."""
        return 2 * self.num_cells * self.dtype.sizeof

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"StencilProblem(L={self.L}, {self.dtype.name})"
