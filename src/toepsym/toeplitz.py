"""Dense truncations of Toeplitz and block-Toeplitz operators.

The truncation of a scalar symbol is the ``order x order`` matrix with entry
``(m, n) = c_(m-n)``; a 2x2 matrix symbol yields the ``2*order`` square array
of the four entry truncations.  Dense storage is deliberate: the residual
gathers its rows and columns in O(d^2) passes, and a residual that never forms
it (a closed-form norm over the coefficients) would round differently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conjugations import ConjugationSpec, period
from .symbols import LaurentSymbol, MatrixSymbol

SCALAR = "scalar"
BLOCK = "block"


@dataclass(frozen=True, eq=False)
class TruncatedToeplitz:
    data: np.ndarray
    order: int
    kind: str

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.data.shape[0]


def truncate(sym: LaurentSymbol, order: int) -> TruncatedToeplitz:
    """Compression of multiplication by ``sym`` to the first ``order``
    coefficients; constant along diagonals by construction."""
    if order < 1:
        raise ValueError("order must be >= 1")
    data = np.zeros((order, order), dtype=complex)
    for k, c in sym.items():
        if abs(k) >= order:
            continue
        idx = np.arange(max(0, k), order + min(0, k))
        data[idx, idx - k] = c
    return TruncatedToeplitz(data, order, SCALAR)


def block_truncate(msym: MatrixSymbol, order: int) -> TruncatedToeplitz:
    """2x2 grid of entry truncations, components ordered (first, second)."""
    b1, b2, b3, b4 = (truncate(e, order).data for e in msym.entries)
    return TruncatedToeplitz(np.block([[b1, b2], [b3, b4]]), order, BLOCK)


def adjoint(t: TruncatedToeplitz) -> TruncatedToeplitz:
    """Conjugate transpose; for scalar truncations equals the truncation of
    the bar symbol exactly."""
    return TruncatedToeplitz(t.data.conj().T.copy(), t.order, t.kind)


def matrix_dump(t: TruncatedToeplitz) -> list[list[float]]:
    """Row-major list of ``[re, im]`` entry pairs, for debugging and golden
    tests."""
    flat = t.data.reshape(-1)
    return [[z.real, z.imag] for z in flat]


def min_truncation(band: int, spec: ConjugationSpec) -> int:
    """Smallest truncation order that is a multiple of the family's period
    and at least ``2 * band + 4 * period``.

    The guard band is deliberately conservative; the test suite certifies it
    empirically by comparing verdicts against doubled truncations.
    """
    if band < 0:
        raise ValueError("band must be >= 0")
    per = period(spec)
    base = 2 * band + 4 * per
    return -(-base // per) * per
