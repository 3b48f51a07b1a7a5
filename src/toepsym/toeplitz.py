"""Truncations of Toeplitz and block-Toeplitz operators.

The truncation of a scalar symbol is the ``order x order`` matrix with entry
``(m, n) = c_(m-n)``; a 2x2 matrix symbol yields the ``2*order`` square array
of the four entry truncations.  A truncation holds only the symbol's entries
and its order; the oracle reads their coefficients (``diagonals``), and the
dense ``data`` is built on first use only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conjugations import ConjugationSpec
from .symbols import LaurentSymbol, MatrixSymbol


@dataclass(frozen=True, eq=False)
class TruncatedToeplitz:
    """Order-``order`` truncations of ``entries``: one scalar symbol, or the
    four entries of a 2x2 symbol, row-major."""

    entries: tuple[LaurentSymbol, ...]
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")

    @property
    def grid(self) -> int:
        return 1 if len(self.entries) == 1 else 2

    @cached_property
    def diagonals(self) -> np.ndarray:
        """Row ``e`` holds entry ``e``'s ``c_d`` at ``d + order - 1``, ``|d| < order``."""
        n = self.order
        out = np.zeros((len(self.entries), 2 * n - 1), dtype=complex)
        for row, sym in zip(out, self.entries):
            coeffs = {k: c for k, c in sym.coeffs.items() if abs(k) < n}
            row[np.fromiter(coeffs, int, len(coeffs)) + (n - 1)] = list(coeffs.values())
        out.setflags(write=False)
        return out

    @cached_property
    def data(self) -> np.ndarray:
        """The dense truncation, built on first use."""
        n, g = self.order, self.grid
        at = np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)
        data = np.block([[self.diagonals[g * i + j][at] for j in range(g)] for i in range(g)])
        data.setflags(write=False)
        return data


def truncate(sym: LaurentSymbol, order: int) -> TruncatedToeplitz:
    """Compression of multiplication by ``sym`` to the first ``order``
    coefficients; constant along diagonals by construction."""
    return TruncatedToeplitz((sym,), order)


def block_truncate(msym: MatrixSymbol, order: int) -> TruncatedToeplitz:
    """2x2 grid of entry truncations, components ordered (first, second)."""
    return TruncatedToeplitz(msym.entries, order)


def min_truncation(band: int, spec: ConjugationSpec) -> int:
    """Smallest truncation order that is a multiple of the family's period
    and at least ``2 * band + 4 * period``.

    The guard band is deliberately conservative; the test suite certifies it
    empirically by comparing verdicts against doubled truncations.
    """
    if band < 0:
        raise ValueError("band must be >= 0")
    per = spec.period
    base = 2 * band + 4 * per
    return -(-base // per) * per
