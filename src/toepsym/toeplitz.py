"""Truncations of Toeplitz and block-Toeplitz operators.

The truncation of a scalar symbol is the ``order x order`` matrix with entry
``(m, n) = c_(m-n)``; a 2x2 matrix symbol yields the ``2*order`` square array
of the four entry truncations.  A truncation holds only the symbol's entries
and its order.  Both of a check's routes read its coefficients times
``2**-e`` (``scaled``), built once per truncation; the dense ``data``, the
tests' reference, is built from the unscaled ``diagonals`` on first use only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conjugations import ConjugationSpec
from .symbols import LaurentSymbol, MatrixSymbol


def scale_exponent(parts: np.ndarray) -> int:
    """The least ``e >= 0`` with every element of the float array ``parts``
    below ``2**e`` in modulus: times ``2**-e``, exactly, each lies below 1."""
    return max(0, math.frexp(np.abs(parts).max(initial=0.0))[1])


def _rows(entries: tuple[LaurentSymbol, ...], n: int) -> np.ndarray:
    """Row ``e`` holds entry ``e``'s ``c_d`` at ``d + n - 1``, ``|d| < n``."""
    out = np.zeros((len(entries), 2 * n - 1), dtype=complex)
    for row, sym in zip(out, entries):
        keys, values = sym.exponents, sym.values
        if keys.size and (keys[0] <= -n or keys[-1] >= n):
            inside = slice(*keys.searchsorted((1 - n, n)))
            keys, values = keys[inside], values[inside]
        row[keys + (n - 1)] = values
    return out


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
    def bandwidth(self) -> int:
        """The largest bandwidth of ``entries``, which the residual's plan must reach."""
        return max(e.bandwidth for e in self.entries)

    @cached_property
    def diagonals(self) -> np.ndarray:
        """Row ``e`` holds entry ``e``'s ``c_d`` at ``d + order - 1``, ``|d| < order``."""
        out = _rows(self.entries, self.order)
        out.setflags(write=False)
        return out

    @cached_property
    def scaled(self) -> tuple[np.ndarray, int]:
        """``(rows, e)``: ``diagonals`` times ``2**-e``, ``e`` their
        :func:`scale_exponent`, so every part lies below 1.  Scaled on the
        float view, part by part: exact, and a ``-0.0`` part stays one."""
        rows = _rows(self.entries, self.order)
        parts = rows.view(float)
        e = scale_exponent(parts)
        if e:
            parts *= math.ldexp(1.0, -e)
        rows.setflags(write=False)
        return rows, e

    @cached_property
    def data(self) -> np.ndarray:
        """The dense truncation, built on first use."""
        n, g = self.order, self.grid
        at = np.subtract.outer(np.arange(n), np.arange(n)) + (n - 1)
        data = np.block([[self.diagonals[g * i + j][at] for j in range(g)] for i in range(g)])
        data.setflags(write=False)
        return data


def truncate(sym: LaurentSymbol | MatrixSymbol, order: int) -> TruncatedToeplitz:
    """Compression of multiplication by ``sym`` to the first ``order``
    coefficients; constant along diagonals by construction.  A matrix
    symbol's is the 2x2 grid of its entries' truncations."""
    return TruncatedToeplitz(sym.entries, order)


# the name of the block truncation, kept for callers that import it
block_truncate = truncate


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
