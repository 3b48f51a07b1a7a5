"""Numeric oracle for the defining identity ``C T C = T*``.

With the antilinear action written as ``C x = A conj(x)``, the composition
``C T C`` has matrix ``A conj(T) conj(A)``, so the oracle reduces to a single
Frobenius-norm residual between that product and the conjugate transpose of
``T``.  The residual is normalized by ``max(1, ||T||_F)`` so the verdict is
invariant under nonzero rescaling of the symbol at the zero-residual level.
The product is formed in O(d^2) by gathers over ``A``'s permutation blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .conjugations import AntilinearOperator, ConjugationSpec, truncated_matrix
from .symbols import LaurentSymbol, MatrixSymbol
from .toeplitz import TruncatedToeplitz, block_truncate, min_truncation, truncate

SYMMETRY_TOL = 1e-10

SYMMETRIC = "symmetric"
NOT_SYMMETRIC = "not_symmetric"


@dataclass(frozen=True)
class SymmetryReport:
    residual: float
    order: int
    verdict: str
    tol: float

    @property
    def symmetric(self) -> bool:
        return self.verdict == SYMMETRIC


def _gather_sum(grid, size: int, v: np.ndarray, axis: int, out: np.ndarray, tmp: np.ndarray):
    """Rows (``axis`` 0) of ``G v`` or columns (1) of ``v G^T`` into ``out``,
    ``grid`` the block rows of ``G``.  Term ``t`` gathers block ``t`` of ``v``
    for all rows; terms add in ascending ``t``, as zgemm adds its K-panels."""
    for t in range(len(grid[0])):
        index = np.concatenate([t * size + row[t][0] for row in grid])
        # mode="clip" (every index is in range) lets take write unbuffered
        term = v.take(index, axis, tmp if t else out, "clip").swapaxes(0, axis)
        for b, row in enumerate(grid):
            part, w = term[b * size:(b + 1) * size], row[t][1]
            if isinstance(w, np.ndarray):  # each real product rounded, as in zgemm
                cross = part * w.imag[:, None]
                part *= w.real[:, None]
                part.real -= cross.imag
                part.imag += cross.real
            elif w is not None:
                part *= w
        if t:
            out += tmp


def residual(t: TruncatedToeplitz, c: AntilinearOperator) -> float:
    """``||A conj(T) conj(A) - T^*||_F / max(1, ||T||_F)``.

    ``A conj(T) conj(A)`` comes from gathers over ``c``'s blocks, rounded
    like the dense product (bit for bit for the unweighted permutation
    families).  The gathers and norms run on ``2**-e T`` with
    ``2**e > max |Re|, |Im|``, so finite huge symbols do not overflow; the
    scaling is exact, so the result is bit for bit the unscaled one wherever
    that is finite.
    """
    if c.dim != t.data.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator is {c.dim}, matrix is {t.data.shape[0]}")
    # reductions over a view: an abs() temporary would add to the peak memory
    parts = t.data.ravel().view(float)
    e = max(0, math.frexp(max(parts.max(), -parts.min()))[1])
    scale = math.ldexp(1.0, -e)
    v = np.multiply(t.data, scale)
    np.conjugate(v, out=v)  # conj(2**-e T); its transpose is 2**-e T^*
    # A v conj(A) = (A v) (A^*)^T by block rows of A v, in C order as the
    # dense product (for the norm's summation order); A^* inverts A's blocks
    adjoint = [[(p.argsort(), np.conj(w[p.argsort()]) if isinstance(w, np.ndarray) else w)
                for p, w in grid_col] for grid_col in zip(*c.blocks)]
    lhs, (rows, tmp) = np.empty_like(v), np.empty((2, c.size, c.dim), complex)
    for grid_row, out in zip(c.blocks, lhs.reshape(len(c.blocks), c.size, c.dim)):
        _gather_sum((grid_row,), c.size, v, 0, rows, tmp)
        _gather_sum(adjoint, c.size, rows, 1, out, tmp)
    lhs -= v.T
    return float(np.linalg.norm(lhs) / max(scale, np.linalg.norm(v)))


def is_c_symmetric(symbol: LaurentSymbol | MatrixSymbol, spec: ConjugationSpec,
                   tol: float = SYMMETRY_TOL, order: int | None = None) -> SymmetryReport:
    """Build the truncation pair for ``symbol`` under ``spec`` and report the
    residual verdict.

    The truncation order defaults to :func:`min_truncation` of the symbol's
    bandwidth; block specs require a :class:`MatrixSymbol` and scalar specs a
    :class:`LaurentSymbol`.
    """
    if not 0 < tol < math.inf:  # also false for NaN
        raise ValueError("tol must be finite and positive")
    block = spec.is_block
    if block != isinstance(symbol, MatrixSymbol):
        kind = "matrix" if block else "scalar"
        raise ValueError(f"spec {spec!r} requires a {kind} symbol")
    n = min_truncation(symbol.bandwidth, spec) if order is None else order
    t = block_truncate(symbol, n) if block else truncate(symbol, n)
    c = truncated_matrix(spec, n)
    r = residual(t, c)
    verdict = SYMMETRIC if r <= tol else NOT_SYMMETRIC
    return SymmetryReport(r, n, verdict, tol)


def report_to_json(report: SymmetryReport) -> dict:
    return {"residual": report.residual, "n": report.order,
            "verdict": report.verdict, "tol": report.tol}
