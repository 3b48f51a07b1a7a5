"""Numeric oracle for the defining identity ``C T C = T*``.

With the antilinear action written as ``C x = A conj(x)``, the composition
``C T C`` has matrix ``A conj(T) conj(A)``, so the oracle reduces to a single
Frobenius-norm residual between that product and the conjugate transpose of
``T``.  The residual is normalized by ``max(1, ||T||_F)`` so the verdict is
invariant under nonzero rescaling of the symbol at the zero-residual level.
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


def residual(t: TruncatedToeplitz, c: AntilinearOperator) -> float:
    """``||A conj(T) conj(A) - T^*||_F / max(1, ||T||_F)``.

    ``conj(A)`` is taken explicitly so complex-diagonal families go through
    the same path as the real permutation ones.
    """
    a = c.matrix
    if a.shape[0] != t.data.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator is {a.shape[0]}, matrix is {t.data.shape[0]}")
    lhs = a @ np.conj(t.data) @ np.conj(a)
    diff = lhs - t.data.conj().T
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(t.data)))


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
