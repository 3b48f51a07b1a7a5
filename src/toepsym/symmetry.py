"""Numeric oracle for the defining identity ``C T C = T*``.

With the antilinear action written as ``C x = A conj(x)``, the composition
``C T C`` has matrix ``A conj(T) conj(A)``, so the oracle reduces to a single
Frobenius-norm residual between that product and the conjugate transpose of
``T``.  The residual is normalized by ``max(1, ||T||_F)`` so the verdict is
invariant under nonzero rescaling of the symbol at the zero-residual level.
Both norms come from the symbol's coefficients: the difference is block
Toeplitz, so its first block row and column carry every distinct block.  It
agrees with the dense formula to rounding (the tests hold it to
``1e-12 * max(1, dense)``), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugations import AntilinearOperator, ConjugationSpec, truncated_matrix
from .symbols import LaurentSymbol, MatrixSymbol
from .toeplitz import TruncatedToeplitz, block_truncate, min_truncation, truncate

SYMMETRY_TOL = 1e-10
RESIDUAL_BUDGET_BYTES = 1 << 28

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


def _strips(order: int, period: int) -> tuple[np.ndarray, ...]:
    """The first block row and column of an ``order`` square matrix of
    ``period``-square blocks, ``(m, q)`` with ``m < period`` or ``q < period``:
    ``m``, ``q - q % period``, ``q % period``, the ``diagonals`` column of
    ``c_(q-m)``, and (twice, for real and imaginary parts) the number of times
    the block diagonal ``L`` of ``(m, q)`` repeats, ``order / period - |L|``,
    and the length of each diagonal ``d``, ``order - |d|``."""
    head = np.indices((period, order)).reshape(2, -1)
    side = np.indices((order - period, period)).reshape(2, -1) + [[period], [0]]
    rows, cols = np.concatenate([head, side], axis=1)
    residue = cols % period
    return (rows, cols - residue, residue, cols - rows + (order - 1),
            np.repeat(order // period - rows // period - cols // period, 2),
            np.repeat(order - abs(np.arange(1 - order, order)), 2))


def residual(t: TruncatedToeplitz, c: AntilinearOperator) -> float:
    """``||A conj(T) conj(A) - T^*||_F / max(1, ||T||_F)``, from coefficients.

    ``A``'s blocks commute with shifts by ``c.period``, so each quadrant of
    ``R = A conj(T) conj(A) - T^*`` is block Toeplitz, ``K`` period-square
    blocks a side, and ``||R||_F^2 = sum_L (K - |L|) ||R_L||_F^2`` over the
    blocks of its first block row and column: O(period * order) entries, each
    a sum of ``w c w'`` terms read from ``c`` and ``t.diagonals``.
    ``||T||_F^2 = sum_d (order - |d|) |c_d|^2``.  The coefficients are scaled
    by ``2**-e``, ``2**e > max |Re|, |Im|``, so huge symbols do not overflow;
    numpy's pairwise sums do not depend on the BLAS thread count.
    """
    n, g, perms, weights = t.order, t.grid, c.perms, c.weights
    if (g, n) != (perms.shape[0], c.size):
        raise ValueError(f"shape mismatch: operator has {perms.shape[0]}-square grid of size "
                         f"{c.size}, matrix {g}-square grid of order {n}")
    rows, base, residue, adjoint_at, repeats, lengths = _strips(n, c.period)
    e = max(0, math.frexp(np.abs(t.diagonals.view(float)).max())[1])
    scale = math.ldexp(1.0, -e)
    v = np.conj(t.diagonals * scale)  # conj(2**-e T): entry e's c_d at [e, d + n - 1]
    # column q of conj(A_lj) is the unit row perm_lj^-1(q) weighted conj(w);
    # the inverse commutes with period shifts too, so it comes from residues
    inverse = perms[..., :c.period].argsort().take(residue, axis=2) + base
    block = np.arange(g * g).reshape(g, g, 1)  # flat index of grid block (k, l)
    # term (k, l) of quadrant (i, j), axes (i, j, k, l, entry), broadcast:
    # w_ik[m] conj(c^kl_(perm_ik[m] - inverse_lj[q])) conj(w_lj[inverse_lj[q]])
    at = block * (2 * n - 1) + (n - 1) + perms[:, None, :, None, rows] \
        - inverse.transpose(1, 0, 2)[None, :, None]
    terms = weights[:, None, :, None, rows] * v.take(at)
    terms *= np.conj(weights.take(inverse + block * n)).transpose(1, 0, 2)[None, :, None]
    # (T^*)_ij[m, q] = conj(c^ji_(q - m))
    lhs = terms.sum(axis=(2, 3)) - v.take(block.transpose(1, 0, 2) * (2 * n - 1) + adjoint_at)
    sq = (np.square(lhs.view(float)) * repeats).sum()
    norm_sq = (np.square(v.view(float)) * lengths).sum()
    return math.sqrt(sq) / max(scale, math.sqrt(norm_sq))


def residual_bytes(order: int, spec: ConjugationSpec) -> int:
    """The residual's estimated peak allocation at truncation ``order``, per
    entry of its ``period * (2 * order - period)`` strips: 144 bytes for their
    int64 columns and the gathers' temporaries, about 40 per grid block and 40
    per term."""
    g, p = (2 if spec.is_block else 1), spec.period
    return (144 + 40 * g**2 + 40 * g**4) * p * (2 * order - p)


def is_c_symmetric(symbol: LaurentSymbol | MatrixSymbol, spec: ConjugationSpec,
                   tol: float = SYMMETRY_TOL) -> SymmetryReport:
    """Build the truncation pair for ``symbol`` under ``spec``, of order
    :func:`min_truncation` of the symbol's bandwidth, and report the residual
    verdict.  Block specs require a :class:`MatrixSymbol` and scalar specs a
    :class:`LaurentSymbol`.  An order whose residual would pass
    ``RESIDUAL_BUDGET_BYTES`` raises ``ValueError`` before any allocation.
    """
    if not 0 < tol < math.inf:  # also false for NaN
        raise ValueError("tol must be finite and positive")
    block = spec.is_block
    if block != isinstance(symbol, MatrixSymbol):
        kind = "matrix" if block else "scalar"
        raise ValueError(f"spec {spec!r} requires a {kind} symbol")
    n = min_truncation(symbol.bandwidth, spec)
    need = residual_bytes(n, spec)
    if need > RESIDUAL_BUDGET_BYTES:
        raise ValueError(f"the residual at order {n} needs {need >> 20} MiB, over its budget")
    t = block_truncate(symbol, n) if block else truncate(symbol, n)
    c = truncated_matrix(spec, n)
    r = residual(t, c)
    verdict = SYMMETRIC if r <= tol else NOT_SYMMETRIC
    return SymmetryReport(r, n, verdict, tol)


def report_to_json(report: SymmetryReport) -> dict:
    return {"residual": report.residual, "n": report.order,
            "verdict": report.verdict, "tol": report.tol}
