"""Numeric oracle for the defining identity ``C T C = T*``.

With the antilinear action written as ``C x = A conj(x)``, the composition
``C T C`` has matrix ``A conj(T) conj(A)``, so the oracle reduces to a single
Frobenius-norm residual between that product and the conjugate transpose of
``T``.  The residual is normalized by ``max(1, ||T||_F)`` so the verdict is
invariant under nonzero rescaling of the symbol at the zero-residual level.
Both norms come from the symbol's coefficients: the difference is block
Toeplitz, so its first block row and column carry every distinct block.  It
agrees with the dense formula to rounding (the tests hold it to
``1e-12 * max(1, dense)``), not bit for bit.  What the residual reads of the
operator depends only on the conjugation, the order and the symbol's
bandwidth ``B``: a term ``c_d`` with ``|d| > B`` is zero, so the plan keeps
only the cells some term or the adjoint can reach, O(g**4 * period * B) of
them rather than the O(period * order) of the whole first block row and
column.  It is planned once per ``(spec, order, B)`` and kept in
``PLAN_CACHE``; :func:`residuals` reads a stack of truncations of one order
and bandwidth in one pass, and a single residual is a stack of one.  A
truncation's scaled coefficients (``scaled``) are built once and kept on it,
so a check's condition evaluation reads the same ones.
"""

from __future__ import annotations

import functools
import inspect
import math
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conjugations import AntilinearOperator, ConjugationSpec, truncated_matrix
from .symbols import LaurentSymbol, MatrixSymbol
# block_truncate is truncate, importable here for the callers that patch it
from .toeplitz import TruncatedToeplitz, block_truncate, min_truncation, truncate  # noqa: F401

SYMMETRY_TOL = 1e-10
RESIDUAL_BUDGET_BYTES = 1 << 28
# a residual stack's arrays, by residual_bytes, stay under this: stacks gain
# at small bands, and a truncation whose residual passes it is a stack of one
STACK_BYTES = 1 << 20
PLAN_CACHE_BYTES = 1 << 22

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


def _arrays(value) -> list[np.ndarray]:
    """The arrays of an array, a tuple or an object's attributes."""
    if isinstance(value, np.ndarray):
        return [value]
    fields = value if isinstance(value, tuple) else vars(value).values()
    return [field for field in fields if isinstance(field, np.ndarray)]


class PlanCache:
    """Values that depend only on a conjugation and a shape, least recently
    used first out, at most ``budget`` bytes in all.  An entry's size is the
    sum of its arrays' ``nbytes``; an entry larger than the budget is returned
    but never kept.  Every caller shares an entry, so its arrays are made
    read-only."""

    def __init__(self, budget: int):
        self.budget = budget
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, size)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self):
        self._entries.clear()
        self.nbytes = 0

    def get(self, key, build):
        """The value kept under ``key``, or ``build()``'s, kept if it fits."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key][0]
        value = build()
        arrays = _arrays(value)
        for array in arrays:
            array.setflags(write=False)
        size = sum(array.nbytes for array in arrays)
        if size <= self.budget:
            while self.nbytes + size > self.budget:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
            self._entries[key] = value, size
            self.nbytes += size
        return value

    def memoize(self, fn):
        """``fn`` with its results kept here, keyed on the ``repr`` of its
        arguments, which tells ``-0.0`` from ``0.0``; keywords are first
        bound to their positions, so ``f(4)`` and ``f(band=4)`` share a key."""
        @functools.wraps(fn)
        def cached(*args, **kwargs):
            if kwargs:
                args = inspect.signature(fn).bind(*args, **kwargs).args
            return self.get((fn, repr(args)), lambda: fn(*args))
        return cached


# the residual plans and the condition tables, for every caller
PLAN_CACHE = PlanCache(PLAN_CACHE_BYTES)


def _near(perms: np.ndarray, period: int, band: int) -> tuple[np.ndarray, np.ndarray]:
    """For each ``x < period``, every ``y`` that a symbol of bandwidth
    ``band`` can reach at cell ``(x, y)``, as flat ``(x, y)`` pairs with
    repeats: ``y = perms[b, r]`` for each ``r`` within ``band`` of some
    ``perms[a, x]``, and ``y = x + d`` for ``|d| <= band``.  ``perms`` holds
    ``k`` permutations of ``0 .. n - 1``; an ``r`` or ``y`` past either end is
    clipped to it, which keeps it in its window.  At most ``(k**2 + 1) *
    period * (2 * band + 1)`` pairs."""
    k, n = perms.shape
    near = np.arange(-min(band, n - 1), min(band, n - 1) + 1)
    x = np.arange(period)[:, None]
    r = np.clip(perms[:, :period, None] + near, 0, n - 1)
    y = np.concatenate([perms[:, r].reshape(k * k, period, -1),
                        np.clip(x + near, 0, n - 1)[None]])
    return np.broadcast_to(x, y.shape).ravel(), y.ravel()


def _cells(c: AntilinearOperator, band: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells ``(m, q)`` of the first block row and column, ``m <
    period`` or ``q < period``, where a term ``c_(perm_ik[m] -
    inverse_lj[q])`` or the adjoint's ``c_(q - m)`` can be nonzero for a
    symbol of bandwidth ``band``, row-major: the first block row's from
    :func:`_near` of the distinct permutations, the first block column's
    from :func:`_near` of their inverses."""
    n = c.size
    perms = np.array(list({row.tobytes(): row for row in c.perms.reshape(-1, n)}.values()))
    inverses = np.empty_like(perms)
    inverses[np.arange(len(perms))[:, None], perms] = np.arange(n)
    (m, q), (q_side, m_side) = _near(perms, c.period, band), _near(inverses, c.period, band)
    cells = np.sort(np.concatenate([m * n + q, m_side * n + q_side]))
    # sorted, each once: np.unique of numpy 2 hashes, many times slower here
    return np.divmod(cells[np.append(True, cells[1:] != cells[:-1])], n)


class ResidualPlan(NamedTuple):
    """What :func:`residual` reads of ``A`` at one order for any symbol of
    bandwidth at most ``band``: the flat index into the coefficients of every
    term (``at``, axes ``(i, j, k, l, cell)``), its left and right weights,
    the index of the adjoint's entry, and the repeat counts of the cells and
    of the diagonals.  The weights are complex, one per grid block (one entry
    on the last axis) or one per row."""

    grid: int
    order: int
    band: int
    at: np.ndarray
    left: np.ndarray
    right: np.ndarray
    adjoint: np.ndarray
    repeats: np.ndarray
    lengths: np.ndarray


def residual_plan(c: AntilinearOperator, band: int) -> ResidualPlan:
    """The gather plan of :func:`residual` for the operator ``c`` and
    symbols of bandwidth at most ``band``: only the :func:`_cells` they can
    reach."""
    # complex once here, not by numpy in every residual's products
    n, g, p, perms, weights = c.size, c.perms.shape[0], c.period, c.perms, c.weights.astype(complex)
    rows, cols = _cells(c, band)
    residue = cols % p
    # column q of conj(A_lj) is the unit row perm_lj^-1(q) weighted conj(w);
    # the inverse commutes with period shifts too, so it comes from residues
    inverse = perms[..., :p].argsort().take(residue, axis=2) + (cols - residue)
    block = np.arange(g * g).reshape(g, g, 1)  # flat index of grid block (k, l)
    # term (k, l) of quadrant (i, j), axes (i, j, k, l, cell), broadcast:
    # w_ik[m] conj(c^kl_(perm_ik[m] - inverse_lj[q])) conj(w_lj[inverse_lj[q]])
    at = block * (2 * n - 1) + (n - 1) + perms[:, None, :, None, rows] \
        - inverse.transpose(1, 0, 2)[None, :, None]
    if (weights == weights[..., :1]).all():  # 1, +-1/sqrt 2 per pair block, or a twist's mu
        left = weights[:, None, :, None, :1]
        right = np.conj(weights[..., :1]).transpose(1, 0, 2)[None, :, None]
    else:
        left = weights[:, None, :, None, rows]
        right = np.conj(weights.take(inverse + block * n)).transpose(1, 0, 2)[None, :, None]
    # (T^*)_ij[m, q] = conj(c^ji_(q - m))
    adjoint = block.transpose(1, 0, 2) * (2 * n - 1) + (cols - rows + (n - 1))
    # the block diagonal L of (m, q) repeats K - |L| times, and diagonal d
    # of a truncation order - |d| times
    repeats = n // p - rows // p - cols // p
    lengths = n - abs(np.arange(1 - n, n))
    # every index and count is below g**2 * (2n - 1): int32 halves the
    # cached bytes, and the values, so the sums, stay the same
    small = np.int32 if g * g * 2 * n < 2**31 else np.intp
    return ResidualPlan(g, n, band, at.astype(small), left, right, adjoint.astype(small),
                        repeats.astype(small), lengths.astype(small))


def residuals(ts: Sequence[TruncatedToeplitz], c: AntilinearOperator | ResidualPlan) -> list[float]:
    """:func:`residual` of each truncation of the stack ``ts``, all of one
    order, in one pass: every gather, product and sum gains a leading stack
    axis, and each truncation keeps its own ``scaled`` coefficients and
    ``2**-e``.  An operator ``c`` is planned for the widest of ``ts``; a plan
    must reach each one's bandwidth, or ``ValueError``."""
    if isinstance(c, AntilinearOperator):
        c = residual_plan(c, max(t.bandwidth for t in ts))
    for t in ts:
        if (t.grid, t.order) != (c.grid, c.order):
            raise ValueError(f"shape mismatch: operator has {c.grid}-square grid of size "
                             f"{c.order}, matrix {t.grid}-square grid of order {t.order}")
        if t.bandwidth > c.band:
            raise ValueError(f"a truncation of bandwidth {t.bandwidth} passes its plan's "
                             f"band {c.band}")
    scaled = [t.scaled for t in ts]
    scales = [math.ldexp(1.0, -e) for _, e in scaled]
    # conj(2**-e T) of truncation s: entry e's c_d at [s, e, d + n - 1]
    v = np.empty((len(ts), *scaled[0][0].shape), complex)
    for row, (rows, _) in zip(v, scaled):
        np.conjugate(rows, out=row)
    flat = v.reshape(len(ts), -1)
    # left * flat.take(at), in place: one term-sized temporary fewer.  A weight
    # of 1 changes no term but for the sign of a zero, which squaring drops
    terms = flat.take(c.at, axis=1)
    np.multiply(c.left, terms, out=terms)
    terms *= c.right
    lhs = terms.sum(axis=(3, 4)) - flat.take(c.adjoint, axis=1)
    del terms  # summed: not held through the squares
    sq, norm_sq = np.square(lhs.view(float)), np.square(v.view(float))
    # a count weighs a real and an imaginary part, in place: the sums stay the float view's
    for squares, counts in ((sq, c.repeats), (norm_sq, c.lengths)):
        pairs = squares.reshape(-1, counts.size, 2)
        pairs *= counts[:, None]
    sums = [np.add.reduce(squares.reshape(len(ts), -1), axis=1).tolist()
            for squares in (sq, norm_sq)]
    return [math.sqrt(r) / max(scale, math.sqrt(norm)) for r, norm, scale in zip(*sums, scales)]


def residual(t: TruncatedToeplitz, c: AntilinearOperator | ResidualPlan) -> float:
    """``||A conj(T) conj(A) - T^*||_F / max(1, ||T||_F)``, from coefficients;
    ``c`` is the operator ``A`` or its :func:`residual_plan`.  A stack of one
    of :func:`residuals`.

    ``A``'s blocks commute with shifts by ``c.period``, so each quadrant of
    ``R = A conj(T) conj(A) - T^*`` is block Toeplitz, ``K`` period-square
    blocks a side, and ``||R||_F^2 = sum_L (K - |L|) ||R_L||_F^2`` over the
    blocks of its first block row and column.  A symbol of bandwidth ``B``
    reaches O(g**4 * period * B) of their cells (:func:`_cells`), each a sum
    of ``w c w'`` terms read from ``c`` and ``t.scaled``; the plan that
    ``residual`` builds from an operator reaches ``t``'s bandwidth.
    ``||T||_F^2 = sum_d (order - |d|) |c_d|^2``.  The coefficients are scaled
    by ``2**-e`` (``toeplitz.scale_exponent``), so huge symbols do not overflow;
    numpy's pairwise sums do not depend on the BLAS thread count.
    """
    return residuals([t], c)[0]


def residual_bytes(order: int, spec: ConjugationSpec, band: int) -> int:
    """The residual's estimated peak allocation at truncation ``order`` for a
    symbol of bandwidth ``band``, per cell it can reach: 144 bytes for the
    cells' int64 columns and the gathers' temporaries, about 40 per grid block
    and 40 per term.  A row of the first block row, or a column of the first
    block column, reaches at most ``(g**4 + 1) * (2 * band + 1)`` cells
    (:func:`_near`), and never more than it holds."""
    g, p = (2 if spec.is_block else 1), spec.period
    reach = (g**4 + 1) * (2 * band + 1)
    return (144 + 40 * g**2 + 40 * g**4) * p * (min(order, reach) + min(order - p, reach))


def budgeted_order(band: int, spec: ConjugationSpec) -> int:
    """:func:`min_truncation` of ``band``; ``ValueError`` if its residual passes the budget."""
    n = min_truncation(band, spec)
    need = residual_bytes(n, spec, band)
    if need > RESIDUAL_BUDGET_BYTES:
        raise ValueError(f"the residual at order {n} needs {need >> 20} MiB, over its budget")
    return n


def stack_size(band: int, spec: ConjugationSpec) -> int:
    """How many symbols of bandwidth ``band`` one :func:`residuals` stack
    holds: as many as fit, by :func:`residual_bytes`, under ``STACK_BYTES``
    and the residual's budget, and one at least."""
    need = residual_bytes(min_truncation(band, spec), spec, band)
    return max(1, min(STACK_BYTES, RESIDUAL_BUDGET_BYTES) // need)


def truncations(symbols: Sequence[LaurentSymbol | MatrixSymbol],
                spec: ConjugationSpec) -> list[TruncatedToeplitz]:
    """The stack of truncations that :func:`symmetry_reports` reads: each of
    ``symbols``, all of one bandwidth and of ``spec``'s kind, at the
    :func:`budgeted_order` of that bandwidth, at most :func:`stack_size` of
    them.  Otherwise ``ValueError``, before any truncation."""
    block = spec.is_block
    for symbol in symbols:
        if block != isinstance(symbol, MatrixSymbol):
            kind = "matrix" if block else "scalar"
            raise ValueError(f"spec {spec!r} requires a {kind} symbol")
    band = symbols[0].bandwidth
    for symbol in symbols[1:]:
        if symbol.bandwidth != band:
            raise ValueError(f"a stack needs symbols of one bandwidth, not {band} "
                             f"and {symbol.bandwidth}")
    n = budgeted_order(band, spec)
    if len(symbols) > 1 and len(symbols) > stack_size(band, spec):  # one always fits
        raise ValueError(f"a stack of {len(symbols)} truncations of order {n} passes its byte cap")
    return [truncate(symbol, n) for symbol in symbols]


def symmetry_reports(ts: Sequence[TruncatedToeplitz], spec: ConjugationSpec,
                     tol: float = SYMMETRY_TOL) -> list[SymmetryReport]:
    """The residual verdict of each of the :func:`truncations` ``ts`` under
    ``spec``, from one stack of :func:`residuals`."""
    if not 0 < tol < math.inf:  # also false for NaN
        raise ValueError("tol must be finite and positive")
    n, band = ts[0].order, max(t.bandwidth for t in ts)
    plan = PLAN_CACHE.get((spec, n, band), lambda: residual_plan(truncated_matrix(spec, n), band))
    # a stack of one through residual, the name a tracer wraps
    values = residuals(ts, plan) if len(ts) > 1 else [residual(ts[0], plan)]
    return [SymmetryReport(r, n, SYMMETRIC if r <= tol else NOT_SYMMETRIC, tol) for r in values]


def is_c_symmetric(symbol: LaurentSymbol | MatrixSymbol, spec: ConjugationSpec,
                   tol: float = SYMMETRY_TOL) -> SymmetryReport:
    """Build the truncation pair for ``symbol`` under ``spec``, of order
    :func:`min_truncation` of the symbol's bandwidth, and report the residual
    verdict: :func:`symmetry_reports` of a stack of one.  Block specs require
    a :class:`MatrixSymbol` and scalar specs a :class:`LaurentSymbol`.  An
    order whose residual would pass ``RESIDUAL_BUDGET_BYTES`` raises
    ``ValueError`` before any allocation.  The residual's plan comes from
    ``PLAN_CACHE``, keyed on ``spec``, the order and the bandwidth.
    """
    return symmetry_reports(truncations([symbol], spec), spec, tol)[0]
