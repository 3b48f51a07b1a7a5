"""Coefficient-condition checkers, solution-set bases and the cross-validation harness.

``C T C = T*`` reduces to linear identities between Fourier coefficients.
This module builds them as :class:`RelationTable` objects, one numpy column
per relation field, evaluates a table on a symbol with a few vectorized
gathers, and cross-checks each verdict against the matrix oracle in
:mod:`toepsym.symmetry`.

Every family's table is exact: a residue permutation's is the closed form of
its mirror period ``d`` (coefficients at multiples of ``d`` mirror-symmetric,
all others zero), the twist family's a reflection with powers of lambda, and
each block family's its condition list, whose solution set has an integer
basis (:func:`block_hadamard_basis`, :func:`block_mixed_basis`) that the
block samplers draw on.  :func:`draw_symbol` is the one function that maps a
family to its draw, random or on its solution set, for ``random-test``,
``explore`` and ``gen``, and :func:`run_check` the one check of a draw,
which :func:`check_draws` runs on many draws in stacks of one bandwidth.  The
raw entry identities and the paper's rule sets for residue swaps are the
tests' reference; no command reads them.

A :class:`ConditionReport` is the evaluated table, its row values and the
indices of its violated rows, read, as the oracle's residual, from the
coefficients times ``2**-e`` for the least ``e >= 0`` that brings every part
below 1, so no side overflows: a check's two routes read the same scaled
coefficients of the same truncation.  A report stays on that scale, and
:mod:`toepsym.cli` unscales what it prints.  Tables and bases depend only on
their builders' arguments and are kept, read-only, in ``symmetry.PLAN_CACHE``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .conjugations import (
    BlockHadamard,
    BlockMixed,
    ConjugationSpec,
    GeneralPermutation,
    MuLambda,
    Transposition,
)
from .symbols import (
    LaurentSymbol,
    MatrixSymbol,
    check_draw,
    draw_coeffs,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
# is_c_symmetric is not called here; a tracer wraps the name
from .symmetry import (  # noqa: F401
    PLAN_CACHE,
    SYMMETRY_TOL,
    SymmetryReport,
    budgeted_order,
    is_c_symmetric,
    stack_size,
    symmetry_reports,
    truncations,
)
from .toeplitz import TruncatedToeplitz

COEFF_TOL = 1e-12


def terms(component: str) -> list[tuple[int, int, int]]:
    """The terms ``(entry, weight, shift)`` that ``component``'s name spells,
    each ``[+-]phiE[+-s]``: entry ``E`` (from 1, read from 0) at the row's
    index shifted by ``s``.  The bare ``phi``, a scalar symbol, is one term
    on entry 0."""
    return [(int(entry or 1) - 1, -1 if sign == "-" else 1, int(shift or 0))
            for sign, entry, shift in re.findall(r"([+-]?)phi(\d?)(?:\[([+-]\d+)\])?", component)]


# the components of a block table: first these, so code E reads phiE
_ENTRIES = ("phi", "phi1", "phi2", "phi3", "phi4")
# the left sides of the block_ctilde families, in family order
_MIXED_LHS = ("phi1-phi2[-1]-phi3[+1]+phi4", "phi1[-1]-phi2-phi3+phi4[+1]",
              "phi1[+1]-phi2-phi3+phi4[-1]", "phi1-phi2[+1]-phi3[-1]+phi4",
              "phi1[-1]+phi2-phi3-phi4[+1]", "phi1+phi2[+1]-phi3[-1]-phi4",
              "phi1[+1]+phi2-phi3-phi4[-1]")


class RelationTable:
    """Rows ``value(lhs) == rhs_scale * value(rhs)``, or ``value(lhs) == 0``
    where ``vanish``, one numpy column per field, built from row blocks
    ``(family, vanish, lhs_component, rhs_component, lhs_index, rhs_index,
    rhs_scale)``, each field an array or one value for the block.  A side
    reads a component (``phi`` of a scalar symbol, or an entry combination
    such as ``phi1+phi2``) at an index.  ``component`` (codes into
    ``components``, the names the rows read) and ``index`` stack the lhs
    column over the rhs one; ``family`` codes into ``names`` (in
    first-appearance order)."""

    def __init__(self, names: tuple[str, ...], components: tuple[str, ...], *blocks):
        size = sum(len(block[4]) for block in blocks)
        self.names, self.components = names, components
        # narrow integer columns, so that more tables fit in PLAN_CACHE
        self.family, self.vanish, self.rhs_scale = (np.empty(size, dtype)
                                                    for dtype in (np.int8, bool, complex))
        self.component, self.index = np.empty((2, size), np.int8), np.empty((2, size), np.int32)
        end = 0
        for block in blocks:
            rows = slice(end, end + len(block[4]))
            end = rows.stop
            (self.family[rows], self.vanish[rows], self.component[0, rows],
             self.component[1, rows], self.index[0, rows], self.index[1, rows],
             self.rhs_scale[rows]) = block
        counts = np.bincount(self.family, minlength=len(names)).tolist()
        self.families = tuple(name for name, count in zip(names, counts) if count)
        self._plan_reads()

    def __len__(self) -> int:
        return self.family.size

    def _plan_reads(self):
        """The table's read plan, ``reads``: for each term, side and row (axes
        in that order), the flat index of what the term reads in a grid of
        ``read_columns`` columns from index ``read_lo``.  The grid has the
        symbol's ``entries`` (1 for a scalar table, 4 for a block one) in its
        first rows and their negatives in the next, so a term of weight -1
        reads a negated entry; index ``k`` is at column ``k - read_lo``.  The
        terms stop at the most any component has, and a side with fewer reads
        column 0, which no term reads and stays zero."""
        parsed = [terms(name) for name in self.components]
        self.entries = 1 + max(entry for named in parsed for entry, _, _ in named)
        width = max(map(len, parsed))
        entry, weight, shift = np.array([named + [(0, 0, 0)] * (width - len(named))
                                         for named in parsed]).T.take(self.component, axis=2)
        at = self.index + shift
        row = entry + self.entries * (weight < 0)
        # the padding's index, the row's own, may widen the grid, never narrow it
        lo = int(at.min(initial=1)) - 1
        self.read_lo, self.read_columns = lo, int(at.max(initial=lo)) - lo + 1
        # every value is below 8 * read_columns: int32 holds it
        self.reads = np.where(weight != 0, row * self.read_columns + at - lo, 0).astype(np.int32)
        self.reads.setflags(write=False)


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """``table`` evaluated on a symbol: every row's ``lhs`` and ``rhs``, one
    complex column each, and ``distance`` between them, ``violations``, the
    indices of the rows whose distance passes ``tol``, ascending, and ``tol``,
    the tolerance scaled to the symbol.  The values, distances and ``tol`` are
    those of the coefficients times ``2**-exponent``."""

    satisfied: bool
    table: RelationTable
    violations: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    distance: np.ndarray
    tol: float
    exponent: int

    @cached_property
    def violations_by_family(self) -> dict[str, int]:
        """The number of violated rows of each family that has rows."""
        t = self.table
        counts = np.bincount(t.family[self.violations], minlength=len(t.names)).tolist()
        return {name: count for name, count in zip(t.names, counts) if name in t.families}

    def family_ok(self, family: str) -> bool:
        return self.satisfied or not self.violations_by_family.get(family)


def evaluate_stack(symbols: Sequence[LaurentSymbol | MatrixSymbol | TruncatedToeplitz],
                   table: RelationTable) -> list[ConditionReport]:
    """:func:`evaluate_relations` of each of ``symbols``, symbols or their
    truncations, in one pass: the grid, the gathers, the products and the
    distances hold the stack on their first axis, and each symbol keeps its
    own ``2**-e``, its tolerance and the recheck of its rows near it."""
    count, lo, columns, stack = table.entries, table.read_lo, table.read_columns, len(symbols)
    # the window of the scaled coefficients that the table reads, symbol s
    # at [s]: a row per entry, index k at column k - lo, then the entries
    # negated.  Column 0, which only the padding reads, stays zero
    grid = np.zeros((stack, 2 * count, columns), dtype=complex)
    exponents, tols = [], []
    for symbol, block in zip(symbols, grid):
        if len(symbol.entries) != count:
            kinds = ("block", "scalar") if count > 1 else ("scalar", "matrix")
            raise ValueError("a %s relation cannot read a %s symbol" % kinds)
        if not isinstance(symbol, TruncatedToeplitz):  # one that holds every coefficient
            symbol = TruncatedToeplitz(symbol.entries, symbol.bandwidth + 1)
        (rows, e), n = symbol.scaled, symbol.order
        # the indices both hold, k in [first, stop): at k + n - 1 in the rows
        first, stop = max(lo + 1, 1 - n), min(lo + columns, n)
        if first < stop:
            block[:count, first - lo:stop - lo] = rows[:, first + n - 1:stop + n - 1]
        # the coefficients in entry and index order, as math.hypot reads them
        values = rows[rows != 0]
        norm = math.hypot(*map(math.hypot, values.real.tolist(), values.imag.tolist()))
        exponents.append(e)
        tols.append(COEFF_TOL * max(math.ldexp(1.0, -e), norm))
    np.negative(grid[:, :count], out=grid[:, count:])
    # the table's entry count picks the read: a scalar side directly, so a
    # -0.0 part survives, a block side its terms summed in order from 0j
    read = grid.reshape(stack, -1).take(table.reads, axis=1)
    sides = read[:, 0] if count == 1 else read.sum(axis=1, initial=0j)
    lhs, value = sides[:, 0], sides[:, 1]
    # Python's complex product, from real parts: numpy's complex multiply
    # may fuse a multiply and an add and round differently
    scale, rhs = table.rhs_scale, np.empty(value.shape, complex)
    np.subtract(scale.real * value.real, scale.imag * value.imag, out=rhs.real)
    np.add(scale.real * value.imag, scale.imag * value.real, out=rhs.imag)
    np.copyto(rhs, 0, where=table.vanish)
    diffs = lhs - rhs
    distances = np.hypot(diffs.real, diffs.imag)
    reports = []
    for s, (e, tol) in enumerate(zip(exponents, tols)):
        diff, distance = diffs[s], distances[s]
        # np.hypot is within an ulp of math.hypot, and the band around the
        # tolerance is about 4 ulp wide: numpy decides every row outside it,
        # math.hypot the rows inside
        violated = distance > tol * (1 + 1e-15)
        near = ((distance >= tol * (1 - 1e-15)) & ~violated).nonzero()[0]
        if near.size:
            distance[near] = list(map(math.hypot, diff.real[near].tolist(),
                                      diff.imag[near].tolist()))
            violated[near] = distance[near] > tol
        at = violated.nonzero()[0]
        reports.append(ConditionReport(not at.size, table, at, lhs[s], rhs[s], distance, tol, e))
    return reports


def evaluate_relations(symbol: LaurentSymbol | MatrixSymbol | TruncatedToeplitz,
                       table: RelationTable) -> ConditionReport:
    """Evaluate the relation ``table`` on a scalar or a 2x2 matrix symbol, or
    on its truncation, whose coefficients inside its order it reads:
    :func:`evaluate_stack` of a stack of one.

    A relation holds when its two sides differ by at most
    ``COEFF_TOL * max(1, ||c||_2)``, with ``||c||_2`` taken over every
    coefficient of every entry: relative, like the oracle's residual, so a
    rescaled symbol gets the same verdict.  Values and verdicts are those of
    Python's complex arithmetic and ``math.hypot``, row by row.

    Rows are read from the coefficients times ``2**-e``, ``e`` their
    ``toeplitz.scale_exponent``: the truncation's ``scaled`` rows, which
    ``symmetry.residual`` reads too, against the tolerance scaled alike:
    exact, and no side overflows.  The report stays on that scale, with
    ``e`` as its ``exponent``.
    """
    return evaluate_stack([symbol], table)[0]


# The names the single checks call by symbol kind; patching one (as a tracer
# does) sees every scalar or every block evaluation but those of stacks of
# more than one, which call evaluate_stack.
evaluate_scalar_relations = evaluate_relations
evaluate_block_relations = evaluate_relations


# --- raw relation sets: the tests' reference ----------------------------------


def _pair_rows(cells: Sequence[tuple[int, int, str]], p: int, band: int) -> RelationTable:
    """The rows ``value(c + p*l) == value(d - p*l)`` of each cell
    ``(c, d, family)`` in order, over every ``l`` whose two indices stay
    inside ``[-band - 2p, band + 2p]``; outside, finite support makes both
    sides zero and the instance vacuous.  Of the rows sharing an unordered
    index pair, the first is kept, in its orientation and family."""
    if band < 0:
        raise ValueError("band must be >= 0")
    window = band + 2 * p
    names = tuple(dict.fromkeys(family for _, _, family in cells))
    c, d, family = np.array([(c, d, names.index(family)) for c, d, family in cells],
                            dtype=np.int64).reshape(-1, 3).T
    # |c|, |d| < p, so |l| <= window // p + 1 covers every instance
    pl = p * np.arange(-(window // p + 1), window // p + 2)
    lhs, rhs = c[:, None] + pl, d[:, None] - pl
    inside = (np.abs(lhs) <= window) & (np.abs(rhs) <= window)
    lhs, rhs = lhs[inside], rhs[inside]
    key = np.minimum(lhs, rhs) * (4 * window + 1) + np.maximum(lhs, rhs)
    first = np.sort(np.unique(key, return_index=True)[1])
    return RelationTable(names, ("phi",),
                         (np.broadcast_to(family[:, None], inside.shape)[inside][first],
                          False, 0, 0, lhs[first], rhs[first], 1))


def raw_relations_general(p: int, sigma: Sequence[int], band: int) -> RelationTable:
    """The raw table of an arbitrary residue involution, every residue cell
    in row-major order, labelled ``raw``: the entry identities of the
    truncated operator equation, where a residue cell ``(m0, s0)`` forces
    ``c_(m0 - sigma(s0) + p*l) == c_(s0 - sigma(m0) - p*l)`` for every ``l``.

    This set is exact for any involution by construction; the tests hold
    the closed-form tables to its kernel.
    """
    sigma = GeneralPermutation(p, tuple(sigma)).sigma
    return _pair_rows([(m0 - sigma[s0], s0 - sigma[m0], "raw")
                       for m0 in range(p) for s0 in range(p)], p, band)


def raw_relations_transposition(p: int, i: int, j: int, band: int) -> RelationTable:
    """The residue-swap relation table, organized by row family.

    Families: ``multiples`` (period multiples mirror), ``gap`` (indices
    congruent to the swap gap ``j - i``), ``cross`` (rows pairing a bystander
    residue with ``i`` or ``j``) and ``bystander`` (rows between two
    bystanders).  Deduplicated; reflexive instances are kept.
    """
    sigma = Transposition(p, i, j).sigma
    others = [a for a in range(p) if a not in (i, j)]
    cells = [(i, j, "multiples"), (j, j, "gap"), (i, i, "gap")]
    for a in others:
        cells += [(a, j, "cross"), (a, i, "cross"), (i, a, "cross"), (j, a, "cross")]
    cells += [(b, a, "bystander") for a in others for b in others if b != a]
    return _pair_rows([(m0 - sigma[s0], s0 - sigma[m0], family) for m0, s0, family in cells],
                      p, band)


def interchange_sign_relations(p: int, q: int, band: int) -> RelationTable:
    """Rewriting of the residue-swap table for ``p = m*q + 1`` (``m >= 2``,
    swapping residues ``q - 1`` and ``p - 1``), as two rule families.

    * ``interchange``: ``c_(c + p*l) == c_(d - p*l)`` for ``|c|, |d|`` in
      ``{1..p-1}`` minus ``p - q`` with ``|c + d| = p - q``, plus the two
      self-paired cases ``c = d = +-(p - q)``;
    * ``sign``: ``c_(c + p*l) == c_(-c - p*l)`` for ``c`` in ``{1..p-3}``
      when ``q = 1`` and ``{1..p-2}`` when ``q >= 2``.

    Together these carry exactly the non-multiple rows of the raw table; the
    period-multiple mirror family is not part of the rewriting.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if (p - 1) % q != 0 or (p - 1) // q < 2:
        raise ValueError(f"p = {p} is not m*q + 1 with m >= 2 for q = {q}")
    gap = p - q
    pairs = set()
    for c in range(-(p - 1), p):
        if c == 0 or abs(c) == gap:
            continue
        for total in (gap, -gap):
            d = total - c
            if d == 0 or abs(d) == gap or abs(d) > p - 1:
                continue
            pairs.add(tuple(sorted((c, d))))
    cells = [(c, d, "interchange") for c, d in sorted(pairs)]
    cells += [(gap, gap, "interchange"), (-gap, -gap, "interchange")]
    cells += [(c, -c, "sign") for c in range(1, p - 2 if q == 1 else p - 1)]
    return _pair_rows(cells, p, band)


# --- closed-form condition sets -------------------------------------------------


@PLAN_CACHE.memoize
def _mirror_conditions(d: int, band: int) -> RelationTable:
    """The exact table of a residue permutation of mirror period ``d``
    (``spec.mirror_period``): ``multiples`` rows ``c_k == c_(-k)`` for
    ``0 < k <= band`` with ``d | k``, ascending, and a ``vanish`` row for
    every other index in ``[-band, band]``."""
    k, mirror = np.arange(-band, band + 1), np.arange(d, band + 1, d)
    return RelationTable(("multiples", "vanish"), ("phi",), (0, False, 0, 0, mirror, -mirror, 1),
                         (1, True, 0, 0, k[k % d != 0], 0, 1))


@PLAN_CACHE.memoize
def _twist_relations(lam: complex, band: int) -> RelationTable:
    """The twist-family condition ``c_(-n) = c_n * lam**n`` for every ``n``."""
    n = np.arange(1, band + 1)
    # Python's powers: numpy's complex power rounds differently
    scale = np.array([lam**k for k in n.tolist()], dtype=complex)
    return RelationTable(("twist",), ("phi",), (0, False, 0, 0, -n, n, scale))


def check_transposition(sym: LaurentSymbol, p: int, i: int, j: int) -> ConditionReport:
    """The residue swap's condition report, from its closed-form table: a
    swap's mirror period is ``p``, so period multiples mirror-symmetric and
    all else zero."""
    return condition_reports(sym, Transposition(p, i, j))


@PLAN_CACHE.memoize
def block_hadamard_relations(band: int) -> RelationTable:
    """The exact ``block_c`` list: ``phi1+phi2`` and ``phi3-phi4`` even-symmetric,
    the cross reflection ``(phi1-phi2)(2l) == (phi3+phi4)(-2l)``, odd ones zero."""
    half = band // 2
    even = 2 * np.arange(1, half + 1)
    components = (*_ENTRIES, "phi1+phi2", "phi1-phi2", "phi3+phi4", "phi3-phi4")
    sum12, diff12, sum34, diff34 = range(len(_ENTRIES), len(components))
    # sum12_even and diff34_even alternate, l by l
    pair = np.tile([sum12, diff34], half)
    reflect = 2 * np.arange(-half, half + 1)
    k = np.arange(-band, band + 1)
    odd = k[k % 2 != 0]
    return RelationTable(
        ("sum12_even", "diff34_even", "cross_reflect", "odd_vanish"), components,
        (np.tile([0, 1], half), False, pair, pair, np.repeat(even, 2), -np.repeat(even, 2), 1),
        (2, False, diff12, sum34, reflect, -reflect, 1),
        (3, True, np.repeat(np.arange(1, 5), odd.size), 0, np.tile(odd, 4), 0, 1))


@PLAN_CACHE.memoize
def block_mixed_necessary_relations(band: int) -> RelationTable:
    """The exact ``block_ctilde`` list: rows ``lhs(x) == 2 * phi_k(-x + shift)``,
    family by family, each over every even ``x`` with ``|x| <= band + 1``.

    ``A = (1/sqrt 2) [[C2, C1], [C1, -C2]]`` is real with ``A^2 = I``, so the
    identity reads ``A T A = T^T``.  Over ``w = z^2`` block ``L`` of an
    entry's Toeplitz matrix is ``[[c(2L), c(2L-1)], [c(2L+1), c(2L)]]``; each
    position of the 4x4 identity is then one family over ``x = 2L``.  The four
    of quadrant (2, 2) and three of quadrant (2, 1) have the oracle's kernel
    (the tests check bands 0-12), so they stand for all sixteen.
    """
    half = (band + 1) // 2
    x = 2 * np.arange(-half, half + 1)
    # the left sides are _MIXED_LHS, the right sides phi4 or phi2 at a shift
    names, rhs, shift = zip(("q22_00", 4, 0), ("q22_01", 4, 1), ("q22_10", 4, -1),
                            ("q22_11", 4, 0), ("q21_00", 2, 0), ("q21_10", 2, -1),
                            ("q21_11", 2, 0))
    family = np.repeat(np.arange(len(names)), x.size)
    return RelationTable(names, (*_ENTRIES, *_MIXED_LHS),
                         (family, False, family + len(_ENTRIES), np.repeat(rhs, x.size),
                          np.tile(x, len(names)), (np.array(shift)[:, None] - x).ravel(), 2))


def check_block_mixed_necessary(msym: MatrixSymbol) -> ConditionReport:
    """The mixed block conjugation's condition report: the exact list of
    :func:`block_mixed_necessary_relations`, necessary and sufficient."""
    return condition_reports(msym, BlockMixed())


# --- dispatch, cross-validation trials ----------------------------------------


def relation_table(spec: ConjugationSpec, band: int) -> RelationTable:
    """The exact table of ``spec``'s family at ``band``: a residue
    permutation's is the closed form of its ``mirror_period``.  Every table
    is necessary and sufficient."""
    if spec.sigma is not None:
        return _mirror_conditions(spec.mirror_period, band)
    if isinstance(spec, MuLambda):
        return _twist_relations(spec.lam, band)
    if isinstance(spec, BlockHadamard):
        return block_hadamard_relations(band)
    if isinstance(spec, BlockMixed):
        return block_mixed_necessary_relations(band)
    raise TypeError(f"not a conjugation spec: {spec!r}")


def condition_reports(symbol, spec: ConjugationSpec) -> ConditionReport:
    """The condition report of ``symbol`` under ``spec``, from the family's
    :func:`relation_table`."""
    evaluate = evaluate_block_relations if spec.is_block else evaluate_scalar_relations
    return evaluate(symbol, relation_table(spec, symbol.bandwidth))


@dataclass(frozen=True)
class CheckOutcome:
    condition: ConditionReport
    oracle: SymmetryReport
    agree: bool


def run_check(symbol, spec: ConjugationSpec, tol: float = SYMMETRY_TOL) -> CheckOutcome:
    """:func:`symmetry.is_c_symmetric` and :func:`condition_reports` of
    ``symbol``, bit for bit: :func:`check_stack` of a stack of one."""
    return check_stack([symbol], spec, tol)[0]


def check_stack(symbols: Sequence[LaurentSymbol | MatrixSymbol], spec: ConjugationSpec,
                tol: float = SYMMETRY_TOL) -> list[CheckOutcome]:
    """The check of each of ``symbols``, all of one bandwidth: one stack of
    :func:`symmetry.truncations`, whose scaled coefficients both the
    residuals (:func:`symmetry.symmetry_reports`) and the table's
    :func:`evaluate_stack` read."""
    ts = truncations(symbols, spec)
    oracles = symmetry_reports(ts, spec, tol)
    table = relation_table(spec, symbols[0].bandwidth)
    # a stack of one through the name a tracer wraps
    evaluate = evaluate_block_relations if spec.is_block else evaluate_scalar_relations
    reports = evaluate_stack(ts, table) if len(ts) > 1 else [evaluate(ts[0], table)]
    return [CheckOutcome(c, o, c.satisfied == o.symmetric) for c, o in zip(reports, oracles)]


def check_draws(spec: ConjugationSpec, draws: Iterable[tuple], tol: float = SYMMETRY_TOL
                ) -> Iterator[tuple]:
    """``(key, symbol, outcome)`` for each ``(key, symbol)`` of ``draws``, in
    :func:`check_stack` stacks of one bandwidth: a stack is checked once it
    holds ``symmetry.stack_size`` draws, and the rest after the last draw, so
    the outcomes come in stack order and no more than ``stack_size`` draws of
    one bandwidth wait at a time."""
    pending: dict[int, list] = {}

    def check(stack):
        keys, symbols = zip(*stack)
        return zip(keys, symbols, check_stack(symbols, spec, tol))

    for key, symbol in draws:
        band = symbol.bandwidth
        stack = pending.setdefault(band, [])
        stack.append((key, symbol))
        if len(stack) == stack_size(band, spec):
            yield from check(pending.pop(band))
        del symbol, stack  # a checked draw is not held through the next draw
    for stack in pending.values():
        yield from check(stack)


@dataclass(frozen=True)
class TrialResult:
    agree: bool
    condition_satisfied: bool
    oracle_symmetric: bool
    residual: float


def draw_symbol(spec: ConjugationSpec, seed: int, band: int, density: float, satisfying: bool):
    """The one draw per family: random, or with ``satisfying`` on its solution
    set.  A band or density that :func:`symbols.check_draw` refuses, then a
    band over the residual's budget, raises before the draw."""
    check_draw(band, density)
    budgeted_order(band, spec)
    if not spec.is_block:
        sym = random_symbol(seed, band, density)
        return project_to_conditions(sym, spec) if satisfying else sym
    if not satisfying:
        return random_matrix_symbol(seed, band, density)
    if isinstance(spec, BlockHadamard):
        return random_block_hadamard_symmetric(seed, band, density)
    return random_block_mixed_symmetric(seed, band, density)


def equivalence_trial(spec: ConjugationSpec, seed: int, band: int,
                      density: float = 0.5, tol: float = SYMMETRY_TOL,
                      satisfying: bool = False) -> TrialResult:
    """One seeded cross-validation trial: the condition verdict against the
    oracle's on a :func:`draw_symbol` draw.  A band over the residual's budget
    raises ``ValueError`` before the draw."""
    outcome = run_check(draw_symbol(spec, seed, band, density, satisfying), spec, tol)
    return TrialResult(outcome.agree, outcome.condition.satisfied,
                       outcome.oracle.symmetric, outcome.oracle.residual)


# --- solution-set bases and their sampler ----------------------------------------

# The terms of a pair family's basis: the generators at index 0 as
# (generator, entry, index, weight); the four per l >= 1 (kind 0..3) as
# (kind, entry, sign, offset, weight), generator once + 4(l - 1) + kind with
# the weight at index sign * 2l + offset.
_HADAMARD_ONCE = np.array([(0, 1, 0, 1), (0, 2, 0, 1), (1, 3, 0, 1), (1, 4, 0, -1),
                           (2, 1, 0, 1), (2, 2, 0, -1), (2, 3, 0, 1), (2, 4, 0, 1)]).T
_HADAMARD_PER_L = np.array([
    (0, 1, 1, 0, 1), (0, 1, -1, 0, 1), (0, 2, 1, 0, 1), (0, 2, -1, 0, 1),
    (1, 3, 1, 0, 1), (1, 3, -1, 0, 1), (1, 4, 1, 0, -1), (1, 4, -1, 0, -1),
    (2, 1, 1, 0, 1), (2, 2, 1, 0, -1), (2, 3, -1, 0, 1), (2, 4, -1, 0, 1),
    (3, 1, -1, 0, 1), (3, 2, -1, 0, -1), (3, 3, 1, 0, 1), (3, 4, 1, 0, 1)]).T
_MIXED_ONCE = np.array([(0, 2, 0, 1), (0, 3, 0, -1),  # A
                        (1, 1, 0, 1), (1, 4, 0, 1)]).T  # D
_MIXED_PER_L = np.array([
    (0, 1, 1, 0, 1), (0, 1, -1, 0, 1), (0, 1, 1, -2, 1), (0, 1, -1, 2, 1),  # B
    (0, 2, 1, -1, 1), (0, 2, -1, 1, 1), (0, 3, 1, -1, 1), (0, 3, -1, 1, 1),
    (1, 2, 1, 0, -1), (1, 2, -1, 0, -1), (1, 3, 1, 0, 1), (1, 3, -1, 0, 1),  # C
    (2, 1, -1, 1, 1), (2, 1, 1, -1, -1), (2, 4, -1, 1, -1), (2, 4, 1, -1, 1),  # E
    (2, 2, 1, -2, 1), (2, 2, 1, 0, 1), (2, 3, -1, 2, -1), (2, 3, -1, 0, -1),
    (3, 1, 1, 0, 1), (3, 1, -1, 0, 1), (3, 4, 1, 0, 1), (3, 4, -1, 0, 1),  # F
]).T


def _pair_basis(once: np.ndarray, per_l: np.ndarray, band: int) -> np.ndarray:
    """The terms of ``once`` and of ``per_l`` for ``l = 1 .. band // 2``, as
    the columns ``(generator, entry from 0, index, weight)``; a generator's
    coefficient is the sum of its terms."""
    kind, entry, sign, offset, weight = per_l
    l, size = np.arange(1, band // 2 + 1)[:, None], once.shape[1]
    terms = np.empty((4, size + l.size * kind.size), np.int64)
    terms[:, :size] = once
    # each column of a term is affine in l, written in place: the table is
    # the size of a draw, and no temporary of its size is made
    generator, entries, index, weights = terms[:, size:].reshape(4, l.size, kind.size)
    np.multiply(l, 4, out=generator)
    generator += kind + once[0].max() - 3
    np.multiply(l, 2 * sign, out=index)
    index += offset
    entries[:], weights[:] = entry, weight
    terms[1] -= 1  # entries from 0
    return terms


@PLAN_CACHE.memoize
def block_hadamard_basis(band: int) -> np.ndarray:
    """An integer basis of the ``block_c`` list's solution set on ``[-band,
    band]``, in :func:`_pair_basis`'s columns: at index 0, ``phi1 = phi2 =
    1``; ``phi3 = -phi4 = 1``; ``phi1 = -phi2 = phi3 = phi4 = 1``; then for
    each ``l = 1 .. band // 2``, the first two at ``+-2l``, ``phi1(2l) =
    -phi2(2l) = phi3(-2l) = phi4(-2l) = 1``, and that with ``2l`` and ``-2l``
    swapped.  ``3 + 4 * (band // 2)`` generators in all."""
    return _pair_basis(_HADAMARD_ONCE, _HADAMARD_PER_L, band)


@PLAN_CACHE.memoize
def block_mixed_basis(band: int) -> np.ndarray:
    """An integer basis of the exact ``block_ctilde`` list's solution set on
    ``[-band, band]``, in :func:`_pair_basis`'s columns.
    ``A``: ``phi2(0) = 1``, ``phi3(0) = -1``; ``D``: ``phi1(0) = phi4(0) = 1``;
    then for each ``l = 1 .. band // 2``: ``B_l``, ``phi1`` +1 at ``+-2l`` and
    ``+-(2l - 2)``, ``phi2`` and ``phi3`` +1 at ``+-(2l - 1)``; ``C_l``,
    ``phi2(+-2l) = -1``, ``phi3(+-2l) = 1``; ``E_l``, ``phi1(1 - 2l) = 1``,
    ``phi1(2l - 1) = -1``, ``phi4`` their negatives, ``phi2(2l - 2) = phi2(2l)
    = 1``, ``phi3(2 - 2l) = phi3(-2l) = -1``; ``F_l``, ``phi1(+-2l) =
    phi4(+-2l) = 1``.  ``2 + 4 * (band // 2)`` generators in all."""
    return _pair_basis(_MIXED_ONCE, _MIXED_PER_L, band)


def _basis_symbol(basis, seed: int, max_band: int, density: float) -> MatrixSymbol:
    """One :func:`draw_coeffs` weight on each generator of ``basis(max_band)``
    (built once the arguments pass), summed in order into a matrix symbol."""
    check_draw(max_band, density)
    generator, entry, index, weight = basis(max_band)
    size = int(generator.max()) + 1
    drawn, = draw_coeffs(seed, max_band, density, range(size))
    weights = np.array([drawn.get(g, 0j) for g in range(size)])
    grid = np.zeros((4, 2 * max_band + 1), complex)
    np.add.at(grid, (entry, index + max_band), weight * weights[generator])
    exponents = np.arange(-max_band, max_band + 1)
    return MatrixSymbol(*(LaurentSymbol._of(exponents, row) for row in grid))


def random_block_hadamard_symmetric(seed: int, max_band: int,
                                    density: float = 0.7) -> MatrixSymbol:
    """A ``block_c``-symmetric draw on :func:`block_hadamard_basis`."""
    return _basis_symbol(block_hadamard_basis, seed, max_band, density)


def random_block_mixed_symmetric(seed: int, max_band: int,
                                 density: float = 0.7) -> MatrixSymbol:
    """A ``block_ctilde``-symmetric draw on :func:`block_mixed_basis`."""
    return _basis_symbol(block_mixed_basis, seed, max_band, density)


# --- raw-set projection (the tests' reference) and explorers ---------------------


def _raw_components(spec: ConjugationSpec, band: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """The connected components of the equality graph of ``spec``'s raw
    relation table at ``band`` over the enumeration window, each with a flag
    marking components pinned to zero because they touch an index outside
    the support band."""
    relations = raw_relations_general(spec.period, spec.sigma, band)
    nodes, edges = np.unique(relations.index, return_inverse=True)
    lhs, rhs = edges.reshape(2, -1)
    # every node takes the least label along its edges, then its label's
    # label, until nothing moves: each component ends on its least node
    label = np.arange(nodes.size)
    while True:
        moved = label.copy()
        np.minimum.at(moved, lhs, label[rhs])
        np.minimum.at(moved, rhs, label[lhs])
        moved = moved[moved]
        if np.array_equal(moved, label):
            break
        label = moved
    # by label, that is by least node; ascending within a component
    order = np.argsort(label, kind="stable")
    members = nodes[order].tolist()
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), len(members)]
    groups = [tuple(members[a:b]) for a, b in zip(cuts, cuts[1:])]
    return tuple((g, any(abs(m) > band for m in g)) for g in groups)


def project_to_raw(sym: LaurentSymbol, spec: ConjugationSpec, band: int) -> LaurentSymbol:
    """Orthogonal projection of a symbol onto the solution set of the raw
    relation system: coefficients are averaged over each equality component,
    and components reaching outside the support band collapse to zero.

    The output satisfies every raw relation exactly, hence is exactly
    symmetric under the truncated conjugation.
    """
    if spec.sigma is None:
        raise ValueError("raw projection applies to residue-permutation families only")
    # the components cover the band: every residue pairs with every other in some cell
    coeffs, out = sym.coeffs, {}
    for members, forced_zero in _raw_components(spec, band):
        inside = [m for m in members if abs(m) <= band]
        if inside and not forced_zero:
            mean = sum(coeffs.get(m, 0j) for m in inside) / len(inside)
            out.update(dict.fromkeys(inside, mean))
    return LaurentSymbol(out)


def explore_transposition(p: int, i: int, j: int, band: int, trials: int, seed: int) -> dict:
    """The swap's decision, the same at every band: the closed form's
    ``period``, the swap's mirror period ``d``, and ``finite_residues``, the
    residues whose coefficients may be nonzero, the multiples of ``d``.
    Nothing is sampled: ``candidates`` and ``anomalies`` keep the explorer
    report's shape and stay empty."""
    if trials < 1 or band < 0:
        raise ValueError("need trials >= 1 and band >= 0")
    d = Transposition(p, i, j).mirror_period
    return {"family": Transposition.name, "p": p, "i": i, "j": j, "band": band,
            "trials": trials, "seed": seed, "finite_residues": list(range(0, p, d)),
            "period": d, "candidates": [], "anomalies": []}


def explore_block_mixed(band: int, trials: int, seed: int,
                        tol: float = SYMMETRY_TOL) -> dict:
    """Check the ``block_ctilde`` list against the oracle on its solution set,
    :func:`check_draws` of trial ``t``'s :func:`draw_symbol` at ``seed + t``
    and density 1: a candidate satisfies the list but not the oracle, an
    anomaly fails the list; both are listed by seed, and both stay empty, as
    the list is exact.  ``nullspace_dim`` is the basis size.  A band over the
    residual's budget raises before any draw."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    candidates, anomalies = [], []
    draws = ((s, draw_symbol(BlockMixed(), s, band, 1.0, satisfying=True))
             for s in range(seed, seed + trials))
    for s, msym, outcome in check_draws(BlockMixed(), draws, tol):
        if not outcome.condition.satisfied:
            anomalies.append(s)
        elif not outcome.oracle.symmetric:
            candidates.append({"seed": s, "residual": outcome.oracle.residual,
                               "symbol": msym.to_json()})
        del msym, outcome  # not held through the next stack's check
    anomalies.sort()
    candidates.sort(key=lambda candidate: candidate["seed"])
    return {"family": BlockMixed.name, "band": band, "trials": trials, "seed": seed,
            "nullspace_dim": int(block_mixed_basis(band)[0].max()) + 1,
            "candidates": candidates, "anomalies": anomalies}
