"""Coefficient-condition checkers and their cross-validation harness.

Deciding whether a Toeplitz truncation commutes correctly with a conjugation
(``C T C = T*``) reduces to families of linear identities between Fourier
coefficients.  This module enumerates those identities as
:class:`RelationTable` objects, one numpy column per relation field,
evaluates a table against a symbol with a few vectorized gathers, and
cross-checks every symbolic verdict against the brute-force matrix oracle in
:mod:`toepsym.symmetry`.

A table holds one of three kinds of relation set:

* *raw* sets -- the entry-by-entry identities of the truncated operator
  equation, valid for any residue permutation; they are exact by
  construction and serve as the reference the closed-form condition sets
  are compared against;
* *closed-form* sets -- the compact characterizations (period multiples
  symmetric, everything else vanishing; reflection with a power of lambda;
  the block condition lists);
* *rule* sets -- the interchange/sign rewriting of the raw relations for
  residue swaps with ``p = m*q + 1``, ``i = q - 1``, ``j = p - 1``.

A :class:`ConditionReport` is the evaluated table, the values of its rows
and the indices of its violated rows; the JSON writer reads the table's
columns at those indices.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from .conjugations import (
    IFF,
    NECESSARY_ONLY,
    BlockHadamard,
    BlockMixed,
    ConjugationSpec,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
)
from .symbols import (
    LaurentSymbol,
    MatrixSymbol,
    draw_coeffs,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from .symmetry import SYMMETRY_TOL, SymmetryReport, is_c_symmetric, report_to_json

COEFF_TOL = 1e-12


# Entry combinations referenced by block relations: tuples of
# (1-based entry, coefficient, index shift).
_BLOCK_COMBOS: dict[str, tuple[tuple[int, int, int], ...]] = {
    "phi1": ((1, 1, 0),),
    "phi2": ((2, 1, 0),),
    "phi3": ((3, 1, 0),),
    "phi4": ((4, 1, 0),),
    "phi1+phi2": ((1, 1, 0), (2, 1, 0)),
    "phi1-phi2": ((1, 1, 0), (2, -1, 0)),
    "phi3+phi4": ((3, 1, 0), (4, 1, 0)),
    "phi3-phi4": ((3, 1, 0), (4, -1, 0)),
    "phi1+phi3": ((1, 1, 0), (3, 1, 0)),
    "phi1+phi4": ((1, 1, 0), (4, 1, 0)),
    "phi2-phi3": ((2, 1, 0), (3, -1, 0)),
    # step differences f(x) - f(x + 2), used by the telescoping families
    "step:phi1": ((1, 1, 0), (1, -1, 2)),
    "step:phi2": ((2, 1, 0), (2, -1, 2)),
    "step:phi3": ((3, 1, 0), (3, -1, 2)),
    "step:phi4": ((4, 1, 0), (4, -1, 2)),
    # mixed sums pairing (phi2+phi3) with the neighbouring (phi1-phi4) read
    "sum23+diff14_prev": ((2, 1, 0), (3, 1, 0), (1, 1, -1), (4, -1, -1)),
    "diff14+sum23_next": ((1, 1, 0), (4, -1, 0), (2, 1, 1), (3, 1, 1)),
    "diff14+sum23_prev": ((1, 1, 0), (4, -1, 0), (2, 1, -1), (3, 1, -1)),
}

# Tables store a side's component as an index into _COMPONENTS.  Its terms
# are the rows of the _TERM_* arrays (entries counted from 0), padded with
# zero weights; the scalar component has none, as a scalar symbol is read
# directly.
_COMPONENTS = ("phi", *_BLOCK_COMBOS)
_CODE = {name: code for code, name in enumerate(_COMPONENTS)}
_PADDED = [(*terms, *[(1, 0, 0)] * (4 - len(terms))) for terms in ((), *_BLOCK_COMBOS.values())]
_TERM_ENTRY, _TERM_WEIGHT, _TERM_SHIFT = np.array(_PADDED).transpose(2, 0, 1)
_TERM_ENTRY = _TERM_ENTRY - 1
_PHI = _CODE["phi"]


class RelationTable:
    """Rows ``value(lhs) == rhs_scale * value(rhs)``, or ``value(lhs) == 0``
    where ``vanish``, one numpy column per field, built from row blocks
    ``(family, vanish, lhs_component, rhs_component, lhs_index, rhs_index,
    rhs_scale)``, each field an array or one value for the block.  A side
    reads a component (``"phi"`` of a scalar symbol, or an entry combination
    such as ``"phi1+phi2"``) at an index.  ``component`` (codes into
    ``_COMPONENTS``) and ``index`` stack the lhs column over the rhs one;
    ``family`` codes into ``names`` (in first-appearance order)."""

    def __init__(self, names: tuple[str, ...], *blocks):
        size = sum(len(block[4]) for block in blocks)
        self.names = names
        self.family, self.vanish, self.rhs_scale = (np.empty(size, dtype)
                                                    for dtype in (np.intp, bool, complex))
        self.component, self.index = np.empty((2, size), np.intp), np.empty((2, size), np.int64)
        end = 0
        for block in blocks:
            rows = slice(end, end + len(block[4]))
            end = rows.stop
            (self.family[rows], self.vanish[rows], self.component[0, rows],
             self.component[1, rows], self.index[0, rows], self.index[1, rows],
             self.rhs_scale[rows]) = block
        counts = np.bincount(self.family, minlength=len(names)).tolist()
        self.families = tuple(name for name, count in zip(names, counts) if count)

    def __len__(self) -> int:
        return self.family.size


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """``table`` evaluated on a symbol: every row's ``lhs`` and ``rhs`` (as real
    and imaginary parts), and ``violations``, the violated rows' indices, ascending."""

    satisfied: bool
    mode: str
    table: RelationTable
    violations: np.ndarray
    lhs: np.ndarray
    rhs_re: np.ndarray
    rhs_im: np.ndarray

    @cached_property
    def _violated_families(self) -> frozenset[str]:
        counts = np.bincount(self.table.family[self.violations]).tolist()
        return frozenset(name for name, count in zip(self.table.names, counts) if count)

    def family_ok(self, family: str) -> bool:
        return self.satisfied or family not in self._violated_families


def _read(grid: np.ndarray, lo: int, component: np.ndarray, index: np.ndarray,
          block: bool) -> np.ndarray:
    """Each ``component`` at ``index``, from ``grid`` (entries by index from
    ``lo``; an index outside reads the zero first or last column).  A block
    value is summed term by term from ``0j``: a weight of 0 or +-1 is exact
    but for the sign of a zero, which the sum from ``+0.0`` drops.  A scalar
    value is read directly, so a ``-0.0`` part survives."""
    if not block:
        return grid[0].take(index - lo, mode="clip")
    at = np.minimum(np.maximum(index[..., None] + _TERM_SHIFT[component] - lo, 0),
                    grid.shape[1] - 1)
    terms = _TERM_WEIGHT[component] * grid[_TERM_ENTRY[component], at]
    total = terms[..., 0] + 0j
    for t in range(1, terms.shape[-1]):
        total += terms[..., t]
    return total


def evaluate_relations(symbol: LaurentSymbol | MatrixSymbol, table: RelationTable,
                       mode: str = IFF) -> ConditionReport:
    """Evaluate the relation ``table`` on a scalar or a 2x2 matrix symbol.

    A relation holds when its two sides differ by at most
    ``COEFF_TOL * max(1, ||c||_2)``, with ``||c||_2`` taken over every
    coefficient of every entry: relative, like the oracle's residual, so a
    rescaled symbol gets the same verdict.  Values and verdicts are those of
    Python's complex arithmetic and ``math.hypot``, row by row.
    """
    block = isinstance(symbol, MatrixSymbol)
    coeffs = [entry.coeffs for entry in (symbol.entries if block else (symbol,))]
    sizes = [len(c) for c in coeffs]
    keys = np.fromiter(chain.from_iterable(coeffs), np.int64, sum(sizes))
    values = np.fromiter(chain.from_iterable(c.values() for c in coeffs), complex, sum(sizes))
    # hypot throughout, as a sum of squares overflows and complex abs raises
    # OverflowError; an infinite norm would pass every relation
    norm = math.hypot(*map(math.hypot, values.real.tolist(), values.imag.tolist()))
    tol = COEFF_TOL * min(max(1.0, norm), sys.float_info.max)
    vanish = table.vanish
    if block and not (table.component[0].all() and (table.component[1] | vanish).all()):
        raise ValueError("a scalar relation cannot read a matrix symbol")
    if not block and table.component.any():
        raise ValueError("a block relation cannot read a scalar symbol")
    # every entry's coefficients as the rows of one grid, from one index
    # below the support to one above it
    lo, hi = (int(np.minimum.reduce(keys)) - 1, int(np.maximum.reduce(keys)) + 1) \
        if keys.size else (0, 0)
    grid = np.zeros((len(coeffs), hi - lo + 1), dtype=complex)
    grid[np.repeat(np.arange(len(coeffs)), sizes), keys - lo] = values
    # Python's float arithmetic: overflow gives inf or nan, silently
    with np.errstate(over="ignore", invalid="ignore"):
        lhs, value = _read(grid, lo, table.component, table.index, block)
        # Python's complex product, from real parts: numpy's complex multiply
        # may fuse a multiply and an add and round differently
        scale = table.rhs_scale
        rhs_re = scale.real * value.real - scale.imag * value.imag
        rhs_im = scale.real * value.imag + scale.imag * value.real
        rhs_re[vanish] = rhs_im[vanish] = 0.0
        diff_re, diff_im = lhs.real - rhs_re, lhs.imag - rhs_im
        # np.hypot is within an ulp of math.hypot, and the band around the
        # tolerance is about 4 ulp wide: numpy decides every row outside it,
        # math.hypot the rows inside
        distance = np.hypot(diff_re, diff_im)
        violated = distance > tol * (1 + 1e-15)
        near = ((distance >= tol * (1 - 1e-15)) & ~violated).nonzero()[0]
    violated[near] = [math.hypot(re, im) > tol
                      for re, im in zip(diff_re[near].tolist(), diff_im[near].tolist())]
    at = violated.nonzero()[0]
    return ConditionReport(not at.size, mode, table, at, lhs, rhs_re, rhs_im)


# The names the checkers call by symbol kind; patching one (as a tracer does)
# sees every scalar or every block evaluation.
evaluate_scalar_relations = evaluate_relations
evaluate_block_relations = evaluate_relations


# --- raw relation sets --------------------------------------------------------


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
    return RelationTable(names, (np.broadcast_to(family[:, None], inside.shape)[inside][first],
                                 False, _PHI, _PHI, lhs[first], rhs[first], 1))


def raw_relations_general(p: int, sigma: Sequence[int], band: int) -> RelationTable:
    """The raw table of an arbitrary residue involution, every residue cell
    in row-major order, labelled ``raw``: the entry identities of the
    truncated operator equation, where a residue cell ``(m0, s0)`` forces
    ``c_(m0 - sigma(s0) + p*l) == c_(s0 - sigma(m0) - p*l)`` for every ``l``.

    This set is an exact characterization of the truncated identity, for any
    involution, and anchors all cross-checks.
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


def _period_conditions(p: int, band: int) -> RelationTable:
    """Residue swaps and block reversals: period multiples mirror-symmetric,
    all other coefficients zero (for ``p = 1`` only the mirror remains)."""
    multiples = p * np.arange(1, band // p + 1)
    k = np.arange(-band, band + 1)
    return RelationTable(("multiples", "vanish"),
                         (0, False, _PHI, _PHI, multiples, -multiples, 1),
                         (1, True, _PHI, _PHI, k[k % p != 0], 0, 1))


def _twist_relations(lam: complex, band: int) -> RelationTable:
    """The twist-family condition ``c_(-n) = c_n * lam**n`` for every ``n``."""
    # normalized as MuLambda does; a spec's lam may move by an ulp (reports pin it)
    lam = MuLambda(1.0, lam).lam
    n = np.arange(1, band + 1)
    # Python's powers: numpy's complex power rounds differently
    scale = np.array([lam**k for k in n.tolist()], dtype=complex)
    return RelationTable(("twist",), (0, False, _PHI, _PHI, -n, n, scale))


def check_transposition(sym: LaurentSymbol, p: int, i: int, j: int) -> ConditionReport:
    """Closed-form conditions for the residue swap: coefficients at period
    multiples mirror-symmetric, all others zero.

    Mode is ``iff`` in the characterized cases and ``conjecture`` otherwise
    (the conditions are then still sufficient, and conjectured necessary; the
    explorer probes the gap).
    """
    mode = Transposition(p, i, j).characterization
    return evaluate_scalar_relations(sym, _period_conditions(p, sym.bandwidth), mode)


def _codes(*names: str) -> np.ndarray:
    return np.array([_CODE[name] for name in names])


def block_hadamard_relations(band: int) -> RelationTable:
    """The exact ``block_c`` list: ``phi1+phi2`` and ``phi3-phi4`` even-symmetric,
    the cross reflection ``(phi1-phi2)(2l) == (phi3+phi4)(-2l)``, odd ones zero."""
    half = band // 2
    even = 2 * np.arange(1, half + 1)
    # sum12_even and diff34_even alternate, l by l
    pair = _codes("phi1+phi2", "phi3-phi4")
    reflect = 2 * np.arange(-half, half + 1)
    k = np.arange(-band, band + 1)
    odd = k[k % 2 != 0]
    return RelationTable(
        ("sum12_even", "diff34_even", "cross_reflect", "odd_vanish"),
        (np.tile([0, 1], half), False, np.tile(pair, half), np.tile(pair, half),
         np.repeat(even, 2), -np.repeat(even, 2), 1),
        (2, False, _CODE["phi1-phi2"], _CODE["phi3+phi4"], reflect, -reflect, 1),
        (3, True, np.repeat(_codes("phi1", "phi2", "phi3", "phi4"), odd.size), _PHI,
         np.tile(odd, 4), 0, 1))


def block_mixed_necessary_relations(band: int) -> RelationTable:
    names = ("odd_sum14", "odd_diff23", "telescope1", "telescope2", "telescope3",
             "telescope4", "mixed_even", "mixed_odd")
    k = np.arange(-band, band + 1)
    odd = k[k % 2 != 0]
    lmax = band // 2 + 2
    even = 2 * np.arange(-lmax, lmax + 1)
    steps = np.repeat(_codes("step:phi1", "step:phi2", "step:phi3", "step:phi4"), even.size)
    return RelationTable(
        names,
        # odd_sum14 and odd_diff23 alternate, index by index
        (np.tile([0, 1], odd.size), True, np.tile(_codes("phi1+phi4", "phi2-phi3"), odd.size),
         _PHI, np.repeat(odd, 2), 0, 1),
        (np.repeat([2, 3, 4, 5], even.size), False, steps, steps,
         np.tile(even, 4), np.tile(-even - 2, 4), -1),
        # mixed_even and mixed_odd alternate, l by l
        (np.tile([6, 7], even.size), False,
         np.tile(_codes("sum23+diff14_prev", "diff14+sum23_next"), even.size),
         np.tile(_codes("sum23+diff14_prev", "diff14+sum23_prev"), even.size),
         np.repeat(even, 2), -np.repeat(even, 2), 1))


def check_block_mixed_necessary(msym: MatrixSymbol) -> ConditionReport:
    """The mixed block conjugation's condition list, family by family:

    * ``odd_sum14`` / ``odd_diff23``: odd coefficients of ``phi1+phi4`` and
      ``phi2-phi3`` vanish;
    * ``telescope1..4``: the even-index step differences
      ``f(2l) - f(2l+2)`` of each entry mirror with a sign flip;
    * ``mixed_even`` / ``mixed_odd``: the two mixed sums of ``phi2+phi3``
      and ``phi1-phi4`` at adjacent indices mirror.

    The list is not sufficient, and not necessary either: ``telescope2`` and
    ``telescope3`` reject some symmetric symbols (ROADMAP item 1).
    """
    rels = block_mixed_necessary_relations(msym.bandwidth)
    return evaluate_block_relations(msym, rels, BlockMixed.characterization)


# --- dispatch, cross-validation trials ----------------------------------------


def condition_reports(symbol, spec: ConjugationSpec
                      ) -> tuple[ConditionReport, ConditionReport | None]:
    """Authoritative condition report for ``spec`` plus an advisory one.

    For residue swaps outside the characterized cases the authoritative
    verdict comes from the raw relation set (exact at the truncation) and the
    closed-form conditions are returned as the advisory, conjecture-mode
    report.
    """
    if isinstance(spec, Transposition):
        closed_form = check_transposition(symbol, spec.p, spec.i, spec.j)
        if spec.characterization == IFF:
            return closed_form, None
        raw = raw_relations_transposition(spec.p, spec.i, spec.j, symbol.bandwidth)
        return evaluate_scalar_relations(symbol, raw, IFF), closed_form
    if isinstance(spec, BlockMixed):
        return check_block_mixed_necessary(symbol), None
    band, mode = symbol.bandwidth, spec.characterization
    if isinstance(spec, GeneralPermutation):
        raw = raw_relations_general(spec.p, spec.sigma, band)
        return evaluate_scalar_relations(symbol, raw, IFF), None
    if isinstance(spec, Reversal):
        return evaluate_scalar_relations(symbol, _period_conditions(spec.n, band), mode), None
    if isinstance(spec, MuLambda):
        return evaluate_scalar_relations(symbol, _twist_relations(spec.lam, band), mode), None
    if isinstance(spec, BlockHadamard):
        return evaluate_block_relations(symbol, block_hadamard_relations(band), mode), None
    raise TypeError(f"not a conjugation spec: {spec!r}")


def reports_agree(condition: ConditionReport, oracle: SymmetryReport) -> bool:
    """Whether a condition verdict and an oracle verdict are consistent:
    equivalence for iff/conjecture-resolved reports, one-sided implication
    (symmetric implies satisfied) for necessary-only ones."""
    if condition.mode == NECESSARY_ONLY:
        return condition.satisfied or not oracle.symmetric
    return condition.satisfied == oracle.symmetric


@dataclass(frozen=True)
class CheckOutcome:
    condition: ConditionReport
    advisory: ConditionReport | None
    oracle: SymmetryReport
    agree: bool


def run_check(symbol, spec: ConjugationSpec, tol: float = SYMMETRY_TOL) -> CheckOutcome:
    oracle = is_c_symmetric(symbol, spec, tol)
    condition, advisory = condition_reports(symbol, spec)
    return CheckOutcome(condition, advisory, oracle, reports_agree(condition, oracle))


@dataclass(frozen=True)
class TrialResult:
    agree: bool
    condition_satisfied: bool
    oracle_symmetric: bool
    residual: float


def _trial_symbol(spec: ConjugationSpec, seed: int, band: int, density: float,
                  satisfying: bool):
    if spec.is_block:
        if not satisfying:
            return random_matrix_symbol(seed, band, density)
        if isinstance(spec, BlockHadamard):
            return random_block_hadamard_symmetric(seed, band, density)
        return random_block_mixed_symmetric(seed, band, density)
    sym = random_symbol(seed, band, density)
    if not satisfying:
        return sym
    if spec.characterization == IFF:
        return project_to_conditions(sym, spec)
    return project_to_raw(sym, spec, band)


def equivalence_trial(spec: ConjugationSpec, seed: int, band: int,
                      density: float = 0.5, tol: float = SYMMETRY_TOL,
                      satisfying: bool = False) -> TrialResult:
    """One seeded cross-validation trial: draw a symbol (optionally projected
    onto the family's solution set so the satisfied direction gets exercised),
    then compare the condition verdict with the oracle verdict."""
    symbol = _trial_symbol(spec, seed, band, density, satisfying)
    outcome = run_check(symbol, spec, tol)
    return TrialResult(outcome.agree, outcome.condition.satisfied,
                       outcome.oracle.symmetric, outcome.oracle.residual)


# --- solution-set samplers ------------------------------------------------------


def random_block_hadamard_symmetric(seed: int, max_band: int,
                                    density: float = 0.7) -> MatrixSymbol:
    """Random matrix symbol satisfying the cross-form Hadamard conditions
    exactly: draw the two even-symmetric combinations ``phi1+phi2`` and
    ``phi3-phi4``, a free even-only difference ``phi1-phi2``, and set
    ``phi3+phi4`` to its reflection."""
    rng = np.random.default_rng(seed)
    s1, s2, s3 = (int(v) for v in rng.integers(0, 2**62, size=3))
    sum12 = project_to_conditions(random_symbol(s1, max_band, density), Reversal(2))
    diff34 = project_to_conditions(random_symbol(s2, max_band, density), Reversal(2))
    raw = random_symbol(s3, max_band, density)
    diff12 = LaurentSymbol({k: v for k, v in raw.coeffs.items() if k % 2 == 0})
    sum34 = LaurentSymbol({-k: v for k, v in diff12.coeffs.items()})
    phi1 = (sum12 + diff12) * 0.5
    phi2 = (sum12 - diff12) * 0.5
    phi3 = (sum34 + diff34) * 0.5
    phi4 = (sum34 - diff34) * 0.5
    return MatrixSymbol(phi1, phi2, phi3, phi4)


def random_block_mixed_symmetric(seed: int, max_band: int,
                                 density: float = 0.7) -> MatrixSymbol:
    """Random matrix symbol that is exactly symmetric under the mixed block
    conjugation, drawn from a proper subspace of the symmetric symbols:

    * entries 1 and 4 are even-only with mirror-symmetric coefficients;
    * entries 2 and 3 share one mirror-symmetric odd part ``q`` and carry
      opposite mirror-symmetric even parts;
    * the diagonal gap is pinned by ``f1(2l) - f4(2l) = q(l) + q(l-1)``, where
      ``q(l)`` is the odd coefficient at ``2l + 1``; at an odd ``max_band``
      this reaches bandwidth ``max_band + 1``.
    """
    q, f2_half, f4_half = draw_coeffs(seed, max_band, density, range((max_band + 1) // 2),
                                      *[range(0, max_band + 1, 2)] * 2)
    odd = {2 * l + 1: v for l, v in q.items()}
    f2 = {s * k: v for half in (f2_half, odd) for k, v in half.items() for s in (1, -1)}
    f3 = {k: (v if k % 2 else -v) for k, v in f2.items()}
    f4 = {s * k: v for k, v in f4_half.items() for s in (1, -1)}
    top = max_band // 2 + 1
    f1 = {2 * l: f4.get(2 * l, 0j) + f2.get(2 * l + 1, 0j) + f2.get(2 * l - 1, 0j)
          for l in range(-top, top + 1)}
    return MatrixSymbol(LaurentSymbol(f1), LaurentSymbol(f2),
                        LaurentSymbol(f3), LaurentSymbol(f4))


# --- raw-set projection and explorers -------------------------------------------


@lru_cache
def _raw_components(spec: ConjugationSpec, band: int) -> tuple[
        RelationTable, tuple[tuple[tuple[int, ...], bool], ...]]:
    """The raw relation table of ``spec`` at ``band`` and the connected
    components of its equality graph over the enumeration window, each with a
    flag marking components pinned to zero because they touch an index
    outside the support band."""
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
    return relations, tuple((g, any(abs(m) > band for m in g)) for g in groups)


def project_to_raw(sym: LaurentSymbol, spec: ConjugationSpec, band: int) -> LaurentSymbol:
    """Orthogonal projection of a symbol onto the solution set of the raw
    relation system: coefficients are averaged over each equality component,
    and components reaching outside the support band collapse to zero.

    The output satisfies every raw relation exactly, hence is exactly
    symmetric under the truncated conjugation.
    """
    if spec.sigma is None:
        raise ValueError("raw projection applies to residue-permutation families only")
    coeffs = dict(sym.coeffs)
    out: dict[int, complex] = {k: v for k, v in coeffs.items() if abs(k) <= band}
    for members, forced_zero in _raw_components(spec, band)[1]:
        inside = [m for m in members if abs(m) <= band]
        if not inside:
            continue
        if forced_zero:
            for m in inside:
                out.pop(m, None)
            continue
        mean = sum(coeffs.get(m, 0j) for m in inside) / len(inside)
        for m in inside:
            out[m] = mean
    return LaurentSymbol(out)


def explore_transposition(p: int, i: int, j: int, band: int, trials: int,
                          seed: int, tol: float = SYMMETRY_TOL) -> dict:
    """Probe the open case of the residue-swap characterization.

    Each trial projects a random symbol onto the raw (exact) solution set and
    asks whether the closed-form conditions also hold.  A candidate is a
    symbol that is genuinely symmetric at the truncation yet violates the
    closed-form conditions; an empty candidate list is the expected outcome
    if the conjectured characterization is true.  Raw/oracle mismatches are
    reported separately as anomalies (they would indicate an implementation
    fault, not mathematics).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = Transposition(p, i, j)
    if spec.characterization == IFF:
        raise ValueError("this residue swap is characterized; nothing to explore")
    raw = _raw_components(spec, band)[0]
    candidates = []
    anomalies = []
    zero_projections = 0
    for t in range(trials):
        s = seed + t
        sym = project_to_raw(random_symbol(s, band, 0.7), spec, band)
        if sym.is_zero:
            zero_projections += 1
            continue
        raw_report = evaluate_scalar_relations(sym, raw)
        oracle = is_c_symmetric(sym, spec, tol)
        closed_form = check_transposition(sym, p, i, j)
        if not raw_report.satisfied or not oracle.symmetric:
            anomalies.append(s)
        elif not closed_form.satisfied:
            candidates.append({"seed": s, "residual": oracle.residual,
                               "symbol": sym.to_json()})
    return {"family": Transposition.name, "p": p, "i": i, "j": j, "band": band,
            "trials": trials, "seed": seed, "zero_projections": zero_projections,
            "candidates": candidates, "anomalies": anomalies}


def _block_mixed_nullspace(band: int) -> np.ndarray:
    """Complex null-space basis (columns) of the ``block_ctilde`` list's system
    over coefficient vectors of the four entries on ``[-band, band]``.  A
    relation's row holds the weights its ``lhs - rhs`` puts on the unknowns
    inside the band (its scale is real, +-1); a relation reading nothing
    inside the band gives no row."""
    table = block_mixed_necessary_relations(band)
    width = 2 * band + 1
    # each term of lhs - rhs: its weight and the index it reads
    side = np.stack((np.ones(len(table)), np.where(table.vanish, 0.0, -table.rhs_scale.real)))
    weight = _TERM_WEIGHT[table.component] * side[..., None]
    at = table.index[..., None] + _TERM_SHIFT[table.component]
    inside = (weight != 0) & (np.abs(at) <= band)
    row = inside.nonzero()[1]
    matrix = np.zeros((len(table), 4 * width))
    np.add.at(matrix, (row, (_TERM_ENTRY[table.component] * width + at + band)[inside]),
              weight[inside])
    # never empty: the telescoping relations at l = 0 read index 0
    matrix = matrix[np.unique(row)].astype(complex)
    _, sv, vh = np.linalg.svd(matrix)
    cutoff = max(matrix.shape) * np.finfo(float).eps * sv[0]
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


def explore_block_mixed(band: int, trials: int, seed: int,
                        tol: float = SYMMETRY_TOL) -> dict:
    """Probe whether the mixed-block condition list is also sufficient:
    sample the condition solution set and report every sample the oracle
    rejects.  Candidates are expected (the list is not sufficient); anomalies
    mark samples that fail the very conditions they were built to satisfy."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if band < 0:
        raise ValueError("band must be >= 0")
    nullspace = _block_mixed_nullspace(band)
    width = 2 * band + 1
    dim = nullspace.shape[1]
    candidates = []
    anomalies = []
    degenerate = 0
    for t in range(trials):
        s = seed + t
        rng = np.random.default_rng(s)
        weights = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = nullspace @ weights
        peak = float(np.max(np.abs(vec)))
        if peak < 1e-9:  # also the zero vector of an empty nullspace
            degenerate += 1
            continue
        vec = vec / peak
        msym = MatrixSymbol(*(LaurentSymbol({k - band: v for k, v in enumerate(chunk)
                                             if abs(v) > 1e-13})
                              for chunk in vec.reshape(4, width)))
        condition = check_block_mixed_necessary(msym)
        oracle = is_c_symmetric(msym, BlockMixed(), tol)
        if not condition.satisfied:
            anomalies.append(s)
        elif not oracle.symmetric:
            candidates.append({"seed": s, "residual": oracle.residual,
                               "symbol": msym.to_json()})
    return {"family": BlockMixed.name, "band": band, "trials": trials, "seed": seed,
            "nullspace_dim": int(dim), "degenerate": degenerate,
            "candidates": candidates, "anomalies": anomalies}


# --- JSON views ------------------------------------------------------------------


def condition_report_to_json(report: ConditionReport) -> dict:
    """The report as JSON, each violation read from the columns at its row."""
    t, at, rows = report.table, report.violations, []
    if not report.satisfied:
        columns = (t.family[at], t.vanish[at], *t.index[:, at], *t.component[:, at],
                   report.lhs.real[at], report.lhs.imag[at], report.rhs_re[at], report.rhs_im[at])
        rows = [{"family": t.names[family], "lhs": lhs, "rhs": None if vanish else rhs,
                 "lhs_component": _COMPONENTS[lc],
                 "rhs_component": None if vanish else _COMPONENTS[rc],
                 "lhs_value": [lhs_re, lhs_im], "rhs_value": [rhs_re, rhs_im]}
                for family, vanish, lhs, rhs, lc, rc, lhs_re, lhs_im, rhs_re, rhs_im
                in zip(*(column.tolist() for column in columns))]
    return {
        "satisfied": report.satisfied,
        "mode": report.mode,
        "families": {name: report.family_ok(name) for name in report.table.families},
        "violations": rows,
    }


def outcome_to_json(outcome: CheckOutcome) -> dict:
    return {
        "agree": outcome.agree,
        "condition": condition_report_to_json(outcome.condition),
        "advisory": (None if outcome.advisory is None
                     else condition_report_to_json(outcome.advisory)),
        "oracle": report_to_json(outcome.oracle),
    }
