"""Coefficient-condition checkers and their cross-validation harness.

Deciding whether a Toeplitz truncation commutes correctly with a conjugation
(``C T C = T*``) reduces to families of linear identities between Fourier
coefficients.  This module enumerates those identities as :class:`Relation`
objects, evaluates them against symbols, and cross-checks every symbolic
verdict against the brute-force matrix oracle in :mod:`toepsym.symmetry`.

Three kinds of relation sets coexist:

* *raw* sets -- the entry-by-entry identities of the truncated operator
  equation, valid for any residue permutation; they are exact by
  construction and serve as the reference the closed-form condition sets
  are compared against;
* *closed-form* sets -- the compact characterizations (period multiples
  symmetric, everything else vanishing; reflection with a power of lambda;
  the block condition lists);
* *rule* sets -- the interchange/sign rewriting of the raw relations for
  residue swaps with ``p = m*q + 1``, ``i = q - 1``, ``j = p - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .conjugations import (
    CONJECTURE,
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
    complex_to_pair,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from .symmetry import SYMMETRY_TOL, SymmetryReport, is_c_symmetric, report_to_json

COEFF_TOL = 1e-12

SCALAR_COMPONENT = "phi"

CROSS_FORM = "cross"
SUMS_FORM = "sums"


@dataclass(frozen=True)
class Relation:
    """One linear identity between coefficient reads.

    ``equality`` means ``value(lhs) == rhs_scale * value(rhs)``; ``vanish``
    means ``value(lhs) == 0``.  A side is a component label plus an index;
    scalar relations use the single component ``"phi"`` while block relations
    name entry combinations such as ``"phi1+phi2"``.
    """

    kind: str
    lhs_index: int
    rhs_index: int = 0
    rhs_scale: complex = 1.0 + 0j
    lhs_component: str = SCALAR_COMPONENT
    rhs_component: str = SCALAR_COMPONENT
    family: str = ""


@dataclass(frozen=True)
class Violation:
    relation: Relation
    lhs_value: complex
    rhs_value: complex


@dataclass(frozen=True)
class ConditionReport:
    satisfied: bool
    mode: str
    violations: tuple[Violation, ...]
    families: tuple[str, ...]

    def family_ok(self, family: str) -> bool:
        return all(v.relation.family != family for v in self.violations)


ValueFn = Callable[[str, int], complex]


def scalar_value_fn(sym: LaurentSymbol) -> ValueFn:
    def value(component: str, index: int) -> complex:
        return sym.coeff(index)

    return value


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


def block_value_fn(msym: MatrixSymbol) -> ValueFn:
    entries = msym.entries

    def value(component: str, index: int) -> complex:
        total = 0j
        for entry, coeff, shift in _BLOCK_COMBOS[component]:
            total += coeff * entries[entry - 1].coeff(index + shift)
        return total

    return value


def evaluate_relations(relations: Sequence[Relation], value_of: ValueFn,
                       mode: str = IFF, tol: float = COEFF_TOL) -> ConditionReport:
    violations = []
    families: list[str] = []
    seen = set()
    for rel in relations:
        if rel.family not in seen:
            seen.add(rel.family)
            families.append(rel.family)
        lhs = value_of(rel.lhs_component, rel.lhs_index)
        if rel.kind == "vanish":
            rhs = 0j
            ok = abs(lhs) <= tol
        else:
            rhs = rel.rhs_scale * value_of(rel.rhs_component, rel.rhs_index)
            ok = abs(lhs - rhs) <= tol
        if not ok:
            violations.append(Violation(rel, lhs, rhs))
    return ConditionReport(not violations, mode, tuple(violations), tuple(families))


def evaluate_scalar_relations(sym: LaurentSymbol, relations: Sequence[Relation],
                              mode: str = IFF, tol: float = COEFF_TOL) -> ConditionReport:
    return evaluate_relations(relations, scalar_value_fn(sym), mode, tol)


def evaluate_block_relations(msym: MatrixSymbol, relations: Sequence[Relation],
                             mode: str = IFF, tol: float = COEFF_TOL) -> ConditionReport:
    return evaluate_relations(relations, block_value_fn(msym), mode, tol)


# --- raw relation sets --------------------------------------------------------


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _add_pair_family(out: dict[tuple[int, int], Relation], c: int, d: int, p: int,
                     window: int, family: str):
    """All instances of ``value(c + p*l) == value(d - p*l)`` whose referenced
    indices stay inside ``[-window, window]``; outside, finite support makes
    both sides zero and the instance vacuous.  ``out`` is keyed by the
    unordered index pair, so an equality already present in either
    orientation keeps its first form and family."""
    lo = max(_ceil_div(-window - c, p), _ceil_div(d - window, p))
    hi = min((window - c) // p, (d + window) // p)
    for l in range(lo, hi + 1):
        a, b = c + p * l, d - p * l
        key = (a, b) if a <= b else (b, a)
        if key not in out:
            out[key] = Relation("equality", a, b, family=family)


def _raw_relations(p: int, sigma: Sequence[int], band: int,
                   cells: Sequence[tuple[int, int, str]]) -> list[Relation]:
    """Entry identities of the truncated operator equation for the residue
    involution ``sigma``: each residue cell ``(m0, s0, family)`` forces
    ``c_(m0 - sigma(s0) + p*l) == c_(s0 - sigma(m0) - p*l)`` for every ``l``.
    Cells are taken in order; repeated relations are dropped."""
    if band < 0:
        raise ValueError("band must be >= 0")
    window = band + 2 * p
    out: dict[tuple[int, int], Relation] = {}
    for m0, s0, family in cells:
        _add_pair_family(out, m0 - sigma[s0], s0 - sigma[m0], p, window, family)
    return list(out.values())


def raw_relations_general(p: int, sigma: Sequence[int], band: int) -> list[Relation]:
    """The raw table of an arbitrary residue involution, every residue cell
    in row-major order, labelled ``raw``.

    This set is an exact characterization of the truncated identity, for any
    involution, and anchors all cross-checks.
    """
    sigma = GeneralPermutation(p, tuple(sigma)).sigma
    cells = [(m0, s0, "raw") for m0 in range(p) for s0 in range(p)]
    return _raw_relations(p, sigma, band, cells)


def raw_relations_transposition(p: int, i: int, j: int, band: int) -> list[Relation]:
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
    return _raw_relations(p, sigma, band, cells)


def interchange_sign_relations(p: int, q: int, band: int) -> list[Relation]:
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
    if band < 0:
        raise ValueError("band must be >= 0")
    window = band + 2 * p
    gap = p - q
    out: dict[tuple[int, int], Relation] = {}
    pairs = set()
    for c in range(-(p - 1), p):
        if c == 0 or abs(c) == gap:
            continue
        for total in (gap, -gap):
            d = total - c
            if d == 0 or abs(d) == gap or abs(d) > p - 1:
                continue
            pairs.add(tuple(sorted((c, d))))
    for c, d in sorted(pairs):
        _add_pair_family(out, c, d, p, window, "interchange")
    _add_pair_family(out, gap, gap, p, window, "interchange")
    _add_pair_family(out, -gap, -gap, p, window, "interchange")
    top = p - 2 if q == 1 else p - 1
    for c in range(1, top):
        _add_pair_family(out, c, -c, p, window, "sign")
    return list(out.values())


# --- closed-form condition sets -------------------------------------------------


def _period_conditions(p: int, band: int) -> list[Relation]:
    rels = []
    for l in range(1, band // p + 1):
        rels.append(Relation("equality", p * l, -p * l, family="multiples"))
    for k in range(-band, band + 1):
        if k % p != 0:
            rels.append(Relation("vanish", k, family="vanish"))
    return rels


def check_transposition(sym: LaurentSymbol, p: int, i: int, j: int,
                        tol: float = COEFF_TOL) -> ConditionReport:
    """Closed-form conditions for the residue swap: coefficients at period
    multiples mirror-symmetric, all others zero.

    Mode is ``iff`` in the characterized cases and ``conjecture`` otherwise
    (the conditions are then still sufficient, and conjectured necessary; the
    explorer probes the gap).
    """
    mode = Transposition(p, i, j).characterization
    rels = _period_conditions(p, sym.bandwidth)
    return evaluate_scalar_relations(sym, rels, mode, tol)


def check_reversal(sym: LaurentSymbol, n: int, tol: float = COEFF_TOL) -> ConditionReport:
    """Block-reversal conditions: multiples of ``n`` mirror-symmetric, all
    other coefficients zero (for ``n = 1`` only the mirror clause remains)."""
    Reversal(n)
    rels = _period_conditions(n, sym.bandwidth)
    return evaluate_scalar_relations(sym, rels, IFF, tol)


def check_mu_lambda(sym: LaurentSymbol, lam: complex, tol: float = COEFF_TOL) -> ConditionReport:
    """Twist-family condition ``c_(-n) = c_n * lam**n`` for every ``n``."""
    lam = MuLambda(1.0, lam).lam
    rels = [Relation("equality", -n, n, rhs_scale=lam**n, family="twist")
            for n in range(1, sym.bandwidth + 1)]
    return evaluate_scalar_relations(sym, rels, IFF, tol)


def block_hadamard_relations(band: int, form: str = CROSS_FORM) -> list[Relation]:
    half = band // 2
    rels = []
    if form == CROSS_FORM:
        for l in range(1, half + 1):
            rels.append(Relation("equality", 2 * l, -2 * l, lhs_component="phi1+phi2",
                                 rhs_component="phi1+phi2", family="sum12_even"))
            rels.append(Relation("equality", 2 * l, -2 * l, lhs_component="phi3-phi4",
                                 rhs_component="phi3-phi4", family="diff34_even"))
        for l in range(-half, half + 1):
            rels.append(Relation("equality", 2 * l, -2 * l, lhs_component="phi1-phi2",
                                 rhs_component="phi3+phi4", family="cross_reflect"))
    elif form == SUMS_FORM:
        for combo, family in (("phi1+phi2", "sum12_even"), ("phi1+phi3", "sum13_even"),
                              ("phi1+phi4", "sum14_even")):
            for l in range(1, half + 1):
                rels.append(Relation("equality", 2 * l, -2 * l, lhs_component=combo,
                                     rhs_component=combo, family=family))
    else:
        raise ValueError(f"unknown form {form!r}; expected {CROSS_FORM!r} or {SUMS_FORM!r}")
    for name in ("phi1", "phi2", "phi3", "phi4"):
        for k in range(-band, band + 1):
            if k % 2 != 0:
                rels.append(Relation("vanish", k, lhs_component=name, family="odd_vanish"))
    return rels


def check_block_hadamard(msym: MatrixSymbol, form: str = CROSS_FORM,
                         tol: float = COEFF_TOL) -> ConditionReport:
    """Conditions for the Hadamard-type block conjugation.

    ``form="cross"`` is the list with the cross reflection
    ``(phi1-phi2)(2l) == (phi3+phi4)(-2l)``; ``form="sums"`` is the
    alternative using the three pairwise sums ``phi1+phi2``, ``phi1+phi3``,
    ``phi1+phi4``.  The cross form is the one the matrix oracle confirms as
    exact; the sums form is implied by it but demonstrably weaker (see the
    adversarial tests), so ``cross`` is the default everywhere a single
    verdict is needed.
    """
    rels = block_hadamard_relations(msym.bandwidth, form)
    return evaluate_block_relations(msym, rels, IFF, tol)


def block_mixed_necessary_relations(band: int) -> list[Relation]:
    rels = []
    for k in range(-band, band + 1):
        if k % 2 != 0:
            rels.append(Relation("vanish", k, lhs_component="phi1+phi4", family="odd_sum14"))
            rels.append(Relation("vanish", k, lhs_component="phi2-phi3", family="odd_diff23"))
    lmax = band // 2 + 2
    for idx in (1, 2, 3, 4):
        comp = f"step:phi{idx}"
        for l in range(-lmax, lmax + 1):
            rels.append(Relation("equality", 2 * l, -2 * l - 2, rhs_scale=-1,
                                 lhs_component=comp, rhs_component=comp,
                                 family=f"telescope{idx}"))
    for l in range(-lmax, lmax + 1):
        rels.append(Relation("equality", 2 * l, -2 * l, lhs_component="sum23+diff14_prev",
                             rhs_component="sum23+diff14_prev", family="mixed_even"))
        rels.append(Relation("equality", 2 * l, -2 * l, lhs_component="diff14+sum23_next",
                             rhs_component="diff14+sum23_prev", family="mixed_odd"))
    return rels


def check_block_mixed_necessary(msym: MatrixSymbol, tol: float = COEFF_TOL) -> ConditionReport:
    """Necessary conditions for the mixed block conjugation, reported family
    by family:

    * ``odd_sum14`` / ``odd_diff23``: odd coefficients of ``phi1+phi4`` and
      ``phi2-phi3`` vanish;
    * ``telescope1..4``: the even-index step differences
      ``f(2l) - f(2l+2)`` of each entry mirror with a sign flip;
    * ``mixed_even`` / ``mixed_odd``: the two mixed sums of ``phi2+phi3``
      and ``phi1-phi4`` at adjacent indices mirror.

    The set is necessary but not sufficient; the explorer searches the gap.
    """
    rels = block_mixed_necessary_relations(msym.bandwidth)
    return evaluate_block_relations(msym, rels, NECESSARY_ONLY, tol)


# --- dispatch, cross-validation trials ----------------------------------------


def condition_reports(symbol, spec: ConjugationSpec,
                      tol: float = COEFF_TOL) -> tuple[ConditionReport, ConditionReport | None]:
    """Authoritative condition report for ``spec`` plus an advisory one.

    For residue swaps outside the characterized cases the authoritative
    verdict comes from the raw relation set (exact at the truncation) and the
    closed-form conditions are returned as the advisory, conjecture-mode
    report.
    """
    if isinstance(spec, Transposition):
        closed_form = check_transposition(symbol, spec.p, spec.i, spec.j, tol)
        if spec.characterization == IFF:
            return closed_form, None
        raw = raw_relations_transposition(spec.p, spec.i, spec.j, symbol.bandwidth)
        return evaluate_scalar_relations(symbol, raw, IFF, tol), closed_form
    if isinstance(spec, GeneralPermutation):
        raw = raw_relations_general(spec.p, spec.sigma, symbol.bandwidth)
        return evaluate_scalar_relations(symbol, raw, IFF, tol), None
    if isinstance(spec, Reversal):
        return check_reversal(symbol, spec.n, tol), None
    if isinstance(spec, MuLambda):
        return check_mu_lambda(symbol, spec.lam, tol), None
    if isinstance(spec, BlockHadamard):
        return check_block_hadamard(symbol, CROSS_FORM, tol), None
    if isinstance(spec, BlockMixed):
        return check_block_mixed_necessary(symbol, tol), None
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


def run_check(symbol, spec: ConjugationSpec, tol: float = SYMMETRY_TOL,
              coeff_tol: float = COEFF_TOL) -> CheckOutcome:
    oracle = is_c_symmetric(symbol, spec, tol)
    condition, advisory = condition_reports(symbol, spec, coeff_tol)
    return CheckOutcome(condition, advisory, oracle, reports_agree(condition, oracle))


@dataclass(frozen=True)
class TrialResult:
    seed: int
    agree: bool
    condition_satisfied: bool
    oracle_symmetric: bool
    residual: float
    satisfying_input: bool


def _trial_symbol(spec: ConjugationSpec, seed: int, band: int, density: float,
                  satisfying: bool):
    exact_closed_form = spec.characterization == IFF
    if spec.is_block:
        if not satisfying:
            return random_matrix_symbol(seed, band, density)
        if exact_closed_form:
            return random_block_hadamard_symmetric(seed, band, density)
        return random_block_mixed_symmetric(seed, band, density)
    sym = random_symbol(seed, band, density)
    if not satisfying:
        return sym
    if exact_closed_form:
        return project_to_conditions(sym, spec)
    return project_to_raw(sym, spec, band)


def equivalence_trial(spec: ConjugationSpec, seed: int, band: int,
                      density: float = 0.5, tol: float = SYMMETRY_TOL,
                      coeff_tol: float = COEFF_TOL, satisfying: bool = False) -> TrialResult:
    """One seeded cross-validation trial: draw a symbol (optionally projected
    onto the family's solution set so the satisfied direction gets exercised),
    then compare the condition verdict with the oracle verdict."""
    symbol = _trial_symbol(spec, seed, band, density, satisfying)
    outcome = run_check(symbol, spec, tol, coeff_tol)
    return TrialResult(seed, outcome.agree, outcome.condition.satisfied,
                       outcome.oracle.symmetric, outcome.oracle.residual, satisfying)


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
    conjugation, built from the full solution parametrization:

    * entries 1 and 4 are even-only with mirror-symmetric coefficients;
    * entries 2 and 3 share one mirror-symmetric odd part ``q`` and carry
      opposite mirror-symmetric even parts;
    * the diagonal gap is pinned by ``f1(2l) - f4(2l) = q(l) + q(l-1)``
      where ``q(l)`` reads the odd coefficient at ``2l + 1``.
    """
    rng = np.random.default_rng(seed)

    def symmetric_even(max_k: int) -> dict[int, complex]:
        coeffs: dict[int, complex] = {}
        for k in range(0, max_k + 1, 2):
            if rng.random() < density:
                re, im = rng.uniform(-1.0, 1.0, size=2)
                coeffs[k] = complex(re, im)
                if k:
                    coeffs[-k] = coeffs[k]
        return coeffs

    q: dict[int, complex] = {}
    for l in range(0, (max_band - 1) // 2 + 1):
        if rng.random() < density:
            re, im = rng.uniform(-1.0, 1.0, size=2)
            q[l] = complex(re, im)

    def qval(l: int) -> complex:
        return q.get(l if l >= 0 else -l - 1, 0j)

    f2_even = symmetric_even(max_band)
    f4_even = symmetric_even(max_band)

    f2 = dict(f2_even)
    for l, v in q.items():
        f2[2 * l + 1] = v
        f2[-(2 * l + 1)] = v
    f3 = {k: (v if k % 2 else -v) for k, v in f2.items()}
    f1 = {}
    top = max_band // 2 + 1
    for l in range(-top, top + 1):
        f1[2 * l] = f4_even.get(2 * l, 0j) + qval(l) + qval(l - 1)
    return MatrixSymbol(LaurentSymbol(f1), LaurentSymbol(f2),
                        LaurentSymbol(f3), LaurentSymbol(f4_even))


# --- raw-set projection and explorers -------------------------------------------


@lru_cache(maxsize=None)
def _raw_components(spec: ConjugationSpec, band: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """Connected components of the raw equality graph over the enumeration
    window, with a flag marking components pinned to zero because they touch
    an index outside the support band."""
    relations = raw_relations_general(spec.period, spec.sigma, band)
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for rel in relations:
        union(rel.lhs_index, rel.rhs_index)
    groups: dict[int, list[int]] = {}
    for idx in parent:
        groups.setdefault(find(idx), []).append(idx)
    out = []
    for members in groups.values():
        members.sort()
        forced_zero = any(abs(m) > band for m in members)
        out.append((tuple(members), forced_zero))
    out.sort()
    return tuple(out)


def project_to_raw(sym: LaurentSymbol, spec: ConjugationSpec,
                   band: int | None = None) -> LaurentSymbol:
    """Orthogonal projection of a symbol onto the solution set of the raw
    relation system: coefficients are averaged over each equality component,
    and components reaching outside the support band collapse to zero.

    The output satisfies every raw relation exactly, hence is exactly
    symmetric under the truncated conjugation.
    """
    if spec.sigma is None:
        raise ValueError("raw projection applies to residue-permutation families only")
    if band is None:
        band = sym.bandwidth
    coeffs = dict(sym.coeffs)
    out: dict[int, complex] = {k: v for k, v in coeffs.items() if abs(k) <= band}
    for members, forced_zero in _raw_components(spec, band):
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
                          seed: int, tol: float = SYMMETRY_TOL,
                          density: float = 0.7) -> dict:
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
    raw = raw_relations_transposition(p, i, j, band)
    candidates = []
    anomalies = []
    zero_projections = 0
    for t in range(trials):
        s = seed + t
        sym = project_to_raw(random_symbol(s, band, density), spec, band)
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
    """Complex null-space basis (columns) of the necessary-condition system
    over coefficient vectors of the four entries on ``[-band, band]``."""
    width = 2 * band + 1
    nvars = 4 * width

    def col(entry: int, k: int) -> int:
        return (entry - 1) * width + (k + band)

    rows = []
    for rel in block_mixed_necessary_relations(band):
        row = np.zeros(nvars, dtype=complex)
        empty = True
        for entry, coeff, shift in _BLOCK_COMBOS[rel.lhs_component]:
            k = rel.lhs_index + shift
            if abs(k) <= band:
                row[col(entry, k)] += coeff
                empty = False
        if rel.kind == "equality":
            for entry, coeff, shift in _BLOCK_COMBOS[rel.rhs_component]:
                k = rel.rhs_index + shift
                if abs(k) <= band:
                    row[col(entry, k)] -= rel.rhs_scale * coeff
                    empty = False
        if not empty:
            rows.append(row)
    matrix = np.vstack(rows) if rows else np.zeros((1, nvars), dtype=complex)
    _, sv, vh = np.linalg.svd(matrix)
    cutoff = max(matrix.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


def explore_block_mixed(band: int, trials: int, seed: int,
                        tol: float = SYMMETRY_TOL) -> dict:
    """Probe whether the mixed-block necessary conditions are also
    sufficient: sample the condition solution set and report every sample the
    oracle rejects.  Candidates are expected (the conditions are necessary
    only); anomalies mark samples that fail the very conditions they were
    built to satisfy."""
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
        if dim == 0:
            degenerate += 1
            continue
        rng = np.random.default_rng(s)
        weights = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = nullspace @ weights
        peak = float(np.max(np.abs(vec))) if vec.size else 0.0
        if peak < 1e-9:
            degenerate += 1
            continue
        vec = vec / peak
        entries = []
        for e in range(4):
            chunk = vec[e * width:(e + 1) * width]
            entries.append(LaurentSymbol(
                {k - band: chunk[k] for k in range(width) if abs(chunk[k]) > 1e-13}))
        msym = MatrixSymbol(*entries)
        condition = check_block_mixed_necessary(msym, tol=1e-9)
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


def violation_to_json(v: Violation) -> dict:
    rel = v.relation
    return {
        "family": rel.family,
        "lhs": rel.lhs_index,
        "rhs": None if rel.kind == "vanish" else rel.rhs_index,
        "lhs_component": rel.lhs_component,
        "rhs_component": None if rel.kind == "vanish" else rel.rhs_component,
        "lhs_value": complex_to_pair(v.lhs_value),
        "rhs_value": complex_to_pair(v.rhs_value),
    }


def condition_report_to_json(report: ConditionReport) -> dict:
    families = {name: report.family_ok(name) for name in report.families}
    return {
        "satisfied": report.satisfied,
        "mode": report.mode,
        "families": families,
        "violations": [violation_to_json(v) for v in report.violations],
    }


def outcome_to_json(outcome: CheckOutcome) -> dict:
    return {
        "agree": outcome.agree,
        "condition": condition_report_to_json(outcome.condition),
        "advisory": (None if outcome.advisory is None
                     else condition_report_to_json(outcome.advisory)),
        "oracle": report_to_json(outcome.oracle),
    }
