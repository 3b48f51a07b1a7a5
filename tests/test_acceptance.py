"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run ``pytest -s tests/test_acceptance.py`` to
see them).  Criteria with stated runtime budgets assert the elapsed time as
part of the criterion.
"""

import cmath
import json
import time

import numpy as np
import pytest

from toepsym.cli import main
from toepsym.conditions import (
    block_mixed_basis,
    check_block_mixed_necessary,
    check_transposition,
    condition_reports,
    evaluate_scalar_relations,
    interchange_sign_relations,
    random_block_mixed_symmetric,
    raw_relations_transposition,
)
from toepsym.conjugations import (
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
    covered_transposition_case,
    truncated_matrix,
    verify_axioms,
)
from toepsym.symbols import (
    LaurentSymbol,
    MatrixSymbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from toepsym.symmetry import is_c_symmetric, residual
from toepsym.toeplitz import block_truncate, min_truncation, truncate

from solution_sets import basis_generators, sums_form

ORACLE_TOL = 1e-10


def _verdict(number: str, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    return ok


def test_criterion_1_conjugation_axioms():
    families = [
        GeneralPermutation(4, (2, 1, 0, 3)),
        GeneralPermutation(5, (0, 3, 2, 1, 4)),
        Transposition(3, 0, 2),
        Transposition(6, 1, 4),
        Reversal(2),
        Reversal(5),
        MuLambda(1.0, 1j),
        MuLambda(cmath.exp(0.3j), cmath.exp(2j * cmath.pi / 7)),
        BlockHadamard(),
        BlockMixed(),
    ]
    start = time.perf_counter()
    worst_inv = worst_iso = 0.0
    for spec in families:
        per = spec.period
        limit = 60 if spec in (BlockHadamard(), BlockMixed()) else 120
        multiples = [per * k for k in range(1, limit // per + 1)]
        picks = sorted({multiples[int(round(t))] for t in
                        np.linspace(0, len(multiples) - 1, 20)})
        for size in picks:
            report = verify_axioms(spec, size, probes=50, seed=17)
            worst_inv = max(worst_inv, report.involution_deviation)
            worst_iso = max(worst_iso, report.isometry_deviation)
    elapsed = time.perf_counter() - start
    ok = worst_inv <= 1e-14 and worst_iso <= 1e-13 and elapsed < 5.0
    assert _verdict("1", "conjugation axioms", ok,
                    f"inv {worst_inv:.2e}, iso {worst_iso:.2e}, {elapsed:.2f}s")


CASE_ONE = [(2, 0, 1), (4, 0, 2), (4, 1, 3), (6, 0, 3), (6, 2, 5)]
CASE_TWO = [(3, 1), (5, 1), (5, 2), (7, 2), (7, 3)]


def _three_way_agreement(triples, trials, check_rules):
    disagreements = []
    rule_mismatches = []
    projection_failures = []
    for (p, i, j) in triples:
        band = 3 * p
        raw = raw_relations_transposition(p, i, j, band)
        rules = interchange_sign_relations(p, i + 1, band) if check_rules else None
        for t in range(trials):
            sym = random_symbol(10_000 * p + 100 * i + t, band, 0.5)
            cond = check_transposition(sym, p, i, j).satisfied
            raw_report = evaluate_scalar_relations(sym, raw)
            raw_ok = raw_report.satisfied
            oracle = is_c_symmetric(sym, Transposition(p, i, j), ORACLE_TOL).symmetric
            if not cond == raw_ok == oracle:
                disagreements.append((p, i, j, t))
            if check_rules:
                rules_ok = evaluate_scalar_relations(sym, rules).satisfied
                # the tolerance depends on the symbol only, so the non-multiple
                # rows hold together exactly when none of their families fails
                nonmult_ok = all(raw_report.family_ok(family)
                                 for family in raw_report.table.families if family != "multiples")
                if rules_ok != nonmult_ok:
                    rule_mismatches.append((p, i, j, t))
        for t in range(100):
            sym = project_to_conditions(random_symbol(20_000 * p + t, band, 0.5),
                                        Transposition(p, i, j))
            report = is_c_symmetric(sym, Transposition(p, i, j), ORACLE_TOL)
            if report.residual > 1e-12:
                projection_failures.append((p, i, j, t, report.residual))
    return disagreements, rule_mismatches, projection_failures


def test_covered_cases_decide_iff():
    # the paper's two cases, reproduced by the closed form: mirror period p,
    # so only the period multiples may be nonzero
    for p, i, j in CASE_ONE + [(p, q - 1, p - 1) for p, q in CASE_TWO]:
        assert covered_transposition_case(p, i, j)
        assert Transposition(p, i, j).mirror_period == p


def test_criterion_2_residue_swap_half_period():
    start = time.perf_counter()
    bad, _, proj_bad = _three_way_agreement(CASE_ONE, 300, check_rules=False)
    elapsed = time.perf_counter() - start
    ok = not bad and not proj_bad and elapsed < 30.0
    assert _verdict("2", "half-period swaps: condition = raw = oracle", ok,
                    f"{len(CASE_ONE) * 300} trials, {elapsed:.2f}s")


def test_criterion_3_residue_swap_mq_plus_one():
    triples = [(p, q - 1, p - 1) for (p, q) in CASE_TWO]
    for (p, i, j) in triples:
        assert covered_transposition_case(p, i, j)
    start = time.perf_counter()
    bad, rule_bad, proj_bad = _three_way_agreement(triples, 300, check_rules=True)
    elapsed = time.perf_counter() - start
    ok = not bad and not rule_bad and not proj_bad and elapsed < 30.0
    assert _verdict("3", "m*q+1 swaps: three-way + interchange/sign rules", ok,
                    f"{len(triples) * 300} trials, {elapsed:.2f}s")


def test_criterion_4_block_reversal():
    disagreements = []
    cross_mismatches = []
    for n in range(1, 7):
        for t in range(300):
            sym = random_symbol(31_000 * n + t, max(6, n * 2), 0.5)
            cond = condition_reports(sym, Reversal(n)).satisfied
            oracle = is_c_symmetric(sym, Reversal(n), ORACLE_TOL).symmetric
            if cond != oracle:
                disagreements.append((n, t))
            if n == 1 and cond != condition_reports(sym, MuLambda(1.0, 1.0)).satisfied:
                cross_mismatches.append(t)
    ok = not disagreements and not cross_mismatches
    assert _verdict("4", "block reversal: condition = oracle, twist cross-check", ok,
                    "1800 trials")


def test_criterion_5_block_hadamard_forms_and_oracle():
    disagreements = []
    for t in range(300):
        msym = random_matrix_symbol(40_000 + t, 6, 0.5)
        cross = condition_reports(msym, BlockHadamard()).satisfied
        sums = sums_form(msym).satisfied
        oracle = is_c_symmetric(msym, BlockHadamard(), ORACLE_TOL).symmetric
        if not cross == sums == oracle:
            disagreements.append(t)
    ok = not disagreements
    assert _verdict("5", "block Hadamard: both condition forms = oracle on random symbols",
                    ok, "300 trials")


def test_criterion_5_remark_individually_symmetric_entries():
    # As stated, every 2x2 symbol assembled from four independently drawn
    # entries that each satisfy the pair-reversal conditions must be block
    # symmetric with residual <= 1e-12.  The matrix oracle refutes this: the
    # cross-reflection constraint couples the entries and is generically
    # violated, so the criterion cannot pass.  It is kept faithful rather
    # than weakened; see the failure detail for the observed statistics.
    residuals = []
    for t in range(100):
        entries = [project_to_conditions(random_symbol(50_000 + 4 * t + e, 6, 0.5),
                                         Reversal(2))
                   for e in range(4)]
        msym = MatrixSymbol(*entries)
        for entry in entries:
            assert condition_reports(entry, Reversal(2)).satisfied
        residuals.append(is_c_symmetric(msym, BlockHadamard(), ORACLE_TOL).residual)
    worst = max(residuals)
    failing = sum(r > 1e-12 for r in residuals)
    ok = worst <= 1e-12
    assert _verdict("5", "block Hadamard: four independently even-symmetric entries",
                    ok, f"{failing}/100 exceed 1e-12, max residual {worst:.2e}")


def test_criterion_6_block_mixed_necessity():
    # the list is necessary and sufficient.  Necessity: every generator of
    # its solution set's basis is symmetric and satisfies the list.
    violations = []
    symmetric_seen = 0
    for g, msym in enumerate(basis_generators(block_mixed_basis, 12)):
        if is_c_symmetric(msym, BlockMixed(), ORACLE_TOL).residual > ORACLE_TOL:
            violations.append(("generator not symmetric", g))
            continue
        symmetric_seen += 1
        if not check_block_mixed_necessary(msym).satisfied:
            violations.append(("generator", g))
    # sufficiency: every draw that satisfies the list is symmetric; raw
    # draws, which almost never do, must agree both ways
    for t in range(100):
        msym = random_block_mixed_symmetric(61_000 + t, 6)
        assert check_block_mixed_necessary(msym).satisfied
        if is_c_symmetric(msym, BlockMixed(), ORACLE_TOL).residual > ORACLE_TOL:
            violations.append(("constructed", t))
            continue
        symmetric_seen += 1
    for t in range(300):
        msym = random_matrix_symbol(60_000 + t, 6, 0.5)
        symmetric = is_c_symmetric(msym, BlockMixed(), ORACLE_TOL).residual <= ORACLE_TOL
        if symmetric != check_block_mixed_necessary(msym).satisfied:
            violations.append(("raw", t))
    # deliberate violation of the list leaves a loud residual
    weak = []
    single_entry_cases = [(1, "z"), (2, "z"), (1, "z^2"), (2, "z^2"),
                          (3, "z^2"), (4, "z^2")]
    from toepsym.symbols import parse_symbol
    for entry, text in single_entry_cases:
        entries = [LaurentSymbol()] * 4
        entries[entry - 1] = parse_symbol(text)
        msym = MatrixSymbol(*entries)
        assert not check_block_mixed_necessary(msym).satisfied
        residual = is_c_symmetric(msym, BlockMixed(), ORACLE_TOL).residual
        if residual <= 1e-2:
            weak.append((entry, text, residual))
    ok = not violations and not weak and symmetric_seen >= 100
    assert _verdict("6", "block mixed: necessity, sufficiency + loud violations", ok,
                    f"{symmetric_seen} symmetric inputs exercised")


def test_criterion_7_twist_family():
    lams = [1.0, -1.0, 1j, cmath.exp(2j * cmath.pi / 3)]
    disagreements = []
    for li, lam in enumerate(lams):
        spec = MuLambda(1.0, lam)
        for t in range(200):
            sym = random_symbol(70_000 + 1000 * li + t, 6, 0.5)
            cond = condition_reports(sym, MuLambda(1.0, lam)).satisfied
            oracle = is_c_symmetric(sym, spec, ORACLE_TOL).symmetric
            if cond != oracle:
                disagreements.append((li, t))
    ok = not disagreements
    assert _verdict("7", "twist family: condition = oracle", ok, "800 trials")


def test_criterion_8_truncation_stability():
    specs = [Reversal(n) for n in range(1, 7)]
    specs += [Transposition(2, 0, 1), Transposition(4, 0, 2), Transposition(6, 2, 5),
              Transposition(3, 0, 2), Transposition(5, 1, 4), Transposition(5, 1, 3)]
    specs += [GeneralPermutation(4, (2, 1, 0, 3)), GeneralPermutation(3, (0, 2, 1))]
    specs += [MuLambda(1.0, 1.0), MuLambda(1.0, -1.0), MuLambda(1j, 1j)]
    specs += [BlockHadamard(), BlockMixed()]
    mismatches = []
    trials = 0
    t = 0
    while trials < 200:
        spec = specs[t % len(specs)]
        seed = 80_000 + t
        t += 1
        band = 5
        if spec in (BlockHadamard(), BlockMixed()):
            symbol = random_matrix_symbol(seed, band, 0.5)
        else:
            symbol = random_symbol(seed, band, 0.5)
            if t % 3 == 0:
                try:
                    symbol = project_to_conditions(symbol, spec)
                except ValueError:
                    pass
        base = is_c_symmetric(symbol, spec, ORACLE_TOL)
        n = 2 * min_truncation(symbol.bandwidth, spec)
        doubled = residual((block_truncate if spec.is_block else truncate)(symbol, n),
                           truncated_matrix(spec, n))
        trials += 1
        if base.symmetric != (doubled <= ORACLE_TOL):
            mismatches.append((spec, seed))
    ok = not mismatches
    assert _verdict("8", "verdict stable under doubled truncation", ok, "200 pairs")


def test_criterion_9_cli_determinism(capsys):
    commands = [
        ["check", "--symbol", "z^2 + (1+2i) z^-2", "--spec", "transposition:4:0:2"],
        ["check", "--symbol", "z;0;z^2;0", "--spec", "block_ctilde"],
        ["verify", "--spec", "block_c", "--size", "12"],
        ["random-test", "--spec", "reversal:2", "--trials", "25", "--seed", "1"],
        ["random-test", "--spec", "block_c", "--trials", "10", "--seed", "2", "--band", "4"],
        ["explore", "--spec", "transposition:5:1:3", "--trials", "10", "--band", "5"],
        ["explore", "--spec", "block_ctilde", "--trials", "6", "--band", "3"],
        ["gen", "--spec", "mulambda:1,0:0,1", "--seed", "6", "--band", "5"],
    ]
    stable = True
    for argv in commands:
        code1 = main(argv)
        out1 = capsys.readouterr().out
        code2 = main(argv)
        out2 = capsys.readouterr().out
        json.loads(out1)
        if out1.encode() != out2.encode() or code1 != code2:
            stable = False
    assert _verdict("9", "CLI reruns are byte-identical", stable,
                    f"{len(commands)} commands")
