import cmath
import hashlib
import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest

import toepsym.conditions as conditions
from toepsym.cli import _check_report, parse_spec_text
from toepsym.conditions import (
    RelationTable,
    block_hadamard_relations,
    block_mixed_necessary_relations,
    check_block_mixed_necessary,
    check_transposition,
    condition_reports,
    equivalence_trial,
    evaluate_relations,
    evaluate_scalar_relations,
    explore_block_mixed,
    explore_transposition,
    interchange_sign_relations,
    project_to_raw,
    random_block_hadamard_symmetric,
    random_block_mixed_symmetric,
    raw_relations_general,
    raw_relations_transposition,
    run_check,
)
from toepsym.conjugations import (
    AXIOM_TOL,
    AntilinearOperator,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
    _involution_deviation,
    truncated_matrix,
)
from toepsym.symbols import (
    LaurentSymbol,
    MatrixSymbol,
    parse_symbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from toepsym.symmetry import is_c_symmetric
from toepsym.toeplitz import min_truncation, truncate

from solution_sets import basis_generators, involution_cases, sums_form, sums_relations

BIG = 1e6
ZERO_BLOCK = MatrixSymbol(*[LaurentSymbol()] * 4)
LAM = complex(0.6, 0.8)
# near-symmetric symbols of magnitude 1e6: relative oracle residual ~1e-12,
# coefficient defect 1e-6 (absolute) or ~1e-12 (relative to the norm)
SCALED = [
    (Reversal(2), {2: BIG + 1e-6, -2: BIG}),
    (Transposition(4, 0, 2), {0: BIG, 4: BIG + 1e-6, -4: BIG}),
    (MuLambda(1j, LAM), {0: BIG, 1: BIG, -1: BIG * LAM + 1e-6}),
    (BlockHadamard(), [{2: BIG + 1e-6, -2: BIG}, {},
                       {-2: (BIG + 1e-6) / 2, 2: BIG / 2}, {-2: (BIG + 1e-6) / 2, 2: BIG / 2}]),
]


def _pairs(table, keep=True):
    """The unordered index pairs of the equality rows of ``table`` where the
    mask ``keep`` holds."""
    lhs, rhs = table.index
    keep = keep & ~table.vanish
    return set(zip(np.minimum(lhs, rhs)[keep].tolist(), np.maximum(lhs, rhs)[keep].tolist()))


def _families(table):
    """Each row's family name."""
    return np.array(table.names, dtype=object)[table.family]


class TestRawRelations:
    def test_pair_swap_families_present(self):
        rels = raw_relations_transposition(2, 0, 1, band=2)
        pairs = _pairs(rels)
        assert (2, 2) not in pairs  # reflexive multiples collapse to l=0 pair
        assert (-2, 2) in pairs     # multiples mirror
        assert (-1, 3) in pairs     # gap family instance 1+2l = 1-2l at l=1

    def test_reflexive_instance_kept(self):
        rels = raw_relations_transposition(3, 0, 2, band=0)
        assert ((rels.index[0] == 1) & (rels.index[1] == 1)).any()

    def test_projected_symbols_satisfy_table(self):
        for (p, i, j) in ((2, 0, 1), (4, 0, 2), (3, 0, 2)):
            for seed in range(10):
                sym = project_to_conditions(random_symbol(seed, 3 * p, 0.6),
                                            Transposition(p, i, j))
                rels = raw_relations_transposition(p, i, j, sym.bandwidth)
                assert evaluate_scalar_relations(sym, rels).satisfied

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            raw_relations_transposition(3, 2, 1, band=2)
        with pytest.raises(ValueError):
            raw_relations_transposition(3, 0, 2, band=-1)

    def test_transposition_table_is_general_table_relabelled(self):
        for p in range(2, 8):
            for i in range(p):
                for j in range(i + 1, p):
                    spec = Transposition(p, i, j)
                    table = raw_relations_transposition(p, i, j, band=p + 1)
                    generic = raw_relations_general(p, spec.sigma, band=p + 1)
                    assert len(table) == len(generic)
                    assert _pairs(table) == _pairs(generic)

    def test_general_matches_transposition_verdicts(self):
        spec = Transposition(4, 1, 3)
        table = raw_relations_transposition(4, 1, 3, band=8)
        generic = raw_relations_general(4, spec.sigma, band=8)
        for seed in range(30):
            sym = random_symbol(seed, 8, 0.4)
            assert (evaluate_scalar_relations(sym, table).satisfied
                    == evaluate_scalar_relations(sym, generic).satisfied)


class TestInterchangeSign:
    def test_gap_self_pair_present(self):
        rels = interchange_sign_relations(3, 1, band=3)
        pairs = _pairs(rels)
        assert (-1, 5) in pairs   # 2+3l = 2-3l at l=1
        assert (1, 1) in pairs    # 1+3l = 1-3l at l=0 (c=d=1 interchange)

    def test_sign_rule_range_q2(self):
        rels = interchange_sign_relations(5, 2, band=5)
        pairs = _pairs(rels, _families(rels) == "sign")
        # c in {1, 2, 3}: each base instance c + 5l = -(c + 5l) at l = 0
        assert {(-1, 1), (-2, 2), (-3, 3)} <= pairs
        assert all((lo + hi) % 5 != 0 or lo % 5 != 0 for lo, hi in pairs)

    def test_sign_rule_range_q1(self):
        rels = interchange_sign_relations(3, 1, band=6)
        # q = 1 and p = 3: the sign range {1..p-3} is empty
        assert not (_families(rels) == "sign").any()

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            interchange_sign_relations(6, 2, band=3)   # p-1 = 5 not divisible by 2
        with pytest.raises(ValueError):
            interchange_sign_relations(3, 2, band=3)   # m = 1 < 2

    @pytest.mark.parametrize("p,q", [(3, 1), (5, 1), (5, 2), (7, 2), (7, 3)])
    def test_rules_equal_nonmultiple_rows(self, p, q):
        i, j = q - 1, p - 1
        band = 3 * p
        rules = interchange_sign_relations(p, q, band)
        table = raw_relations_transposition(p, i, j, band)
        assert _pairs(rules) == _pairs(table, _families(table) != "multiples")


class TestTranspositionChecker:
    def test_satisfied_case_one(self):
        rep = check_transposition(parse_symbol("z^4 + z^-4 + 2"), 4, 0, 2)
        assert rep.satisfied

    def test_vanish_violation(self):
        rep = check_transposition(parse_symbol("z^2"), 4, 0, 2)
        assert not rep.satisfied
        assert (_families(rep.table)[rep.violations] == "vanish").any()

    def test_zero_symbol(self):
        assert check_transposition(LaurentSymbol(), 6, 0, 3).satisfied

    def test_multiples_violation(self):
        rep = check_transposition(parse_symbol("z^4"), 4, 0, 2)
        assert not rep.satisfied
        assert (_families(rep.table)[rep.violations] == "multiples").all()

    def test_swaps_outside_the_covered_cases_read_the_closed_form(self):
        for p, i, j in [(5, 1, 3), (5, 1, 4), (7, 0, 3)]:
            rep = check_transposition(parse_symbol("z"), p, i, j)
            assert rep.table.names == ("multiples", "vanish")


class TestReversalChecker:
    def test_multiples_of_three(self):
        assert condition_reports(parse_symbol("z^3 + z^-3"), Reversal(3)).satisfied

    def test_odd_coefficients_violate(self):
        assert not condition_reports(parse_symbol("z + z^-1"), Reversal(2)).satisfied

    def test_n_one_is_plain_mirror(self):
        assert condition_reports(parse_symbol("z + z^-1"), Reversal(1)).satisfied
        assert not condition_reports(parse_symbol("z - z^-1"), Reversal(1)).satisfied
        sym = random_symbol(3, 6, 0.7)
        coeffs = sym.coeffs
        mirrored = all(coeffs.get(k, 0j) == coeffs.get(-k, 0j) for k in range(1, 7))
        assert condition_reports(sym, Reversal(1)).satisfied == mirrored


class TestMuLambdaChecker:
    def test_lambda_one(self):
        assert condition_reports(parse_symbol("z + z^-1"), MuLambda(1.0, 1.0)).satisfied
        assert not condition_reports(parse_symbol("z - z^-1"), MuLambda(1.0, 1.0)).satisfied

    def test_lambda_minus_one(self):
        assert condition_reports(parse_symbol("z - z^-1"), MuLambda(1.0, -1.0)).satisfied

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            condition_reports(parse_symbol("z"), MuLambda(1.0, 0.5))

    def test_agrees_with_reversal_one(self):
        for seed in range(25):
            sym = random_symbol(seed, 6, 0.5)
            assert (condition_reports(sym, MuLambda(1.0, 1.0)).satisfied
                    == condition_reports(sym, Reversal(1)).satisfied)

    @pytest.mark.parametrize("band", range(13))
    @pytest.mark.parametrize("lam", [1j, LAM, cmath.exp(1j)], ids=["i", "0.6+0.8i", "exp(i)"])
    @pytest.mark.parametrize("mu", [1.0, 1j], ids=["1", "i"])
    def test_table_and_oracle_kernels_are_equal(self, mu, lam, band):
        # over the coefficients on [-band, band]: the table's rows, the
        # README's basis (c_0, and c_n + lam^n c_-n for n >= 1) and the
        # oracle's C T C - T^* (dense, from unit coefficients).  The oracle is
        # conjugate-linear, so its kernel is the conjugate of its matrix's.
        # exp(i) is not a root of unity: no power of lambda repeats
        spec = MuLambda(mu, lam)
        rows, oracle = _rows_and_oracle(conditions._twist_relations(spec.lam, band), spec, band)
        basis = np.zeros((band + 1, 2 * band + 1), complex)
        basis[0, band] = 1
        for m in range(1, band + 1):
            basis[m, band + m], basis[m, band - m] = 1, spec.lam**m
        assert np.abs(rows @ basis.T).max(initial=0) <= 1e-15
        assert np.abs(oracle @ basis.T).max() <= 1e-14
        # an absolute rank tolerance: at band 0 the oracle's matrix is rounding
        # alone, |mu conj(lam)^m|^2 - 1, which a relative one counts as rank
        assert _kernel_dimension(rows, 1e-9) == _kernel_dimension(oracle, 1e-9) == band + 1

    def test_table_reads_the_spec_lambda(self):
        # normalizing this lam a second time moves it by an ulp
        spec = parse_spec_text("mulambda:1,0:0.6000000000002,0.8")
        assert MuLambda(1.0, spec.lam).lam != spec.lam
        table = condition_reports(random_symbol(3, 8, 1.0), spec).table
        assert [complex(s) for s in table.rhs_scale.tolist()] == \
            [spec.lam**n for n in table.index[1].tolist()]


def _unit_symbols(band, count):
    """The unit coefficient symbols on ``[-band, band]`` of ``count``
    entries (1, a scalar symbol, or 4), entry by entry."""
    for e in range(count):
        for k in range(-band, band + 1):
            entries = [LaurentSymbol()] * count
            entries[e] = LaurentSymbol({k: 1.0})
            yield MatrixSymbol(*entries) if count == 4 else entries[0]


def _rows_and_oracle(table, spec, band, op=None):
    """The kernel comparison's two matrices, one column per unit symbol on
    ``[-band, band]``: ``table``'s row defects ``lhs - rhs`` (linear in the
    coefficients) and the oracle's ``C T C - T^*`` (dense), conjugated.  The
    oracle is conjugate-linear, so its kernel is the conjugate of its
    matrix's: the two kernels are those of the two matrices.  ``op`` is the
    operator of order ``min_truncation(band, spec)``, by default the spec's."""
    n = min_truncation(band, spec)
    a = (truncated_matrix(spec, n) if op is None else op).matrix
    rows, oracle = [], []
    for unit in _unit_symbols(band, table.entries):
        report = evaluate_relations(unit, table)
        rows.append((report.lhs - report.rhs) * math.ldexp(1.0, report.exponent))
        t = truncate(unit, n).data
        oracle.append((a @ np.conj(t) @ np.conj(a) - t.conj().T).ravel())
    return np.array(rows).T, np.conj(np.array(oracle).T)


def _kernel_dimension(matrix, tol=None):
    return matrix.shape[1] - (np.linalg.matrix_rank(matrix, tol) if matrix.size else 0)


class _PairBasisChecks:
    """The checks of a block family's integer basis: ``table`` is its exact
    list, ``basis`` the basis with ``once`` generators at index 0, and
    ``sampler`` draws on it."""

    @pytest.mark.parametrize("band", range(13))
    def test_list_basis_and_oracle_kernels_are_equal(self, band):
        # over the coefficients on [-band, band]: the list's rows, the basis
        # and the oracle's C T C - T^* (dense, from unit coefficients).  The
        # oracle is conjugate-linear, so its kernel is the conjugate of its
        # matrix's; the basis is real, so containment and equal dimensions
        # make all three spans one
        rows, oracle = _rows_and_oracle(self.table(band), self.spec, band)
        generator, entry, index, weight = self.basis(band)
        size, width = self.once + 4 * (band // 2), 2 * band + 1
        basis = np.zeros((size, 4 * width))
        np.add.at(basis, (generator, entry * width + index + band), weight)
        assert np.linalg.matrix_rank(basis) == size
        assert not (rows @ basis.T).any()
        assert np.abs(oracle @ basis.T).max() <= 1e-15
        assert _kernel_dimension(rows) == _kernel_dimension(oracle) == size

    def test_generators_and_draws_pass_run_check(self):
        for m in basis_generators(self.basis, 30):
            outcome = run_check(m, self.spec)
            assert outcome.agree and outcome.oracle.symmetric, m
        for t in range(200):
            band, density = t % 31, (0.3, 0.7, 1.0)[t % 3]
            m = self.sampler(70_000 + t, band, density)
            assert m.bandwidth <= band
            outcome = run_check(m, self.spec)
            assert outcome.agree and outcome.oracle.symmetric, (t, band)


class TestBlockHadamardChecker(_PairBasisChecks):
    spec = BlockHadamard()
    table = staticmethod(block_hadamard_relations)
    basis = staticmethod(conditions.block_hadamard_basis)
    once = 3
    sampler = staticmethod(random_block_hadamard_symmetric)

    def test_diagonal_even_pair_satisfied(self):
        s = parse_symbol("z^2 + z^-2")
        zero = LaurentSymbol()
        m = MatrixSymbol(s, zero, zero, s)
        assert condition_reports(m, BlockHadamard()).satisfied
        assert sums_form(m).satisfied

    def test_odd_entry_violates_both_forms(self):
        zero = LaurentSymbol()
        m = MatrixSymbol(zero, parse_symbol("z"), zero, zero)
        assert not condition_reports(m, BlockHadamard()).satisfied
        assert not sums_form(m).satisfied

    def test_zero_satisfied(self):
        assert condition_reports(ZERO_BLOCK, BlockHadamard()).satisfied
        assert sums_form(ZERO_BLOCK).satisfied

    def test_cross_form_implies_sums_form(self):
        # one direction always holds; the other fails (see the referee test)
        for seed in range(40):
            m = random_block_hadamard_symmetric(seed, 6)
            assert condition_reports(m, BlockHadamard()).satisfied
            assert sums_form(m).satisfied

    def test_forms_separate_and_oracle_referees(self):
        # phi1 = z^2, phi2 = phi3 = phi4 = -z^2 satisfies the sums form but
        # not the cross form; the matrix oracle certifies the cross form as
        # the exact characterization.
        z2 = parse_symbol("z^2")
        m = MatrixSymbol(z2, -1 * z2, -1 * z2, -1 * z2)
        assert sums_form(m).satisfied
        assert not condition_reports(m, BlockHadamard()).satisfied
        assert not is_c_symmetric(m, BlockHadamard()).symmetric

    def test_entrywise_symmetric_assembly_passes_sums_form(self):
        # assembling four individually pair-reversal-symmetric entries always
        # satisfies the sums form; the cross form (= the oracle) generically
        # rejects it, which is exactly what separates the two forms.
        for t in range(25):
            entries = [project_to_conditions(random_symbol(600 + 4 * t + e, 6, 0.6),
                                             Reversal(2)) for e in range(4)]
            m = MatrixSymbol(*entries)
            assert sums_form(m).satisfied

    def test_individually_even_entries_do_not_suffice(self):
        # all four entries pass the pair-reversal conditions on their own,
        # yet the block operator is not symmetric: the cross condition is the
        # missing constraint.
        s = parse_symbol("z^2 + z^-2")
        zero = LaurentSymbol()
        m = MatrixSymbol(s, zero, zero, zero)
        for entry in m.entries:
            assert condition_reports(entry, Reversal(2)).satisfied
        assert sums_form(m).satisfied
        assert not condition_reports(m, BlockHadamard()).satisfied
        report = is_c_symmetric(m, BlockHadamard())
        assert not report.symmetric and report.residual > 1e-2


# the families that read phi1 and phi4 at odd indices (phi2 and phi3 at even
# ones), and those that read them at even ones: a lone coefficient violates
# the set that reads it
_ODD_PHI1_PHI4 = {"q22_01", "q22_10", "q21_00", "q21_11"}
_EVEN_PHI1_PHI4 = {"q22_00", "q22_11", "q21_10"}


def _violated(report):
    return {name for name in report.table.families if not report.family_ok(name)}


class TestBlockMixedChecker(_PairBasisChecks):
    spec = BlockMixed()
    table = staticmethod(block_mixed_necessary_relations)
    basis = staticmethod(conditions.block_mixed_basis)
    once = 2
    sampler = staticmethod(random_block_mixed_symmetric)

    def test_zero_satisfied(self):
        assert check_block_mixed_necessary(ZERO_BLOCK).satisfied

    def test_antidiagonal_odd_pair(self):
        # phi1 = z, phi4 = -z is half of E_1: without its even phi2 and phi3
        # terms it is not symmetric, and with them it is
        z, zero = parse_symbol("z"), LaurentSymbol()
        m = MatrixSymbol(z, zero, zero, -1 * z)
        rep = check_block_mixed_necessary(m)
        assert _violated(rep) == _ODD_PHI1_PHI4
        assert not is_c_symmetric(m, BlockMixed()).symmetric
        e1 = MatrixSymbol(parse_symbol("z^-1 - z"), parse_symbol("1 + z^2"),
                          parse_symbol("-1 - z^-2"), parse_symbol("z - z^-1"))
        assert check_block_mixed_necessary(e1).satisfied
        assert is_c_symmetric(e1, BlockMixed()).residual <= 1e-15

    def test_constructed_symmetric_pass(self):
        for seed in range(30):
            m = random_block_mixed_symmetric(seed, 6)
            assert is_c_symmetric(m, BlockMixed()).residual <= 1e-12
            assert check_block_mixed_necessary(m).satisfied

    def test_necessity_on_oracle_symmetric_inputs(self):
        for seed in range(30):
            m = random_block_mixed_symmetric(seed, 5)
            if is_c_symmetric(m, BlockMixed()).symmetric:
                assert check_block_mixed_necessary(m).satisfied

    @pytest.mark.parametrize("entry,family", [
        (1, "q22_01"), (2, "q22_00"),
    ])
    def test_single_odd_coefficient_violates(self, entry, family):
        entries = [LaurentSymbol()] * 4
        entries[entry - 1] = parse_symbol("z")
        m = MatrixSymbol(*entries)
        rep = check_block_mixed_necessary(m)
        assert not rep.family_ok(family)
        assert _violated(rep) == (_ODD_PHI1_PHI4 if entry == 1 else _EVEN_PHI1_PHI4)
        assert is_c_symmetric(m, BlockMixed()).residual > 1e-2

    @pytest.mark.parametrize("entry", [1, 2, 3, 4])
    def test_asymmetric_even_coefficient_violates(self, entry):
        entries = [LaurentSymbol()] * 4
        entries[entry - 1] = parse_symbol("z^2")
        m = MatrixSymbol(*entries)
        rep = check_block_mixed_necessary(m)
        assert _violated(rep) == (_EVEN_PHI1_PHI4 if entry in (1, 4)
                                  else _ODD_PHI1_PHI4)
        assert is_c_symmetric(m, BlockMixed()).residual > 1e-2

    def test_report_mode(self):
        # every list is necessary and sufficient, so the report names no mode
        obj = _check_report(ZERO_BLOCK, run_check(ZERO_BLOCK, BlockMixed()))["condition"]
        assert set(obj) == {"satisfied", "families", "violation_count",
                            "violations_by_family", "defect_l2", "worst"}

    def test_report_mode_follows_the_family(self):
        # one report shape for every family, and a zero symbol violates nothing
        specs = [GeneralPermutation(3, (2, 1, 0)), Transposition(5, 1, 3), Reversal(2),
                 MuLambda(1.0, 1j), BlockHadamard(), BlockMixed()]
        for spec in specs:
            symbol = ZERO_BLOCK if spec.is_block else LaurentSymbol()
            outcome = run_check(symbol, spec)
            report, obj = outcome.condition, _check_report(symbol, outcome)["condition"]
            assert "mode" not in obj
            assert (obj["violation_count"], obj["defect_l2"], obj["worst"]) == (0, 0.0, [])
            assert obj["violations_by_family"] == dict.fromkeys(report.table.families, 0)

    def test_combination_names_spell_their_terms(self):
        # lhs_component prints the name, and the terms parsed from it are
        # what the table reads: spelled back, they give the name ("phi", the
        # scalar symbol, is one term on entry 0)
        assert conditions.terms("phi") == [(0, 1, 0)]
        tables = (block_hadamard_relations(4), block_mixed_necessary_relations(4),
                  sums_relations(4))
        for name in {name for table in tables for name in table.components} - {"phi"}:
            terms = conditions.terms(name)
            assert all(weight in (-1, 1) for _, weight, _ in terms)
            spelled = "".join(f"{'+' if weight > 0 else '-'}phi{entry + 1}"
                              + (f"[{shift:+d}]" if shift else "")
                              for entry, weight, shift in terms)
            assert spelled.removeprefix("+") == name


class TestEquivalenceTrials:
    @pytest.mark.parametrize("spec", [
        Reversal(2), Reversal(4), Transposition(4, 0, 2), Transposition(5, 1, 4),
        Transposition(5, 1, 3), GeneralPermutation(4, (2, 1, 0, 3)),
        MuLambda(1.0, 1j), BlockHadamard(), BlockMixed(),
    ])
    def test_random_and_satisfying_agree(self, spec):
        for t in range(24):
            result = equivalence_trial(spec, 900 + t, band=6, satisfying=t % 2 == 1)
            assert result.agree, (spec, result)

    def test_satisfying_inputs_are_symmetric_for_iff_families(self):
        for spec in (Reversal(3), Transposition(4, 1, 3), MuLambda(1.0, -1.0)):
            result = equivalence_trial(spec, 77, band=6, satisfying=True)
            assert result.oracle_symmetric and result.condition_satisfied

    def test_block_sampler_follows_the_family(self):
        assert (conditions.draw_symbol(BlockMixed(), 3, 4, 0.7, True)
                == random_block_mixed_symmetric(3, 4, 0.7))

    def test_scaling_leaves_checkers_invariant(self):
        sym = random_symbol(5, 6, 0.6)
        for factor in (2.0, -3.5):
            a = condition_reports(sym, Reversal(3)).satisfied
            b = condition_reports(factor * sym, Reversal(3)).satisfied
            assert a == b


class TestSamplers:
    # SHA-256 over the to_json() of every (seed, band, density) draw below;
    # any change to what a sampler reads from its stream moves its digest
    DIGESTS = {
        "random_symbol":
            "c42c90a33522ad0aa816fe673b352fdad81aae8638d8f52341b1392c0bd3bc5a",
        "random_matrix_symbol":
            "5ee87803a7199336f5e142a6903d9f606417d8c244e0e5db388d17f34eb5f971",
        "random_block_hadamard_symmetric":
            "1937bf85051b52165bff0a5bf8bf00fffdb935f28f5c3dc2eec1a9f17d36b218",
        "random_block_mixed_symmetric":
            "13b1aebc985f803006559dda0b642c5ddeb61d31c6bb04ea06f32593a00329d1",
    }

    @pytest.mark.parametrize("sampler", [random_symbol, random_matrix_symbol,
                                         random_block_hadamard_symmetric,
                                         random_block_mixed_symmetric],
                             ids=lambda sampler: sampler.__name__)
    def test_draws_are_pinned(self, sampler):
        digest = hashlib.sha256()
        for seed in range(5):
            for band in range(10):
                for density in (0.3, 0.7, 1.0):
                    digest.update(json.dumps(sampler(seed, band, density).to_json()).encode())
        assert digest.hexdigest() == self.DIGESTS[sampler.__name__]

    @pytest.mark.parametrize("band,density", [(-1, 0.7), (-3, 0.5), (2, 5.0), (2, 0.0),
                                              (2, float("nan"))])
    def test_block_mixed_rejects_bad_arguments(self, band, density):
        with pytest.raises(ValueError):
            random_block_mixed_symmetric(0, band, density)


class TestRunCheck:
    def test_swap_outside_the_covered_cases_is_decided(self):
        outcome = run_check(parse_symbol("z^5 + z^-5"), Transposition(5, 1, 3))
        assert outcome.condition.table.names == ("multiples", "vanish")
        assert outcome.agree and outcome.oracle.symmetric

    def test_characterized_spec_has_no_advisory(self):
        symbol = parse_symbol("z^2 + z^-2")
        outcome = run_check(symbol, Reversal(2))
        assert set(_check_report(symbol, outcome)) == {"schema", "symbol", "agree", "condition",
                                                       "oracle"}
        assert outcome.agree and outcome.oracle.symmetric

    def test_block_ctilde_agreement_is_equivalence(self):
        # a satisfied list with a rejecting oracle is a disagreement, as for
        # every other family
        m = random_block_mixed_symmetric(3, 5)
        outcome = run_check(m, BlockMixed())
        assert outcome.agree and outcome.condition.satisfied and outcome.oracle.symmetric
        outcome = run_check(m, BlockMixed(), tol=1e-300)
        assert outcome.condition.satisfied and not outcome.oracle.symmetric
        assert not outcome.agree

    def test_json_shape(self):
        symbol = parse_symbol("z")
        outcome = run_check(symbol, Reversal(2))
        obj = _check_report(symbol, outcome)["condition"]
        assert not obj["satisfied"] and obj["violation_count"] == 1
        record = obj["worst"][0]
        assert set(record) == {"family", "lhs", "rhs", "lhs_component",
                               "rhs_component", "lhs_value", "rhs_value", "over_tol"}
        assert record["over_tol"] == 1e12
        oracle = _check_report(symbol, outcome)["oracle"]
        assert oracle["over_tol"] == oracle["residual"] / oracle["tol"]


def _band_matrix(table, band):
    """The rows of ``table`` as a matrix over the coefficients in
    ``[-band, band]``: ``+1`` at the lhs, ``-1`` at the rhs of an equality;
    an index outside the band reads zero, so its column is dropped."""
    matrix = np.zeros((len(table), 2 * band + 1))
    for side, sign in ((0, 1.0), (1, -1.0)):
        rows = np.flatnonzero((abs(table.index[side]) <= band) & ((side == 0) | ~table.vanish))
        np.add.at(matrix, (rows, table.index[side, rows] + band), sign)
    return matrix


class TestOrbitTable:
    @pytest.mark.parametrize("p", [*range(1, 8), 8, 9, 12])
    def test_kernel_equals_the_raw_tables(self, p):
        # the closed-form table of the mirror period and the raw table admit
        # the same symbols of bandwidth at most band
        for sigma in involution_cases(p):
            for band in (0, 2, p, 2 * p + 1):
                mirror = _band_matrix(conditions._mirror_conditions(
                    GeneralPermutation(p, sigma).mirror_period, band), band)
                raw = _band_matrix(raw_relations_general(p, sigma, band), band)
                ranks = [np.linalg.matrix_rank(m) if m.size else 0
                         for m in (mirror, raw, np.vstack([mirror, raw]))]
                assert len(set(ranks)) == 1, (sigma, band, ranks)


# --- single-point mutants of the closed-form tables ----------------------------

MUTATED = ["reversal:2", "transposition:5:1:3", "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]
# a vanish row's right side is zero whatever its scale and index: these
# mutants read the same rows as their table
EQUIVALENT = {("reversal:2", "vanish", "negate"), ("reversal:2", "vanish", "shift"),
              ("transposition:5:1:3", "vanish", "negate"),
              ("transposition:5:1:3", "vanish", "shift"),
              ("block_c", "odd_vanish", "negate"), ("block_c", "odd_vanish", "shift")}


def _closed_form(spec, band):
    """The table that ``condition_reports`` reads for ``spec`` at ``band``."""
    unit = LaurentSymbol({band: 1.0})
    return condition_reports(MatrixSymbol(unit, *[LaurentSymbol()] * 3) if spec.is_block
                             else unit, spec).table


def _mutant(table, family, kind):
    """A copy of ``table`` with ``family``'s rows dropped (``drop``), their
    right scale negated (``negate``) or their right index shifted by one
    (``shift``)."""
    at = table.family == table.names.index(family)
    keep = ~at if kind == "drop" else np.ones(len(table), bool)
    rhs_index = table.index[1] + (kind == "shift") * at
    rhs_scale = np.where(at & (kind == "negate"), -table.rhs_scale, table.rhs_scale)
    return RelationTable(table.names, table.components,
                         (table.family[keep], table.vanish[keep], *table.component[:, keep],
                          table.index[0, keep], rhs_index[keep], rhs_scale[keep]))


def _kernels_differ(rows, oracle):
    """Whether the kernel comparison tells ``rows`` from the ``oracle``."""
    dimensions = {_kernel_dimension(m, 1e-9) for m in (rows, oracle, np.vstack([rows, oracle]))}
    return len(dimensions) > 1


def test_every_single_point_table_mutant_is_killed():
    # each mutant of each closed-form table against the oracle's kernel at
    # bands 0-8, killed at the first band where the two kernels differ; the
    # tables themselves have the oracle's kernel at each band
    mutants, killed = set(), set()
    for text in MUTATED:
        spec = parse_spec_text(text)
        for band in range(9):
            table = _closed_form(spec, band)
            rows, oracle = _rows_and_oracle(table, spec, band)
            assert not _kernels_differ(rows, oracle), (text, band)
            for mutant in {(text, family, kind) for family in table.families
                           for kind in ("drop", "negate", "shift")} - killed:
                mutants.add(mutant)
                rows, _ = _rows_and_oracle(_mutant(table, *mutant[1:]), spec, band)
                if _kernels_differ(rows, oracle):
                    killed.add(mutant)
    assert mutants - killed == EQUIVALENT
    assert len(killed) == 42 and sum(kind == "drop" for _, _, kind in killed) == 16


# --- single-point mutants of the operators -------------------------------------

OPERATORS = ["reversal:2", "transposition:5:1:3", "general:6:2,1,0,4,3,5",
             "mulambda:0,1:0.6,0.8", "block_c", "block_ctilde"]


def _operator_mutants(spec, size):
    """Each single-point mutant of ``spec.blocks(size)`` by name: grid block
    ``(i, k)``'s weights negated, ``(i, k, "negate")``, or the images of its
    residues ``a < b`` swapped on every period, ``(i, k, (a, b))``."""
    perms, weights = spec.blocks(size)
    g, p = perms.shape[0], spec.period
    for i, k in np.ndindex(g, g):
        negated = weights.copy()
        negated[i, k] *= -1
        yield (i, k, "negate"), AntilinearOperator(perms, negated, p)
        for a, b in itertools.combinations(range(p), 2):
            swapped = perms.copy()
            swapped[i, k, a::p], swapped[i, k, b::p] = perms[i, k, b::p], perms[i, k, a::p]
            yield (i, k, (a, b)), AntilinearOperator(swapped, weights, p)


def _equivalence(spec, name, op, table, band, oracle):
    """Why the mutant ``op`` of ``spec`` at ``band`` has the kernel of the
    closed-form ``table``, or None: ``sign`` when it is ``-A``, whose
    ``(-A) conj(T) conj(-A)`` is the ``oracle``'s ``A conj(T) conj(A)``;
    ``mirror`` when it is another residue involution of the same
    ``mirror_period``, whose closed form is the same."""
    n, kind = op.size, name[2]
    if op.perms.shape[0] == 1 and kind == "negate":
        _, mutant = _rows_and_oracle(table, spec, band, op)
        return "sign" if np.array_equal(mutant, oracle) else None
    if spec.sigma is not None and kind != "negate":
        sigma = tuple(op.perms[0, 0, :spec.period].tolist())
        try:
            other = GeneralPermutation(spec.period, sigma)
        except ValueError:  # not an involution
            return None
        same = np.array_equal(op.perms, truncated_matrix(other, n).perms)
        return "mirror" if same and other.mirror_period == spec.mirror_period else None
    return None


def test_every_single_point_operator_mutant_is_killed():
    # each mutant of each family's operator, killed at the first band 0-8
    # where A conj(A) strays from I or its oracle's kernel differs from the
    # closed-form table's; a survivor must be equivalent for a checked reason
    kills, reasons = {}, {}
    for text in OPERATORS:
        spec = parse_spec_text(text)
        alive = {name for name, _ in _operator_mutants(spec, spec.period)}
        for band in range(9):
            mutants = dict(_operator_mutants(spec, min_truncation(band, spec)))
            table = _closed_form(spec, band)
            rows, oracle = _rows_and_oracle(table, spec, band)
            for name in alive:
                op = mutants[name]
                if _involution_deviation(op) > AXIOM_TOL:
                    kills[text, name] = "involution", band
                elif _kernels_differ(rows, _rows_and_oracle(table, spec, band, op)[1]):
                    kills[text, name] = "kernel", band
            alive -= {name for t, name in kills if t == text}
        for name in alive:  # at band 8
            reasons[text, name] = _equivalence(spec, name, mutants[name], table, band, oracle)
    assert [mutant for mutant, reason in reasons.items() if reason is None] == []
    assert len(kills) + len(reasons) == 46
    assert Counter(how for how, _ in kills.values()) == {"involution": 34, "kernel": 2}
    assert {mutant: kill for mutant, kill in kills.items() if kill[0] == "kernel"} == {
        ("reversal:2", (0, 0, (0, 1))): ("kernel", 1),
        ("transposition:5:1:3", (0, 0, (1, 3))): ("kernel", 1)}
    assert reasons == {
        **{(text, (0, 0, "negate")): "sign" for text in OPERATORS[:4]},
        **{("transposition:5:1:3", (0, 0, pair)): "mirror" for pair in ((0, 2), (0, 4), (2, 4))},
        **{("general:6:2,1,0,4,3,5", (0, 0, pair)): "mirror"
           for pair in ((0, 2), (1, 5), (3, 4))}}


def test_condition_reports_reads_every_table_itself(monkeypatch):
    # check_transposition and check_block_mixed_necessary are the acceptance
    # suite's names for condition_reports, which must not call them back
    def refuse(*args):
        raise AssertionError("condition_reports called a check_* wrapper")
    for name in ("check_transposition", "check_block_mixed_necessary"):
        monkeypatch.setattr(conditions, name, refuse)
    for text in OPERATORS:
        spec = parse_spec_text(text)
        for satisfying in (False, True):
            outcome = run_check(conditions.draw_symbol(spec, 7, 6, 1.0, satisfying), spec)
            assert outcome.agree and outcome.condition.satisfied == satisfying, (text, satisfying)


class TestProjectToRaw:
    def test_orbit_projection_equals_the_raw_one(self):
        # the trials project by the mirror period; the benchmark's check
        # draws the same symbol again through the raw table
        for p in [*range(1, 8), 8, 9, 12]:
            for sigma in involution_cases(p):
                spec = GeneralPermutation(p, sigma)
                for band in (0, 1, p, 2 * p + 1):
                    sym = random_symbol(p + band, band, 0.7)
                    assert repr(project_to_conditions(sym, spec)) == \
                        repr(project_to_raw(sym, spec, band)), (sigma, band)

    def test_output_is_exactly_symmetric(self):
        for spec in (Transposition(5, 1, 3), Transposition(4, 0, 1),
                     GeneralPermutation(5, (0, 3, 2, 1, 4))):
            for seed in range(10):
                sym = project_to_raw(random_symbol(seed, 8, 0.7), spec, band=8)
                assert is_c_symmetric(sym, spec).residual <= 1e-12

    def test_projection_fixes_satisfying_symbols(self):
        spec = Transposition(4, 0, 2)
        sym = project_to_conditions(random_symbol(5, 8, 0.7), spec)
        assert project_to_raw(sym, spec, band=8) == sym

    def test_non_permutation_spec_rejected(self):
        with pytest.raises(ValueError):
            project_to_raw(parse_symbol("z"), MuLambda(1.0, 1.0), 1)


class TestExplorers:
    def test_transposition_explorer_clean(self):
        report = explore_transposition(5, 1, 3, band=10, trials=60, seed=0)
        assert report["finite_residues"] == [0] and report["period"] == 5
        assert report["candidates"] == [] and report["anomalies"] == []

    @pytest.mark.parametrize("p, i, j", [(4, 0, 2), (9, 2, 7)])
    def test_transposition_explorer_reports_the_decision(self, p, i, j):
        # a swap in the paper's covered cases (4, 0, 2) was refused
        report = explore_transposition(p, i, j, band=6, trials=5, seed=0)
        assert report["finite_residues"] == [0] and report["period"] == p

    def test_transposition_explorer_draws_no_symbol(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the explorer drew a symbol")

        monkeypatch.setattr(conditions, "random_symbol", refuse)
        monkeypatch.setattr(conditions, "_raw_components", refuse)
        explore_transposition(5, 1, 3, band=9, trials=6, seed=4)

    def test_transposition_explorer_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            explore_transposition(5, 1, 3, band=6, trials=0, seed=0)

    def test_transposition_explorer_rejects_a_negative_band(self):
        with pytest.raises(ValueError):
            explore_transposition(5, 1, 3, band=-1, trials=5, seed=0)

    def test_block_mixed_explorer_finds_sufficiency_gap(self):
        # the list is exact: no draw from its solution set fails the oracle
        report = explore_block_mixed(band=4, trials=25, seed=0)
        assert report["anomalies"] == [] and report["candidates"] == []
        assert report["nullspace_dim"] == 10
        assert "degenerate" not in report


class TestCoefficientTolerance:
    @pytest.mark.parametrize("spec, coeffs", SCALED,
                             ids=["reversal", "transposition", "mulambda", "block_c"])
    def test_scaled_symbols_agree(self, spec, coeffs):
        symbol = (MatrixSymbol(*(LaurentSymbol(c) for c in coeffs))
                  if isinstance(coeffs, list) else LaurentSymbol(coeffs))
        outcome = run_check(symbol, spec)
        assert outcome.oracle.symmetric
        assert outcome.condition.satisfied
        assert outcome.agree

    def test_unit_norm_symbols_keep_the_absolute_tolerance(self):
        # ||c||_2 <= 1, so the tolerance stays 1e-12
        report = condition_reports(LaurentSymbol({2: 0.5 + 0.9e-12, -2: 0.5}), Reversal(2))
        assert report.satisfied
        report = condition_reports(LaurentSymbol({2: 0.5 + 1.1e-12, -2: 0.5}), Reversal(2))
        assert not report.satisfied

    def test_tolerance_grows_with_the_coefficient_norm(self):
        # ||c||_2 = 5e6 * sqrt(2): a defect of 5e-6 is within 1e-12 relative
        report = condition_reports(LaurentSymbol({2: 5e6 + 5e-6, -2: 5e6}), Reversal(2))
        assert report.satisfied
        report = condition_reports(LaurentSymbol({2: 5e6 + 1e-4, -2: 5e6}), Reversal(2))
        assert not report.satisfied

    def test_norm_past_the_float_limit_still_checks(self):
        # ||c||_2 = 2.4e308 is not finite; the tolerance must stay finite
        outcome = run_check(LaurentSymbol({1: 1.7e308, 2: 1.7e308}), Reversal(2))
        assert not outcome.condition.satisfied
        assert outcome.agree


class TestOneEvaluator:
    def test_block_mixed_nullspace_dimensions(self):
        # the basis size, 2 + 4 * (band // 2), which the explorer reports
        dims = [np.unique(conditions.block_mixed_basis(b)[0]).size for b in range(11)]
        assert dims == [2, 2, 6, 6, 10, 10, 14, 14, 18, 18, 22]
        assert dims == [explore_block_mixed(b, 1, 0)["nullspace_dim"] for b in range(11)]
