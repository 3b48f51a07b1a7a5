import hashlib
import json

import numpy as np
import pytest

import toepsym.conditions as conditions
from toepsym.conditions import (
    IFF,
    NECESSARY_ONLY,
    check_block_mixed_necessary,
    check_transposition,
    condition_report_to_json,
    condition_reports,
    equivalence_trial,
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
    CONJECTURE,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
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

from solution_sets import sums_form

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
        assert rep.satisfied and rep.mode == IFF

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

    def test_conjecture_mode_flag(self):
        assert check_transposition(parse_symbol("z"), 5, 1, 3).mode == CONJECTURE
        assert check_transposition(parse_symbol("z"), 5, 1, 4).mode == IFF


class TestReversalChecker:
    def test_multiples_of_three(self):
        assert condition_reports(parse_symbol("z^3 + z^-3"), Reversal(3))[0].satisfied

    def test_odd_coefficients_violate(self):
        assert not condition_reports(parse_symbol("z + z^-1"), Reversal(2))[0].satisfied

    def test_n_one_is_plain_mirror(self):
        assert condition_reports(parse_symbol("z + z^-1"), Reversal(1))[0].satisfied
        assert not condition_reports(parse_symbol("z - z^-1"), Reversal(1))[0].satisfied
        sym = random_symbol(3, 6, 0.7)
        mirrored = all(sym.coeff(k) == sym.coeff(-k) for k in range(1, 7))
        assert condition_reports(sym, Reversal(1))[0].satisfied == mirrored


class TestMuLambdaChecker:
    def test_lambda_one(self):
        assert condition_reports(parse_symbol("z + z^-1"), MuLambda(1.0, 1.0))[0].satisfied
        assert not condition_reports(parse_symbol("z - z^-1"), MuLambda(1.0, 1.0))[0].satisfied

    def test_lambda_minus_one(self):
        assert condition_reports(parse_symbol("z - z^-1"), MuLambda(1.0, -1.0))[0].satisfied

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            condition_reports(parse_symbol("z"), MuLambda(1.0, 0.5))

    def test_agrees_with_reversal_one(self):
        for seed in range(25):
            sym = random_symbol(seed, 6, 0.5)
            assert (condition_reports(sym, MuLambda(1.0, 1.0))[0].satisfied
                    == condition_reports(sym, Reversal(1))[0].satisfied)


class TestBlockHadamardChecker:
    def test_diagonal_even_pair_satisfied(self):
        s = parse_symbol("z^2 + z^-2")
        zero = LaurentSymbol()
        m = MatrixSymbol(s, zero, zero, s)
        assert condition_reports(m, BlockHadamard())[0].satisfied
        assert sums_form(m).satisfied

    def test_odd_entry_violates_both_forms(self):
        zero = LaurentSymbol()
        m = MatrixSymbol(zero, parse_symbol("z"), zero, zero)
        assert not condition_reports(m, BlockHadamard())[0].satisfied
        assert not sums_form(m).satisfied

    def test_zero_satisfied(self):
        assert condition_reports(ZERO_BLOCK, BlockHadamard())[0].satisfied
        assert sums_form(ZERO_BLOCK).satisfied

    def test_cross_form_implies_sums_form(self):
        # one direction always holds; the other fails (see the referee test)
        for seed in range(40):
            m = random_block_hadamard_symmetric(seed, 6)
            assert condition_reports(m, BlockHadamard())[0].satisfied
            assert sums_form(m).satisfied

    def test_forms_separate_and_oracle_referees(self):
        # phi1 = z^2, phi2 = phi3 = phi4 = -z^2 satisfies the sums form but
        # not the cross form; the matrix oracle certifies the cross form as
        # the exact characterization.
        z2 = parse_symbol("z^2")
        m = MatrixSymbol(z2, -1 * z2, -1 * z2, -1 * z2)
        assert sums_form(m).satisfied
        assert not condition_reports(m, BlockHadamard())[0].satisfied
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
            assert condition_reports(entry, Reversal(2))[0].satisfied
        assert sums_form(m).satisfied
        assert not condition_reports(m, BlockHadamard())[0].satisfied
        report = is_c_symmetric(m, BlockHadamard())
        assert not report.symmetric and report.residual > 1e-2


class TestBlockMixedChecker:
    def test_zero_satisfied(self):
        assert check_block_mixed_necessary(ZERO_BLOCK).satisfied

    def test_antidiagonal_odd_pair(self):
        z = parse_symbol("z")
        zero = LaurentSymbol()
        m = MatrixSymbol(z, zero, zero, -1 * z)
        rep = check_block_mixed_necessary(m)
        assert rep.family_ok("odd_sum14")
        assert rep.family_ok("odd_diff23")
        # mixed families still fail: phi1 - phi4 = 2z leaks into them
        assert not rep.satisfied

    def test_constructed_symmetric_pass(self):
        for seed in range(30):
            m = random_block_mixed_symmetric(seed, 6)
            assert is_c_symmetric(m, BlockMixed()).residual <= 1e-12
            assert check_block_mixed_necessary(m).satisfied

    def test_necessity_on_oracle_symmetric_inputs(self):
        # the defining property of a necessary-condition set
        for seed in range(30):
            m = random_block_mixed_symmetric(seed, 5)
            if is_c_symmetric(m, BlockMixed()).symmetric:
                assert check_block_mixed_necessary(m).satisfied

    @pytest.mark.parametrize("entry,family", [
        (1, "odd_sum14"), (2, "odd_diff23"),
    ])
    def test_single_odd_coefficient_violates(self, entry, family):
        entries = [LaurentSymbol()] * 4
        entries[entry - 1] = parse_symbol("z")
        m = MatrixSymbol(*entries)
        rep = check_block_mixed_necessary(m)
        assert not rep.family_ok(family)
        assert is_c_symmetric(m, BlockMixed()).residual > 1e-2

    @pytest.mark.parametrize("entry", [1, 2, 3, 4])
    def test_asymmetric_even_coefficient_violates(self, entry):
        entries = [LaurentSymbol()] * 4
        entries[entry - 1] = parse_symbol("z^2")
        m = MatrixSymbol(*entries)
        rep = check_block_mixed_necessary(m)
        assert not rep.family_ok(f"telescope{entry}")
        assert is_c_symmetric(m, BlockMixed()).residual > 1e-2

    def test_report_mode(self):
        assert check_block_mixed_necessary(ZERO_BLOCK).mode == NECESSARY_ONLY

    def test_report_mode_follows_the_family(self, monkeypatch):
        monkeypatch.setattr(BlockMixed, "characterization", IFF)
        assert check_block_mixed_necessary(ZERO_BLOCK).mode == IFF


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

    def test_block_sampler_follows_the_family(self, monkeypatch):
        # not the mode: an exact block_ctilde list must still draw from its own set
        monkeypatch.setattr(BlockMixed, "characterization", IFF)
        assert (conditions._trial_symbol(BlockMixed(), 3, 4, 0.7, True)
                == random_block_mixed_symmetric(3, 4, 0.7))

    def test_scaling_leaves_checkers_invariant(self):
        sym = random_symbol(5, 6, 0.6)
        for factor in (2.0, -3.5):
            a = condition_reports(sym, Reversal(3))[0].satisfied
            b = condition_reports(factor * sym, Reversal(3))[0].satisfied
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
            "7061e738a33156f6503951599dd3004ede0c8c1c1b1fc261e39cdab43005779c",
        "random_block_mixed_symmetric":
            "4c630df85474fbde5a65c56e010b3b9393225bb37692e30c38ca7baadfbbd58e",
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
    def test_conjecture_spec_has_advisory(self):
        outcome = run_check(parse_symbol("z^5 + z^-5"), Transposition(5, 1, 3))
        assert outcome.advisory is not None
        assert outcome.advisory.mode == CONJECTURE
        assert outcome.condition.mode == IFF
        assert outcome.agree

    def test_characterized_spec_has_no_advisory(self):
        outcome = run_check(parse_symbol("z^2 + z^-2"), Reversal(2))
        assert outcome.advisory is None
        assert outcome.agree and outcome.oracle.symmetric

    def test_necessary_only_agreement(self):
        # condition satisfied + oracle not symmetric is consistent for the
        # mixed block family
        m = random_block_mixed_symmetric(3, 5)
        outcome = run_check(m, BlockMixed())
        assert outcome.agree

    def test_json_shape(self):
        outcome = run_check(parse_symbol("z"), Reversal(2))
        obj = condition_report_to_json(outcome.condition)
        assert not obj["satisfied"]
        record = obj["violations"][0]
        assert set(record) == {"family", "lhs", "rhs", "lhs_component",
                               "rhs_component", "lhs_value", "rhs_value"}


class TestProjectToRaw:
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

    def test_raw_graph_cache_is_bounded(self):
        # a long session projecting at many bands keeps 128 graphs, not all
        conditions._raw_components.cache_clear()
        try:
            for band in range(129):
                conditions._raw_components(Reversal(1), band)
            assert conditions._raw_components.cache_info().currsize == 128
        finally:
            conditions._raw_components.cache_clear()

    def test_non_permutation_spec_rejected(self):
        with pytest.raises(ValueError):
            project_to_raw(parse_symbol("z"), MuLambda(1.0, 1.0), 1)


class TestExplorers:
    def test_transposition_explorer_clean(self):
        report = explore_transposition(5, 1, 3, band=10, trials=60, seed=0)
        assert report["anomalies"] == []
        # no raw-symmetric symbol violating the closed-form conditions found:
        # consistent with the conjectured characterization
        assert report["candidates"] == []

    def test_transposition_explorer_rejects_characterized_case(self):
        with pytest.raises(ValueError):
            explore_transposition(4, 0, 2, band=6, trials=5, seed=0)

    def test_transposition_explorer_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            explore_transposition(5, 1, 3, band=6, trials=0, seed=0)

    def test_block_mixed_explorer_finds_sufficiency_gap(self):
        report = explore_block_mixed(band=4, trials=25, seed=0)
        assert report["anomalies"] == []
        assert report["nullspace_dim"] > 0
        # the necessary conditions are not sufficient: the solution set
        # contains plainly non-symmetric symbols
        assert len(report["candidates"]) > 0
        for cand in report["candidates"]:
            m = MatrixSymbol.from_json(cand["symbol"])
            assert check_block_mixed_necessary(m).satisfied
            assert not is_c_symmetric(m, BlockMixed()).symmetric


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
        report = condition_reports(LaurentSymbol({2: 0.5 + 0.9e-12, -2: 0.5}), Reversal(2))[0]
        assert report.satisfied
        report = condition_reports(LaurentSymbol({2: 0.5 + 1.1e-12, -2: 0.5}), Reversal(2))[0]
        assert not report.satisfied

    def test_tolerance_grows_with_the_coefficient_norm(self):
        # ||c||_2 = 5e6 * sqrt(2): a defect of 5e-6 is within 1e-12 relative
        report = condition_reports(LaurentSymbol({2: 5e6 + 5e-6, -2: 5e6}), Reversal(2))[0]
        assert report.satisfied
        report = condition_reports(LaurentSymbol({2: 5e6 + 1e-4, -2: 5e6}), Reversal(2))[0]
        assert not report.satisfied

    def test_norm_past_the_float_limit_still_checks(self):
        # ||c||_2 = 2.4e308 is not finite; the tolerance must stay finite
        outcome = run_check(LaurentSymbol({1: 1.7e308, 2: 1.7e308}), Reversal(2))
        assert not outcome.condition.satisfied
        assert outcome.agree


class TestOneEvaluator:
    def test_block_mixed_nullspace_dimensions(self):
        dims = [conditions._block_mixed_nullspace(b).shape[1] for b in range(11)]
        assert dims == [4, 6, 10, 12, 16, 18, 22, 24, 28, 30, 34]

    def test_explorer_enumerates_the_raw_table_once(self, monkeypatch):
        calls = []
        for name in ("raw_relations_general", "raw_relations_transposition"):
            original = getattr(conditions, name)
            monkeypatch.setattr(conditions, name,
                                lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        conditions._raw_components.cache_clear()
        report = explore_transposition(5, 1, 3, band=9, trials=6, seed=4)
        assert report["anomalies"] == []
        assert calls == ["raw_relations_general"]
