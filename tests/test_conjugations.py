import numpy as np
import pytest

from toepsym.conjugations import (
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    INV_SQRT2,
    MuLambda,
    Reversal,
    Transposition,
    covered_transposition_case,
    period,
    spec_from_json,
    spec_to_json,
    truncated_matrix,
    verify_axioms,
)

ALL_SPECS = [
    GeneralPermutation(4, (2, 1, 0, 3)),
    Transposition(3, 0, 2),
    Reversal(2),
    Reversal(5),
    MuLambda(1.0, 1.0),
    MuLambda(1j, -1.0),
    BlockHadamard(),
    BlockMixed(),
]


class TestSpecValidation:
    def test_non_involutive_sigma_rejected(self):
        with pytest.raises(ValueError):
            GeneralPermutation(3, (1, 2, 0))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            GeneralPermutation(3, (0, 0, 2))

    def test_transposition_ranges(self):
        with pytest.raises(ValueError):
            Transposition(3, 2, 2)
        with pytest.raises(ValueError):
            Transposition(3, -1, 1)
        with pytest.raises(ValueError):
            Transposition(3, 1, 3)

    def test_reversal_range(self):
        with pytest.raises(ValueError):
            Reversal(0)

    def test_mu_lambda_unit_modulus(self):
        with pytest.raises(ValueError):
            MuLambda(2.0, 1.0)
        with pytest.raises(ValueError):
            MuLambda(1.0, 0.5j)

    def test_mu_lambda_non_finite_rejected(self):
        for value in (complex("nan"), complex(float("nan"), 0.0), complex("inf")):
            with pytest.raises(ValueError):
                MuLambda(value, 1.0)
            with pytest.raises(ValueError):
                MuLambda(1.0, value)

    def test_mu_lambda_normalized(self):
        eps = 1e-13
        spec = MuLambda(1.0 + eps, 1j * (1.0 - eps))
        assert abs(abs(spec.mu) - 1.0) < 1e-15
        assert abs(abs(spec.lam) - 1.0) < 1e-15


class TestTruncatedMatrix:
    def test_reversal_two_pairswap(self):
        a = truncated_matrix(Reversal(2), 4).matrix
        expected = np.zeros((4, 4))
        for m, s in ((0, 1), (1, 0), (2, 3), (3, 2)):
            expected[m, s] = 1.0
        np.testing.assert_array_equal(a, expected)

    def test_mu_lambda_identity(self):
        a = truncated_matrix(MuLambda(1.0, 1.0), 3).matrix
        np.testing.assert_array_equal(a, np.eye(3))

    def test_transposition_action(self):
        a = truncated_matrix(Transposition(3, 0, 2), 3).matrix
        np.testing.assert_array_equal(a @ np.array([1, 0, 0]), [0, 0, 1])
        np.testing.assert_array_equal(a @ np.array([0, 1, 0]), [0, 1, 0])

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            truncated_matrix(Reversal(2), 5)
        with pytest.raises(ValueError):
            truncated_matrix(Transposition(3, 0, 1), 8)
        with pytest.raises(ValueError):
            truncated_matrix(BlockHadamard(), 7)

    def test_mu_lambda_any_size(self):
        assert truncated_matrix(MuLambda(1.0, 1j), 5).dim == 5

    def test_permutation_matrices_are_signless(self):
        for spec in (GeneralPermutation(4, (2, 1, 0, 3)), Transposition(5, 1, 4), Reversal(3)):
            a = truncated_matrix(spec, 12 if isinstance(spec, GeneralPermutation) else 15).matrix
            assert np.array_equal(np.abs(a), a.real)
            assert set(np.unique(a.real)) <= {0.0, 1.0}
            np.testing.assert_array_equal(a.sum(axis=0), np.ones(a.shape[0]))

    def test_block_entries(self):
        for spec in (BlockHadamard(), BlockMixed()):
            a = truncated_matrix(spec, 6).matrix
            assert a.shape == (12, 12)
            values = set(np.unique(a.real))
            assert values <= {0.0, INV_SQRT2, -INV_SQRT2}
            assert not a.imag.any()

    def test_transposition_matches_general(self):
        t = Transposition(5, 1, 3)
        a = truncated_matrix(t, 15).matrix
        b = truncated_matrix(t.to_general(), 15).matrix
        np.testing.assert_array_equal(a, b)

    def test_reversal_matches_general(self):
        r = Reversal(4)
        a = truncated_matrix(r, 12).matrix
        b = truncated_matrix(r.to_general(), 12).matrix
        np.testing.assert_array_equal(a, b)

    def test_commutes_with_block_shift(self):
        spec = GeneralPermutation(3, (2, 1, 0))
        n = 12
        a = truncated_matrix(spec, n).matrix
        shift = np.eye(n, k=-3)
        np.testing.assert_array_equal(a @ shift, shift @ a)


class TestApply:
    def test_zero_vector(self):
        op = truncated_matrix(Reversal(2), 4)
        np.testing.assert_array_equal(op.apply(np.zeros(4)), np.zeros(4))

    def test_reversal_swaps_and_conjugates(self):
        op = truncated_matrix(Reversal(2), 2)
        out = op.apply(np.array([1 + 2j, 3 - 1j]))
        np.testing.assert_array_equal(out, np.array([3 + 1j, 1 - 2j]))

    def test_mu_lambda_signs(self):
        op = truncated_matrix(MuLambda(1.0, -1.0), 2)
        np.testing.assert_array_equal(op.apply(np.array([1.0, 1.0])), np.array([1, -1]))

    def test_antilinearity(self):
        rng = np.random.default_rng(0)
        for spec in ALL_SPECS:
            op = truncated_matrix(spec, period(spec) * 4)
            x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            y = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
            alpha, beta = 0.7 - 0.2j, -1.1 + 0.4j
            lhs = op.apply(alpha * x + beta * y)
            rhs = np.conj(alpha) * op.apply(x) + np.conj(beta) * op.apply(y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        op = truncated_matrix(Reversal(2), 4)
        with pytest.raises(ValueError):
            op.apply(np.zeros(5))


class TestAxioms:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_involution_and_isometry(self, spec):
        report = verify_axioms(spec, period(spec) * 6)
        assert report.ok
        assert report.involution_deviation <= 1e-14

    def test_block_families_at_minimal_size(self):
        # the mixed variant leans on the two scalar pieces commuting
        for spec in (BlockHadamard(), BlockMixed()):
            assert verify_axioms(spec, 4).ok

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_columns_orthonormal(self, spec):
        a = truncated_matrix(spec, period(spec) * 6).matrix
        gram = a.conj().T @ a
        assert np.max(np.abs(gram - np.eye(a.shape[0]))) <= 1e-14


class TestCoveredCases:
    def test_half_period_swaps(self):
        assert covered_transposition_case(2, 0, 1)
        assert covered_transposition_case(4, 0, 2)
        assert covered_transposition_case(4, 1, 3)
        assert covered_transposition_case(6, 2, 5)

    def test_mq_plus_one(self):
        assert covered_transposition_case(3, 0, 2)   # q=1, m=2
        assert covered_transposition_case(5, 1, 4)   # q=2, m=2
        assert covered_transposition_case(7, 2, 6)   # q=3, m=2

    def test_open_cases(self):
        assert not covered_transposition_case(5, 1, 3)
        assert not covered_transposition_case(4, 0, 1)
        assert not covered_transposition_case(5, 0, 2)


class TestSpecJson:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_round_trip(self, spec):
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_family_names(self):
        assert spec_to_json(BlockHadamard())["family"] == "block_c"
        assert spec_to_json(BlockMixed())["family"] == "block_ctilde"
        assert spec_to_json(MuLambda(1.0, 1j))["lambda"] == [0.0, 1.0]
        assert spec_to_json(GeneralPermutation(2, (1, 0)))["sigma"] == [1, 0]

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            spec_from_json({"family": "nope"})
        with pytest.raises(ValueError):
            spec_from_json({})

    @pytest.mark.parametrize("obj", [
        [1, 2],
        {"family": ["reversal"]},
        {"family": "reversal", "n": [2]},
        {"family": "general", "p": 2, "sigma": 5},
        {"family": "mulambda", "mu": 5, "lambda": [1, 0]},
        {"family": "mulambda", "mu": [1, 0], "lambda": [1]},
        {"family": "mulambda", "mu": [float("nan"), 0], "lambda": [1, 0]},
    ])
    def test_malformed_fields(self, obj):
        with pytest.raises(ValueError):
            spec_from_json(obj)
