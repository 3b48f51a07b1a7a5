import numpy as np
import pytest

import toepsym.conjugations as conjugations

from toepsym.conditions import _raw_components
from toepsym.conjugations import (
    AntilinearOperator,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    INV_SQRT2,
    MuLambda,
    Reversal,
    Transposition,
    covered_transposition_case,
    spec_from_json,
    spec_to_json,
    truncated_matrix,
    verify_axioms,
)

from solution_sets import involution_cases, involutions

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
        b = truncated_matrix(GeneralPermutation(t.period, t.sigma), 15).matrix
        np.testing.assert_array_equal(a, b)

    def test_reversal_matches_general(self):
        r = Reversal(4)
        a = truncated_matrix(r, 12).matrix
        b = truncated_matrix(GeneralPermutation(r.period, r.sigma), 12).matrix
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
            op = truncated_matrix(spec, spec.period * 4)
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
        report = verify_axioms(spec, spec.period * 6)
        assert report.ok
        assert report.involution_deviation <= 1e-14

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_read_from_blocks_not_the_dense_operator(self, spec, monkeypatch):
        size = spec.period * 6
        a = truncated_matrix(spec, size).matrix
        rng = np.random.default_rng(4)
        x = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
        dense_involution = np.max(np.abs(a @ np.conj(a) - np.eye(a.shape[0])))

        def refuse(self):
            raise AssertionError("built the dense A")
        monkeypatch.setattr(AntilinearOperator, "matrix", property(refuse))
        report = verify_axioms(spec, size)
        assert report.ok
        assert abs(report.involution_deviation - dense_involution) <= 1e-15
        np.testing.assert_allclose(truncated_matrix(spec, size).apply(x), a @ np.conj(x),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("g", [1, 2])
    @pytest.mark.parametrize("phases", [False, True], ids=["normal", "half-phases"])
    def test_involution_deviation_of_any_operator_is_the_dense_one(self, g, phases):
        # block (i, k) rotates each period of 3 by 1 + i + k, so A conj(A) has
        # no diagonal term; with weights of modulus 1/2 its entries are at
        # most 1/2, and the missing diagonal sets the deviation to 1
        period, size = 3, 12
        m = np.arange(size)
        perms = np.array([[(m + 1 + i + k) % period + m - m % period for k in range(g)]
                          for i in range(g)])
        weights = np.random.default_rng(g).standard_normal((g, g, size, 2)) @ [1, 1j]
        if phases:
            weights *= 0.5 / np.abs(weights)
        op = AntilinearOperator(perms, weights, period)
        dense = np.max(np.abs(op.matrix @ np.conj(op.matrix) - np.eye(op.dim)))
        assert abs(conjugations._involution_deviation(op) - dense) <= 1e-15 * dense
        assert (dense == 1.0) == phases

    @pytest.mark.parametrize("spec", [Reversal(2), MuLambda(1j, -1j), BlockMixed()],
                             ids=lambda s: s.name)
    def test_large_size_needs_no_dense_operator(self, spec):
        # a dense A at size 10**5 would take 160 GB (640 GB for a block family)
        assert verify_axioms(spec, 10**5, probes=1).ok

    def test_block_families_at_minimal_size(self):
        # the mixed variant leans on the two scalar pieces commuting
        for spec in (BlockHadamard(), BlockMixed()):
            assert verify_axioms(spec, 4).ok

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_columns_orthonormal(self, spec):
        a = truncated_matrix(spec, spec.period * 6).matrix
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


def _least_period(sigma):
    """The least ``d`` dividing ``p`` with ``tau(u + d) = tau(u)`` on ``Z_p``,
    ``tau(u) = sigma(u) - u``, read through ``np.roll``."""
    p = len(sigma)
    tau = np.array(sigma) - np.arange(p)
    return next(d for d in range(1, p + 1) if p % d == 0 and np.array_equal(tau, np.roll(tau, -d)))


class TestResidueOrbits:
    def test_every_swap_up_to_period_30_decides_iff(self):
        # d = p: c_k = c_-k at period multiples, else zero
        for p in range(2, 31):
            for i in range(p):
                for j in range(i + 1, p):
                    assert Transposition(p, i, j).mirror_period == p, (p, i, j)

    def test_every_reversal_up_to_30_leaves_only_residue_0_finite(self):
        for n in range(1, 31):
            assert Reversal(n).mirror_period == n

    def test_plain_conjugation_leaves_every_residue_finite(self):
        assert GeneralPermutation(1, (0,)).mirror_period == 1
        assert GeneralPermutation(3, (0, 1, 2)).mirror_period == 1

    def test_the_decision_is_computed_once_per_spec(self, monkeypatch):
        calls, sigma = [], Transposition.sigma
        monkeypatch.setattr(Transposition, "sigma",
                            property(lambda spec: calls.append(spec) or sigma.fget(spec)))
        spec = Transposition(5, 1, 3)
        assert spec.mirror_period == spec.mirror_period == 5
        assert len(calls) == 1

    @pytest.mark.parametrize("p", range(1, 11))
    def test_orbit_shape_up_to_period_10(self, p):
        # mirror_period d is the least period of the displacement on Z_p; the
        # README proves that the orbit of k is {k, -k} when d | k and infinite
        # otherwise, and the windowed test below checks that against the raw
        # table
        for sigma in involutions(p):
            assert GeneralPermutation(p, sigma).mirror_period == _least_period(sigma), sigma

    @pytest.mark.parametrize("p", [*range(1, 8), 8, 9, 12])
    def test_orbits_match_the_windowed_raw_components(self, p):
        # a component the raw table's window leaves free is exactly {k, -k}
        # for a multiple k of d inside the band; every other index is pinned
        # to zero
        for sigma in involution_cases(p):
            spec = GeneralPermutation(p, sigma)
            d = spec.mirror_period
            for band in (0, 1, p, 2 * p + 1, 4 * p + 3):
                for members, forced_zero in _raw_components(spec, band):
                    inside = {m for m in members if abs(m) <= band}
                    for k in inside:
                        assert (k % d == 0) == (not forced_zero), (sigma, band, k)
                        assert forced_zero or inside == {k, -k}, (sigma, band, k)


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

    @pytest.mark.parametrize("obj", [
        {"family": "reversal", "n": 2.7},
        {"family": "reversal", "n": True},
        {"family": "reversal", "n": float("inf")},
        {"family": "transposition", "p": 4, "i": False, "j": 2},
        {"family": "general", "p": 2, "sigma": [1.0, 0.5]},
        {"family": "general", "p": True, "sigma": [0]},
    ])
    def test_non_integer_fields_rejected(self, obj):
        with pytest.raises(ValueError):
            spec_from_json(obj)

    @pytest.mark.parametrize("obj", [
        {"family": "reversal", "n": 2, "p": 7},
        {"family": "block_c", "n": 2},
        {"family": "mulambda", "mu": [1, 0], "lambda": [1, 0], "lam": [1, 0]},
    ])
    def test_unknown_fields_rejected(self, obj):
        # a stray field is an error, as a missing one is, not dropped
        with pytest.raises(ValueError, match="unknown field"):
            spec_from_json(obj)

    def test_integral_values_accepted(self):
        assert spec_from_json({"family": "reversal", "n": 2.0}) == Reversal(2)
        with pytest.raises(ValueError):  # integer fields are JSON numbers, not strings
            spec_from_json({"family": "reversal", "n": "2"})
        assert (spec_from_json({"family": "general", "p": 2, "sigma": [1.0, 0]})
                == GeneralPermutation(2, (1, 0)))
