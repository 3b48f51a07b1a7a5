import numpy as np
import pytest

from toepsym.conjugations import (
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
)
from toepsym.symbols import LaurentSymbol, MatrixSymbol, parse_symbol, random_matrix_symbol, random_symbol
from toepsym.toeplitz import block_truncate, min_truncation, truncate


class TestTruncate:
    def test_constant_symbol_is_identity(self):
        np.testing.assert_array_equal(truncate(parse_symbol("1"), 3).data, np.eye(3))

    def test_z_is_subdiagonal(self):
        np.testing.assert_array_equal(truncate(parse_symbol("z"), 2).data,
                                      np.array([[0, 0], [1, 0]], dtype=complex))

    def test_z_inverse_is_superdiagonal(self):
        np.testing.assert_array_equal(truncate(parse_symbol("z^-1"), 2).data,
                                      np.array([[0, 1], [0, 0]], dtype=complex))

    def test_entries_follow_coefficients(self):
        sym = random_symbol(3, 4, 0.8)
        t, coeffs = truncate(sym, 9), sym.coeffs
        for m in range(9):
            for n in range(9):
                assert t.data[m, n] == coeffs.get(m - n, 0j)

    def test_diagonal_constancy(self):
        t = truncate(random_symbol(5, 6, 0.9), 10)
        for d in range(-9, 10):
            diag = np.diagonal(t.data, offset=-d)
            assert np.all(diag == diag[0])

    def test_order_validation(self):
        with pytest.raises(ValueError):
            truncate(LaurentSymbol(), 0)

    def test_linearity_exact(self):
        a = random_symbol(6, 5, 0.7)
        b = random_symbol(7, 5, 0.7)
        alpha = 1.5 - 0.5j
        a_at, b_at = a.coeffs, b.coeffs
        combo_at = {k: alpha * a_at.get(k, 0j) + b_at.get(k, 0j) for k in {*a_at, *b_at}}
        t = truncate(LaurentSymbol(combo_at), 8)
        # placement adds no arithmetic: entries equal coefficients bit for bit
        for m in range(8):
            for n in range(8):
                assert t.data[m, n] == combo_at.get(m - n, 0j)
        assert np.abs(t.data - (alpha * truncate(a, 8).data + truncate(b, 8).data)).max() <= 1e-15
        # cross-engine (numpy matrix scaling) agreement is machine precision
        rhs = alpha * truncate(a, 8).data + truncate(b, 8).data
        np.testing.assert_allclose(t.data, rhs, rtol=0, atol=1e-14)

    def test_principal_submatrix_nesting(self):
        sym = random_symbol(8, 5, 0.8)
        big = truncate(sym, 12).data
        small = truncate(sym, 7).data
        np.testing.assert_array_equal(big[:7, :7], small)


class TestBlockTruncate:
    def test_constant_identity(self):
        one = parse_symbol("1")
        zero = LaurentSymbol()
        m = MatrixSymbol(one, zero, zero, one)
        np.testing.assert_array_equal(block_truncate(m, 2).data, np.eye(4))

    def test_block_placement(self):
        zero = LaurentSymbol()
        m = MatrixSymbol(zero, parse_symbol("z"), zero, zero)
        data = block_truncate(m, 2).data
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 2] = 1.0
        np.testing.assert_array_equal(data, expected)

    def test_diagonal_blocks(self):
        zinv = parse_symbol("z^-1")
        zero = LaurentSymbol()
        m = MatrixSymbol(zinv, zero, zero, zinv)
        data = block_truncate(m, 2).data
        blk = np.array([[0, 1], [0, 0]], dtype=complex)
        np.testing.assert_array_equal(data[:2, :2], blk)
        np.testing.assert_array_equal(data[2:, 2:], blk)
        assert not data[:2, 2:].any() and not data[2:, :2].any()

    def test_each_block_toeplitz(self):
        m = random_matrix_symbol(4, 3, 0.8)
        data = block_truncate(m, 6).data
        for bi in range(2):
            for bj in range(2):
                blk = data[6 * bi:6 * (bi + 1), 6 * bj:6 * (bj + 1)]
                for d in range(-5, 6):
                    diag = np.diagonal(blk, offset=d)
                    assert np.all(diag == diag[0])


class TestLazyStorage:
    def test_truncation_holds_only_the_symbol(self):
        # a dense truncation of order 10**6 would take 16 TB
        t = truncate(parse_symbol("z^3 + 2 z^-1"), 10**6)
        assert t.order == 10**6
        assert "data" not in vars(t)

    def test_diagonals_hold_the_coefficients_inside_the_order(self):
        zero = LaurentSymbol()
        m = MatrixSymbol(parse_symbol("z^2 + 3 z^-1"), zero, parse_symbol("z^5"), zero)
        d = block_truncate(m, 3).diagonals  # columns d + 2 for d = -2..2
        assert d.shape == (4, 5)
        np.testing.assert_array_equal(d[0], [0, 3, 0, 0, 1])
        assert not d[1:].any()  # z^5 lies outside order 3


class TestMinTruncation:
    def test_reversal_band_zero(self):
        assert min_truncation(0, Reversal(2)) == 8

    def test_transposition_band_three(self):
        assert min_truncation(3, Transposition(3, 0, 2)) == 18

    def test_divisibility(self):
        assert min_truncation(2, Transposition(5, 1, 4)) % 5 == 0
        assert min_truncation(4, Reversal(3)) % 3 == 0
        assert min_truncation(5, BlockHadamard()) % 2 == 0

    def test_mu_lambda(self):
        assert min_truncation(3, MuLambda(1.0, 1j)) == 10

    def test_lower_bound(self):
        for band in range(0, 7):
            for spec in (Reversal(4), Transposition(6, 0, 3), BlockMixed(),
                         GeneralPermutation(3, (1, 0, 2))):
                n = min_truncation(band, spec)
                assert n >= 2 * band + 4 * {Reversal: 4, Transposition: 6,
                                            BlockMixed: 2, GeneralPermutation: 3}[type(spec)]

    def test_band_validation(self):
        with pytest.raises(ValueError):
            min_truncation(-1, Reversal(2))
