import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from toepsym.conjugations import (
    AntilinearOperator,
    BlockHadamard,
    BlockMixed,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
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
from toepsym import symmetry
from toepsym.symmetry import SYMMETRY_TOL, is_c_symmetric, report_to_json, residual
from toepsym.toeplitz import TruncatedToeplitz, block_truncate, min_truncation, truncate

from solution_sets import symmetric_symbol

ZERO_BLOCK = MatrixSymbol(*[LaurentSymbol()] * 4)


class TestResidual:
    @pytest.mark.parametrize("spec,size", [(Reversal(2), 8), (MuLambda(1j, -1.0), 8),
                                           (Transposition(4, 1, 3), 8)])
    def test_scalar_multiple_of_identity(self, spec, size):
        t = truncate(LaurentSymbol({0: 0.7 - 1.9j}), size)
        c = truncated_matrix(spec, size)
        assert residual(t, c) <= 1e-14

    def test_block_multiple_of_identity(self):
        c0 = LaurentSymbol({0: 2.5 + 0.5j})
        zero = LaurentSymbol()
        m = MatrixSymbol(c0, zero, zero, c0)
        for spec in (BlockHadamard(), BlockMixed()):
            t = block_truncate(m, 8)
            c = truncated_matrix(spec, 8)
            assert residual(t, c) <= 1e-14

    def test_z_under_pair_reversal_fails_loudly(self):
        t = truncate(parse_symbol("z"), 8)
        c = truncated_matrix(Reversal(2), 8)
        assert residual(t, c) > 0.1

    def test_even_symmetric_symbol_passes(self):
        t = truncate(parse_symbol("z^2 + z^-2"), 8)
        c = truncated_matrix(Reversal(2), 8)
        assert residual(t, c) <= 1e-12

    def test_dimension_mismatch(self):
        t = truncate(parse_symbol("z"), 8)
        c = truncated_matrix(Reversal(2), 10)
        with pytest.raises(ValueError):
            residual(t, c)
        # equal dimensions, but a scalar truncation is not a block operator's
        # partner, nor the reverse
        with pytest.raises(ValueError, match="shape mismatch"):
            residual(t, truncated_matrix(BlockHadamard(), 4))
        with pytest.raises(ValueError, match="shape mismatch"):
            residual(block_truncate(ZERO_BLOCK, 4), truncated_matrix(Reversal(2), 8))


class TestIsCSymmetric:
    def test_zero_symbol_symmetric(self):
        for spec in (Reversal(3), Transposition(4, 0, 2), MuLambda(1.0, 1j)):
            report = is_c_symmetric(LaurentSymbol(), spec)
            assert report.symmetric and report.residual == 0.0

    def test_zero_matrix_symbol_symmetric(self):
        for spec in (BlockHadamard(), BlockMixed()):
            assert is_c_symmetric(ZERO_BLOCK, spec).symmetric

    def test_twist_family_instance(self):
        report = is_c_symmetric(parse_symbol("z + z^-1"), MuLambda(1.0, 1.0))
        assert report.symmetric

    def test_block_diagonal_even_symbol(self):
        s = parse_symbol("z^2 + z^-2")
        zero = LaurentSymbol()
        assert is_c_symmetric(MatrixSymbol(s, zero, zero, s), BlockHadamard()).symmetric

    def test_verdict_matches_tolerance(self):
        report = is_c_symmetric(parse_symbol("z"), Reversal(2))
        assert (report.verdict == "symmetric") == (report.residual <= report.tol)
        assert not report.symmetric

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z"), BlockHadamard())
        with pytest.raises(ValueError):
            is_c_symmetric(ZERO_BLOCK, Reversal(2))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z"), Reversal(2), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN tolerance would turn an exact-zero residual into not_symmetric
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z^2 + z^-2"), Reversal(2), tol=tol)

    def test_explicit_order(self):
        t = truncate(parse_symbol("z^2 + z^-2"), 20)
        assert residual(t, truncated_matrix(Reversal(2), 20)) <= SYMMETRY_TOL

    def test_uses_min_truncation(self):
        report = is_c_symmetric(parse_symbol("z^3"), Reversal(2))
        assert report.order == 14  # 2*3 + 4*2


class TestProperties:
    def test_zero_residual_scale_invariant(self):
        sym = project_to_conditions(random_symbol(8, 6, 0.8), Reversal(3))
        base = is_c_symmetric(sym, Reversal(3))
        scaled = is_c_symmetric((2.7 - 1.3j) * sym, Reversal(3))
        assert base.symmetric and scaled.symmetric

    def test_nonzero_residual_scale_invariant(self):
        sym = random_symbol(9, 5, 0.8)
        base = is_c_symmetric(sym, Reversal(3))
        scaled = is_c_symmetric(5.0 * sym, Reversal(3))
        assert not base.symmetric and not scaled.symmetric

    def test_sum_closure(self):
        spec = Transposition(4, 0, 2)
        a = project_to_conditions(random_symbol(10, 6, 0.8), spec)
        b = project_to_conditions(random_symbol(11, 6, 0.8), spec)
        assert is_c_symmetric(a, spec).symmetric
        assert is_c_symmetric(b, spec).symmetric
        assert is_c_symmetric(a + b, spec).symmetric

    def test_truncation_stability_spot(self):
        for seed in range(10):
            sym = random_symbol(seed, 5, 0.6)
            for spec in (Reversal(2), Transposition(3, 0, 2), MuLambda(1.0, 1j)):
                base = is_c_symmetric(sym, spec)
                n = 2 * base.order
                doubled = residual(truncate(sym, n), truncated_matrix(spec, n))
                assert base.symmetric == (doubled <= SYMMETRY_TOL)

    def test_block_truncation_stability_spot(self):
        for seed in range(6):
            msym = random_matrix_symbol(seed, 4, 0.6)
            for spec in (BlockHadamard(), BlockMixed()):
                base = is_c_symmetric(msym, spec)
                n = 2 * base.order
                doubled = residual(block_truncate(msym, n), truncated_matrix(spec, n))
                assert base.symmetric == (doubled <= SYMMETRY_TOL)


SIX_FAMILIES = [GeneralPermutation(3, (2, 1, 0)), Transposition(5, 1, 3), Reversal(2),
                MuLambda(1j, complex(0.6, 0.8)), BlockHadamard(), BlockMixed()]


def _unscaled_residual(t, c):
    a = c.matrix
    diff = a @ np.conj(t.data) @ np.conj(a) - t.data.conj().T
    return float(np.linalg.norm(diff) / max(1.0, np.linalg.norm(t.data)))


def _truncation(symbol, spec, n):
    return block_truncate(symbol, n) if spec.is_block else truncate(symbol, n)


# the bound perfbench/reference.py holds the residual to: the dense product's
# own BLAS sums are off by up to 3e-13 at band 800
DENSE_BOUND = 1e-12


def _residual_without_scaling(t, c, monkeypatch):
    """The residual's own formula on the unscaled coefficients: ``e = 0``."""
    with monkeypatch.context() as patch:
        patch.setattr(symmetry, "math", SimpleNamespace(
            frexp=lambda x: (0.5, 0), ldexp=math.ldexp, sqrt=math.sqrt))
        return residual(t, c)


class TestScaledResidual:
    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    @pytest.mark.parametrize("band", [6, 50, 200])
    def test_bit_identical_to_unscaled_formula(self, spec, band, monkeypatch):
        # the power-of-two scaling is exact, so the scaled residual is the
        # unscaled one bit for bit; the dense formula, which sums zgemm's
        # products, agrees within DENSE_BOUND
        n = min_truncation(band, spec)
        c = truncated_matrix(spec, n)
        for seed in range(2):
            # factor 1 gives e = 0 or 1, 3e5 gives e up to 19, 1e-3 gives e = 0
            for factor in (1.0, 3e5, 1e-3):
                if spec.is_block:
                    entries = random_matrix_symbol(seed, band, 0.5).entries
                    symbol = MatrixSymbol(*(factor * e for e in entries))
                else:
                    symbol = factor * random_symbol(seed, band, 0.5)
                t = _truncation(symbol, spec, n)
                got, expected = residual(t, c), _unscaled_residual(t, c)
                assert got == _residual_without_scaling(t, c, monkeypatch)
                assert abs(got - expected) <= DENSE_BOUND * max(1.0, expected)

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    def test_power_of_two_scaling_leaves_residual_unchanged(self, spec):
        # 2**900 overflows the unscaled norms; the scaled residual is exact
        if spec.is_block:
            symbol = random_matrix_symbol(3, 8, 0.7)
            huge = MatrixSymbol(*(2.0**900 * e for e in symbol.entries))
        else:
            symbol = random_symbol(3, 8, 0.7)
            huge = 2.0**900 * symbol
        n = min_truncation(8, spec)
        c = truncated_matrix(spec, n)
        base = residual(_truncation(symbol, spec, n), c)
        assert base > 0.1
        assert residual(_truncation(huge, spec, n), c) == base


PERMUTATION_FAMILIES = {"general", "transposition", "reversal"}


def _generic_symbol(spec, seed, band):
    return random_matrix_symbol(seed, band, 0.5) if spec.is_block else random_symbol(seed, band, 0.5)


def _scaled(symbol, factor):
    if isinstance(symbol, MatrixSymbol):
        return MatrixSymbol(*(factor * e for e in symbol.entries))
    return factor * symbol


class TestStructuredResidual:
    """The coefficient-strip residual against the dense product
    ``A conj(T) conj(A)``."""

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    @pytest.mark.parametrize("band", [0, 1, 2, 3, 6, 13, 20, 50, 200])
    def test_matches_dense_product(self, spec, band):
        n = min_truncation(band, spec)
        c = truncated_matrix(spec, n)
        for symmetric, base in ((True, symmetric_symbol(spec, 5, band, 0.5)),
                                (False, _generic_symbol(spec, 5, band))):
            # closed-form symmetric symbols of the permutation families have
            # equal coefficients where the relations say so: exact zero
            exact = symmetric and spec.name in PERMUTATION_FAMILIES
            dense = {f: _unscaled_residual(_truncation(_scaled(base, f), spec, n), c)
                     for f in (1.0, 3e5, 1e-3)}
            # the dense products overflow at 2**900; the scaling is exact, so
            # its reference is the unscaled symbol's
            dense[2.0**900] = dense[1.0]
            for factor, expected in dense.items():
                got = residual(_truncation(_scaled(base, factor), spec, n), c)
                assert abs(got - expected) <= DENSE_BOUND * max(1.0, expected)
                assert got == 0.0 or not exact

    def test_check_path_builds_no_dense_operator(self, monkeypatch):
        def refuse(self):
            raise AssertionError("the check path built a dense A or T")
        monkeypatch.setattr(AntilinearOperator, "matrix", property(refuse))
        monkeypatch.setattr(TruncatedToeplitz, "data", property(refuse))
        for spec in SIX_FAMILIES:
            assert is_c_symmetric(symmetric_symbol(spec, 2, 6, 0.5), spec).symmetric
            assert not is_c_symmetric(_generic_symbol(spec, 2, 6), spec).symmetric

    @pytest.mark.parametrize("spec", SIX_FAMILIES, ids=lambda s: s.name)
    def test_check_allocates_less_than_one_dense_array(self, spec):
        # at band 1000 an order x order float array is 32 MB; the strips the
        # residual reads take a few MB
        symbol = _generic_symbol(spec, 2, 1000)
        tracemalloc.start()
        try:
            report = is_c_symmetric(symbol, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.symmetric
        assert peak < 8 * report.order ** 2


def test_report_json_shape():
    report = is_c_symmetric(parse_symbol("z^2 + z^-2"), Reversal(2))
    obj = report_to_json(report)
    assert set(obj) == {"residual", "n", "verdict", "tol"}
    assert obj["verdict"] == "symmetric"
    assert obj["n"] == report.order
