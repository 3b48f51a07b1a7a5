import pytest

from toepsym.conjugations import (
    BlockHadamard,
    BlockMixed,
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
from toepsym.symmetry import is_c_symmetric, report_to_json, residual
from toepsym.toeplitz import block_truncate, truncate


class TestResidual:
    @pytest.mark.parametrize("spec,size", [(Reversal(2), 8), (MuLambda(1j, -1.0), 8),
                                           (Transposition(4, 1, 3), 8)])
    def test_scalar_multiple_of_identity(self, spec, size):
        t = truncate(LaurentSymbol({0: 0.7 - 1.9j}), size)
        c = truncated_matrix(spec, size)
        assert residual(t, c) <= 1e-14

    def test_block_multiple_of_identity(self):
        c0 = LaurentSymbol({0: 2.5 + 0.5j})
        zero = LaurentSymbol.zero()
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


class TestIsCSymmetric:
    def test_zero_symbol_symmetric(self):
        for spec in (Reversal(3), Transposition(4, 0, 2), MuLambda(1.0, 1j)):
            report = is_c_symmetric(LaurentSymbol.zero(), spec)
            assert report.symmetric and report.residual == 0.0

    def test_zero_matrix_symbol_symmetric(self):
        for spec in (BlockHadamard(), BlockMixed()):
            assert is_c_symmetric(MatrixSymbol.zero(), spec).symmetric

    def test_twist_family_instance(self):
        report = is_c_symmetric(parse_symbol("z + z^-1"), MuLambda(1.0, 1.0))
        assert report.symmetric

    def test_block_diagonal_even_symbol(self):
        s = parse_symbol("z^2 + z^-2")
        zero = LaurentSymbol.zero()
        assert is_c_symmetric(MatrixSymbol(s, zero, zero, s), BlockHadamard()).symmetric

    def test_verdict_matches_tolerance(self):
        report = is_c_symmetric(parse_symbol("z"), Reversal(2))
        assert (report.verdict == "symmetric") == (report.residual <= report.tol)
        assert not report.symmetric

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z"), BlockHadamard())
        with pytest.raises(ValueError):
            is_c_symmetric(MatrixSymbol.zero(), Reversal(2))

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z"), Reversal(2), tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_rejected(self, tol):
        # a NaN tolerance would turn an exact-zero residual into not_symmetric
        with pytest.raises(ValueError):
            is_c_symmetric(parse_symbol("z^2 + z^-2"), Reversal(2), tol=tol)

    def test_explicit_order(self):
        report = is_c_symmetric(parse_symbol("z^2 + z^-2"), Reversal(2), order=20)
        assert report.order == 20 and report.symmetric

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
                doubled = is_c_symmetric(sym, spec, order=2 * base.order)
                assert base.symmetric == doubled.symmetric

    def test_block_truncation_stability_spot(self):
        for seed in range(6):
            msym = random_matrix_symbol(seed, 4, 0.6)
            for spec in (BlockHadamard(), BlockMixed()):
                base = is_c_symmetric(msym, spec)
                doubled = is_c_symmetric(msym, spec, order=2 * base.order)
                assert base.symmetric == doubled.symmetric


def test_report_json_shape():
    report = is_c_symmetric(parse_symbol("z^2 + z^-2"), Reversal(2))
    obj = report_to_json(report)
    assert set(obj) == {"residual", "n", "verdict", "tol"}
    assert obj["verdict"] == "symmetric"
    assert obj["n"] == report.order
