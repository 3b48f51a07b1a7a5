import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepsym.symbols import (
    LaurentSymbol,
    MatrixSymbol,
    SymbolSyntaxError,
    parse_symbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from toepsym.conjugations import MuLambda, Reversal, Transposition


class TestParse:
    def test_zero(self):
        assert parse_symbol("0").is_zero

    def test_literal_readback(self):
        sym = parse_symbol("1 + z^2 + z^-2")
        assert sym.coeffs == {0: 1 + 0j, 2: 1 + 0j, -2: 1 + 0j}

    def test_cancellation_dropped(self):
        sym = parse_symbol("(1+2i) z^3 + (-1-2i) z^3")
        assert sym.is_zero
        assert sym.support == ()

    def test_coefficient_forms(self):
        assert parse_symbol("2.5 z").coeffs == {1: 2.5 + 0j}
        assert parse_symbol("i").coeffs == {0: 1j}
        assert parse_symbol("-3i z^-1").coeffs == {-1: -3j}
        assert parse_symbol("1+2i z^3").coeffs == {3: 1 + 2j}
        assert parse_symbol("(0.5-0.25i)*z^2").coeffs == {2: 0.5 - 0.25j}
        assert parse_symbol("1e-3 z").coeffs == {1: 1e-3 + 0j}

    def test_same_exponent_terms_sum(self):
        assert parse_symbol("z + 2 z^1").coeffs == {1: 3 + 0j}

    def test_syntax_error_carries_offset(self):
        with pytest.raises(SymbolSyntaxError) as err:
            parse_symbol("1 + $")
        assert err.value.offset == 4

    def test_fractional_exponent_rejected(self):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("z^1.5")

    def test_exponent_overflow(self):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("z^10000001")

    def test_trailing_garbage(self):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol("z^2 4")


class TestBar:
    def test_conjugates_and_negates(self):
        assert LaurentSymbol({1: 1j}).bar().coeffs == {-1: -1j}

    def test_zero(self):
        assert LaurentSymbol.zero().bar().is_zero

    def test_componentwise(self):
        sym = LaurentSymbol({2: 1 + 1j, -3: 4})
        assert sym.bar().coeffs == {-2: 1 - 1j, 3: 4 + 0j}

    def test_involution_and_bandwidth(self):
        sym = random_symbol(11, 7, 0.6)
        assert sym.bar().bar() == sym
        assert sym.bar().bandwidth == sym.bandwidth


class TestCanonicalForm:
    def test_exact_zeros_dropped(self):
        assert LaurentSymbol({3: 0.0, -1: 0j, 0: 2}).support == (0,)

    def test_bandwidth_zero_symbol(self):
        assert LaurentSymbol.zero().bandwidth == 0

    def test_arithmetic(self):
        a = LaurentSymbol({0: 1, 2: 1j})
        b = LaurentSymbol({2: -1j, -1: 2})
        assert (a + b).coeffs == {0: 1 + 0j, -1: 2 + 0j}
        assert (a - a).is_zero
        assert (2 * a).coeff(2) == 2j

    def test_immutability(self):
        sym = LaurentSymbol({1: 1})
        with pytest.raises(AttributeError):
            sym._coeffs = {}


class TestRandomSymbol:
    def test_band_zero_is_constant(self):
        sym = random_symbol(5, 0, 1.0)
        assert sym.support == (0,)

    def test_determinism(self):
        assert random_symbol(42, 5, 0.5) == random_symbol(42, 5, 0.5)
        assert random_matrix_symbol(42, 5, 0.5) == random_matrix_symbol(42, 5, 0.5)

    def test_full_density_full_support(self):
        sym = random_symbol(7, 5, 1.0)
        assert sym.support == tuple(range(-5, 6))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_symbol(0, -1)
        with pytest.raises(ValueError):
            random_symbol(0, 2, 0.0)

    def test_coefficient_range(self):
        sym = random_symbol(13, 10, 1.0)
        for _, c in sym.items():
            assert -1 <= c.real <= 1 and -1 <= c.imag <= 1


class TestProjection:
    def test_odd_coefficient_vanishes(self):
        assert project_to_conditions(parse_symbol("z"), Reversal(2)).is_zero

    def test_even_symmetrization(self):
        sym = parse_symbol("z^2 + 3 z^-2")
        out = project_to_conditions(sym, Transposition(2, 0, 1))
        assert out.coeffs == {2: 2 + 0j, -2: 2 + 0j}

    def test_zero_symbol(self):
        assert project_to_conditions(LaurentSymbol.zero(), Reversal(3)).is_zero

    @pytest.mark.parametrize("spec", [Reversal(1), Reversal(3), Transposition(4, 0, 2),
                                      MuLambda(1.0, 1j)])
    def test_idempotent(self, spec):
        sym = random_symbol(23, 9, 0.7)
        once = project_to_conditions(sym, spec)
        assert project_to_conditions(once, spec) == once

    def test_mu_lambda_reflection(self):
        out = project_to_conditions(parse_symbol("z - z^-1"), MuLambda(1.0, -1.0))
        assert out.coeff(-1) == out.coeff(1) * (-1)

    def test_uncharacterized_swap_rejected(self):
        with pytest.raises(ValueError):
            project_to_conditions(parse_symbol("z"), Transposition(5, 1, 3))


class TestSerialization:
    def test_text_round_trip(self):
        sym = random_symbol(3, 6, 0.8)
        assert parse_symbol(sym.to_text()) == sym

    def test_zero_text(self):
        assert LaurentSymbol.zero().to_text() == "0"
        assert parse_symbol("0").to_text() == "0"

    def test_json_round_trip(self):
        sym = random_symbol(4, 6, 0.8)
        assert LaurentSymbol.from_json(sym.to_json()) == sym

    def test_json_shape(self):
        sym = LaurentSymbol({-2: 1.5 - 0.5j})
        assert sym.to_json() == {"-2": [1.5, -0.5]}

    def test_json_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            LaurentSymbol.from_json({"x": [1, 2]})

    @pytest.mark.parametrize("obj", [[1, 2], {"2": 5}, {"2": [1]}, {"2": [1, None]},
                                     {"2": [float("nan"), 0]}, {"2": [0, float("inf")]}])
    def test_json_rejects_malformed_and_non_finite(self, obj):
        with pytest.raises(ValueError):
            LaurentSymbol.from_json(obj)

    @pytest.mark.parametrize("obj", [[1], {"phi1": [1]}, {"phi1": {}}])
    def test_matrix_json_rejects_malformed(self, obj):
        with pytest.raises(ValueError):
            MatrixSymbol.from_json(obj)

    @pytest.mark.parametrize("text", ["1e999 z^2", "1e308 z + 1e308 z"])
    def test_parse_rejects_non_finite(self, text):
        with pytest.raises(SymbolSyntaxError):
            parse_symbol(text)

    def test_matrix_round_trip(self):
        msym = random_matrix_symbol(9, 4, 0.6)
        assert MatrixSymbol.from_json(msym.to_json()) == msym


class TestMatrixSymbol:
    def test_bandwidth_is_max(self):
        m = MatrixSymbol(LaurentSymbol({5: 1}), LaurentSymbol.zero(),
                         LaurentSymbol({-2: 1}), LaurentSymbol.zero())
        assert m.bandwidth == 5

    def test_entry_accessor(self):
        m = random_matrix_symbol(2, 3, 0.9)
        assert m.entry(1) == m.entries[0]
        with pytest.raises(ValueError):
            m.entry(0)


_coeff = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False)
_coeffs = st.dictionaries(st.integers(min_value=-9, max_value=9), _coeff, max_size=12)


@settings(max_examples=120, deadline=None)
@given(_coeffs)
def test_bar_is_involutive(coeffs):
    sym = LaurentSymbol(coeffs)
    assert sym.bar().bar() == sym
    assert sym.bar().bandwidth == sym.bandwidth
    assert sym.bar().support == tuple(sorted(-k for k in sym.support))


@settings(max_examples=120, deadline=None)
@given(_coeffs)
def test_text_round_trip_bit_exact(coeffs):
    sym = LaurentSymbol(coeffs)
    assert parse_symbol(sym.to_text()) == sym


@settings(max_examples=120, deadline=None)
@given(_coeffs)
def test_json_round_trip_bit_exact(coeffs):
    sym = LaurentSymbol(coeffs)
    assert LaurentSymbol.from_json(sym.to_json()) == sym


@settings(max_examples=60, deadline=None)
@given(_coeffs, st.integers(min_value=1, max_value=5))
def test_projection_idempotent(coeffs, n):
    sym = LaurentSymbol(coeffs)
    once = project_to_conditions(sym, Reversal(n))
    assert project_to_conditions(once, Reversal(n)) == once
