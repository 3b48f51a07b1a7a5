import numpy as np
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
        assert sorted(sym.coeffs) == []

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

    # One input per way the parser can fail; offsets count characters.
    @pytest.mark.parametrize("text, message, offset", [
        ("1 + $", "unexpected character '$'", 4),
        ("−z + $", "unexpected character '$'", 5),
        ("", "empty symbol text", 0),
        ("   ", "empty symbol text", 3),
        ("z^2 4", "expected '+' or '-' between terms", 4),
        ("(1+2i 3)", "expected ')'", 6),
        ("1 + ^", "expected a coefficient or 'z'", 4),
        ("1e308 z + 1e308 z", "coefficient is not finite", 10),
        ("(1e308+1e308)", "coefficient is not finite", 0),
        ("(1+z)", "expected a number or 'i'", 3),
        ("z^-", "expected an integer exponent", 3),
        ("z^1.5", "exponent must be an integer", 2),
        ("z^-1000001", "exponent -1000001 out of range", 3),
        ("z^" + "1" * 5000, "exponent out of range", 2),
        ("3*", "expected 'z' after '*'", 2),
        ("3* + z^2", "expected 'z' after '*'", 3),
        ("(1+i)**z", "expected 'z' after '*'", 6),
    ])
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(SymbolSyntaxError) as err:
            parse_symbol(text)
        assert str(err.value) == f"{message} (at offset {offset})"
        assert err.value.offset == offset


class TestCanonicalForm:
    def test_exact_zeros_dropped(self):
        assert sorted(LaurentSymbol({3: 0.0, -1: 0j, 0: 2}).coeffs) == [0]

    def test_bandwidth_zero_symbol(self):
        assert LaurentSymbol().bandwidth == 0

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
        assert sorted(sym.coeffs) == [0]

    def test_determinism(self):
        assert random_symbol(42, 5, 0.5) == random_symbol(42, 5, 0.5)
        assert random_matrix_symbol(42, 5, 0.5) == random_matrix_symbol(42, 5, 0.5)

    def test_full_density_full_support(self):
        sym = random_symbol(7, 5, 1.0)
        assert sorted(sym.coeffs) == list(range(-5, 6))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            random_symbol(0, -1)
        with pytest.raises(ValueError):
            random_symbol(0, 2, 0.0)

    def test_coefficient_range(self):
        sym = random_symbol(13, 10, 1.0)
        for _, c in sym.items():
            assert -1 <= c.real <= 1 and -1 <= c.imag <= 1

    @staticmethod
    def _assert_matches_per_call(seed, max_band, density):
        """Both generators against the per-call draw that the one-stream walk
        replaced, kept as the reference: a Generator call for each index's
        density test and one for both parts of each kept coefficient, the four
        matrix entries from one stream."""
        def per_call(rng):
            coeffs = {}
            for k in range(-max_band, max_band + 1):
                if rng.random() < density:
                    re, im = rng.uniform(-1.0, 1.0, size=2)
                    coeffs[k] = complex(re, im)
            return repr(sorted(coeffs.items()))
        stream = np.random.default_rng(seed)
        expected = [per_call(np.random.default_rng(seed)), *(per_call(stream) for _ in range(4))]
        got = [random_symbol(seed, max_band, density),
               *random_matrix_symbol(seed, max_band, density).entries]
        assert [repr(sorted(sym.coeffs.items())) for sym in got] == expected

    @pytest.mark.parametrize("density", [1.0, 0.7, 0.5, 0.2, 1e-3, 1e-300])
    @pytest.mark.parametrize("band", [0, 1, 2, 7, 30])
    def test_matches_the_per_call_draw(self, band, density):
        for seed in (*range(20), 2**40 + 3):
            self._assert_matches_per_call(seed, band, density)

    @pytest.mark.parametrize("density", [1.0, 0.5])
    def test_matches_the_per_call_draw_across_blocks(self, density):
        # the stream is drawn 2**16 doubles at a time; at band 11000 the
        # matrix symbol needs more at either density, the scalar one at 1.0
        self._assert_matches_per_call(3, 11000, density)


class TestProjection:
    def test_odd_coefficient_vanishes(self):
        assert project_to_conditions(parse_symbol("z"), Reversal(2)).is_zero

    def test_even_symmetrization(self):
        sym = parse_symbol("z^2 + 3 z^-2")
        out = project_to_conditions(sym, Transposition(2, 0, 1))
        assert out.coeffs == {2: 2 + 0j, -2: 2 + 0j}

    def test_zero_symbol(self):
        assert project_to_conditions(LaurentSymbol(), Reversal(3)).is_zero

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
        assert LaurentSymbol().to_text() == "0"
        assert parse_symbol("0").to_text() == "0"

    def test_json_round_trip(self):
        sym = random_symbol(4, 6, 0.8)
        assert LaurentSymbol.from_json(sym.to_json()) == sym

    def test_json_reads_numbers_of_either_type(self):
        assert LaurentSymbol.from_json({"-3": [1, -0.5], "0": [2.5, 0]}).coeffs == {
            -3: 1 - 0.5j, 0: 2.5 + 0j}

    def test_json_shape(self):
        sym = LaurentSymbol({-2: 1.5 - 0.5j})
        assert sym.to_json() == {"-2": [1.5, -0.5]}

    def test_json_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            LaurentSymbol.from_json({"x": [1, 2]})

    @pytest.mark.parametrize("obj", [[1, 2], {"2": 5}, {"2": [1]}, {"2": [1, None]},
                                     {"2": [float("nan"), 0]}, {"2": [0, float("inf")]},
                                     {"2": [True, False]}, {"2": ["1e3", "0"]}, {"2": [1, "0"]},
                                     {"2": [10**400, 0]}, {"2_0": [1, 0]}, {" 2": [1, 0]},
                                     {"+2": [1, 0]}, {"02": [1, 0]}, {"-0": [1, 0]}, {2: [1, 0]}])
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
        m = MatrixSymbol(LaurentSymbol({5: 1}), LaurentSymbol(),
                         LaurentSymbol({-2: 1}), LaurentSymbol())
        assert m.bandwidth == 5


_coeff = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False)
_coeffs = st.dictionaries(st.integers(min_value=-9, max_value=9), _coeff, max_size=12)


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


_GRAMMAR_TEXT = st.text(alphabet="0123456789.eEijz+-−^*() \t$", max_size=24)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(), _GRAMMAR_TEXT))
def test_parse_returns_a_symbol_or_a_syntax_error(text):
    try:
        sym = parse_symbol(text)
    except SymbolSyntaxError as err:
        assert 0 <= err.offset <= len(text)
    else:
        assert isinstance(sym, LaurentSymbol)
