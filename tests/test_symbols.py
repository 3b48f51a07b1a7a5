import dataclasses
import json
import pickle
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toepsym.symbols import (
    MAX_EXPONENT,
    LaurentSymbol,
    MatrixSymbol,
    SymbolSyntaxError,
    complex_from_pair,
    parse_symbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from toepsym.conditions import random_block_hadamard_symmetric, random_block_mixed_symmetric
from toepsym.conjugations import (
    BlockHadamard,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
)


def to_text(sym: LaurentSymbol) -> str:
    """The parser's round-trip oracle: an exact textual form of ``sym``, each
    coefficient a parenthesized ``repr`` pair."""
    terms = (f"({c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}i)"
             + (f" z^{k}" if k else "") for k, c in sym.items())
    return " + ".join(terms) or "0"


class TestParse:
    def test_zero(self):
        assert parse_symbol("0") == LaurentSymbol()

    def test_literal_readback(self):
        sym = parse_symbol("1 + z^2 + z^-2")
        assert sym.coeffs == {0: 1 + 0j, 2: 1 + 0j, -2: 1 + 0j}

    def test_cancellation_dropped(self):
        sym = parse_symbol("(1+2i) z^3 + (-1-2i) z^3")
        assert sym == LaurentSymbol()
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


# The symbol-text goldens' inputs, each with the symbol its check report
# echoed before reports named a symbol by its hash; compared as canonical
# JSON text, so the sign of a zero part counts.
PARSED_GOLDENS = {
    "parens": ("(-0.5+0.25i)*z^2 + (-0.5+0.25i) z^-2 + (+3-i)",
               '{"-2":[-0.5,0.25],"0":[3.0,-1.0],"2":[-0.5,0.25]}'),
    "fold": ("1+2i z^3 + 1 - 2i z^-3 + 4 - z^3",
             '{"-3":[1.0,-2.0],"0":[4.0,0.0],"3":[0.0,2.0]}'),
    "imag_units": ("i z^2 + j z^-2 - 2j", '{"-2":[0.0,1.0],"0":[0.0,-2.0],"2":[0.0,1.0]}'),
    "star": ("2*z^2 + 3 * z^-2 + (1+i)*z", '{"-2":[3.0,0.0],"1":[1.0,1.0],"2":[2.0,0.0]}'),
    "unicode_minus": ("z^2 − z^−2 − 1", '{"-2":[-1.0,0.0],"0":[-1.0,0.0],"2":[1.0,0.0]}'),
    "signed_exponent": ("z ^ - 2 + z ^ + 2", '{"-2":[1.0,0.0],"2":[1.0,0.0]}'),
    "repeated_exponents": ("z^2 + 2 z^2 - 0.5 z^2 + 2.5 z^-2 + z - z",
                           '{"-2":[2.5,0.0],"2":[2.5,0.0]}'),
    "block": ("(1+i) z^2 + z^−2; 2*z; −z ^ -1; 1+2i z^2 + 1-2i",
              '{"phi1":{"-2":[1.0,0.0],"2":[1.0,1.0]},"phi2":{"1":[2.0,0.0]},'
              '"phi3":{"-1":[-1.0,0.0]},"phi4":{"0":[1.0,-2.0],"2":[1.0,2.0]}}'),
}


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", list(PARSED_GOLDENS))
def test_parse_matches_the_symbol_text_golden(name):
    text, expected = PARSED_GOLDENS[name]
    pieces = text.split(";")
    if len(pieces) == 4:
        obj = {f"phi{i}": parse_symbol(piece).to_json() for i, piece in enumerate(pieces, 1)}
    else:
        obj = parse_symbol(text).to_json()
    assert _canonical(obj) == expected


class TestCanonicalForm:
    def test_exact_zeros_dropped(self):
        assert sorted(LaurentSymbol({3: 0.0, -1: 0j, 0: 2}).coeffs) == [0]

    def test_bandwidth_zero_symbol(self):
        assert LaurentSymbol().bandwidth == 0

    def test_arithmetic(self):
        # a symbol has a scalar product and no sum: the samplers build their
        # symbols from coefficient arrays
        a = LaurentSymbol({0: 1, 2: 1j})
        assert (2 * a).coeffs == (a * 2).coeffs == {0: 2 + 0j, 2: 2j}
        assert (0 * a) == LaurentSymbol()
        with pytest.raises(TypeError):
            a + a
        with pytest.raises(TypeError):
            -a

    def test_immutability(self):
        sym = LaurentSymbol({1: 1})
        with pytest.raises(AttributeError):
            sym._coeffs = {}

    def test_a_scalar_symbol_is_its_one_entry(self):
        sym = LaurentSymbol({1: 1})
        assert sym.entries == (sym,) and sym.entries[0] is sym

    def test_arrays_are_read_only(self):
        a = LaurentSymbol.from_json({"2": [1, 0], "-1": [0.5, -0.0]})
        for sym in (a, LaurentSymbol({0: 1j}), 2 * a, a * -1):
            assert not sym.exponents.flags.writeable and not sym.values.flags.writeable
        with pytest.raises(ValueError):
            a.values[0] = 0


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

    def test_band_past_the_exponent_range_is_refused_before_drawing(self, monkeypatch):
        # the basis samplers build their symbols without the exponent check
        # of the constructor, so draw_coeffs makes it for every sampler
        def refuse(*args):
            raise AssertionError("drew before the range check")
        monkeypatch.setattr(np.random, "default_rng", refuse)
        for sampler in (random_symbol, random_matrix_symbol,
                        random_block_hadamard_symmetric, random_block_mixed_symmetric):
            with pytest.raises(ValueError, match=f"max_band {MAX_EXPONENT + 1} out of range"):
                sampler(0, MAX_EXPONENT + 1, 0.5)

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
        assert project_to_conditions(parse_symbol("z"), Reversal(2)) == LaurentSymbol()

    def test_even_symmetrization(self):
        sym = parse_symbol("z^2 + 3 z^-2")
        out = project_to_conditions(sym, Transposition(2, 0, 1))
        assert out.coeffs == {2: 2 + 0j, -2: 2 + 0j}

    def test_zero_symbol(self):
        assert project_to_conditions(LaurentSymbol(), Reversal(3)) == LaurentSymbol()

    @pytest.mark.parametrize("spec", [Reversal(1), Reversal(3), Transposition(4, 0, 2),
                                      MuLambda(1.0, 1j)])
    def test_idempotent(self, spec):
        sym = random_symbol(23, 9, 0.7)
        once = project_to_conditions(sym, spec)
        assert project_to_conditions(once, spec) == once

    def test_mu_lambda_reflection(self):
        out = project_to_conditions(parse_symbol("z - z^-1"), MuLambda(1.0, -1.0))
        assert out.coeffs.get(-1, 0j) == out.coeffs.get(1, 0j) * (-1)

    def test_general_projects_like_the_reversal_it_equals(self):
        # sigma = (2, 1, 0) is the reversal of blocks of three
        sym = random_symbol(8, 9, 0.7)
        assert project_to_conditions(sym, GeneralPermutation(3, (2, 1, 0))) == \
            project_to_conditions(sym, Reversal(3))

    def test_block_family_rejected(self):
        with pytest.raises(ValueError):
            project_to_conditions(parse_symbol("z"), BlockHadamard())


class TestSerialization:
    def test_text_round_trip(self):
        sym = random_symbol(3, 6, 0.8)
        assert parse_symbol(to_text(sym)) == sym

    def test_zero_text(self):
        assert to_text(LaurentSymbol()) == "0"
        assert to_text(parse_symbol("0")) == "0"

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

    def test_pickle_round_trip(self):
        # a -0.0 part, the empty symbol, and both as block entries: what
        # crosses a process boundary comes back equal, bit for bit, and frozen
        signed = LaurentSymbol.from_json({"-3": [1.5, -0.0], "2": [-0.0, 2.0]})
        scalars = [LaurentSymbol({1: 2j}), signed, LaurentSymbol(), random_symbol(4, 6, 0.7)]
        for sym in scalars:
            back = pickle.loads(pickle.dumps(sym))
            assert type(back) is LaurentSymbol and back == sym
            assert back.exponents.dtype == np.int64 and back.values.dtype == complex
            assert back.values.view(np.uint64).tolist() == sym.values.view(np.uint64).tolist()
            assert back.exponents.tolist() == sym.exponents.tolist()
            assert not back.exponents.flags.writeable and not back.values.flags.writeable
        for msym in (MatrixSymbol(*scalars), random_matrix_symbol(9, 4, 0.6)):
            back = pickle.loads(pickle.dumps(msym))
            assert back == msym and json.dumps(back.to_json()) == json.dumps(msym.to_json())
            assert all(not entry.values.flags.writeable for entry in back.entries)


class TestMatrixSymbol:
    def test_bandwidth_is_max(self):
        m = MatrixSymbol(LaurentSymbol({5: 1}), LaurentSymbol(),
                         LaurentSymbol({-2: 1}), LaurentSymbol())
        assert m.bandwidth == 5

    @staticmethod
    def _entries():
        return (LaurentSymbol({5: 1}), LaurentSymbol(), LaurentSymbol({-2: 1j}), LaurentSymbol())

    def test_bandwidth_is_read_from_the_entries_once(self, monkeypatch):
        entries, reads, bandwidth = self._entries(), [], LaurentSymbol.bandwidth
        monkeypatch.setattr(LaurentSymbol, "bandwidth",
                            property(lambda e: reads.append(e) or bandwidth.fget(e)))
        m = MatrixSymbol(*entries)
        assert len(reads) == 4
        assert [m.bandwidth for _ in range(3)] == [5] * 3 and len(reads) == 4

    def test_equality_and_hash_read_the_entries_alone(self):
        m, same = MatrixSymbol(*self._entries()), MatrixSymbol(*self._entries())
        assert m == same and hash(m) == hash(same)
        assert m != MatrixSymbol(LaurentSymbol({5: 2}), *self._entries()[1:])

    def test_repr_names_the_four_entries(self):
        m = MatrixSymbol(*self._entries())
        assert repr(m) == ("MatrixSymbol(phi1=LaurentSymbol({5: (1+0j)}), phi2=LaurentSymbol({}), "
                           "phi3=LaurentSymbol({-2: 1j}), phi4=LaurentSymbol({}))")

    def test_pickle_keeps_the_bandwidth(self):
        m = MatrixSymbol(*self._entries())
        back = pickle.loads(pickle.dumps(m))
        assert back == m and back.bandwidth == 5

    def test_replace_recomputes_the_bandwidth(self):
        m = MatrixSymbol(*self._entries())
        assert dataclasses.replace(m, phi4=LaurentSymbol({-9: 1})).bandwidth == 9
        assert dataclasses.replace(m, phi1=LaurentSymbol()).bandwidth == 2
        with pytest.raises(ValueError, match="bandwidth"):
            dataclasses.replace(m, bandwidth=1)


_coeff = st.complex_numbers(min_magnitude=0, max_magnitude=1e6,
                            allow_nan=False, allow_infinity=False)
_coeffs = st.dictionaries(st.integers(min_value=-9, max_value=9), _coeff, max_size=12)


@settings(max_examples=120, deadline=None)
@given(_coeffs)
def test_text_round_trip_bit_exact(coeffs):
    sym = LaurentSymbol(coeffs)
    assert parse_symbol(to_text(sym)) == sym


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


def _reference_from_json(obj):
    """The per-pair decoder that the array codec replaced, kept as its
    reference: each key read back through ``int`` and ``str``, each pair
    through ``complex_from_pair``, then the exponent range checked and exact
    zeros dropped, entry by entry."""
    if not isinstance(obj, Mapping):
        raise ValueError("symbol JSON must be an object mapping exponents to [re, im]")
    coeffs = {}
    for key, pair in obj.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            k = None
        if str(k) != key:
            raise ValueError(f"symbol JSON key {key!r} is not a canonical decimal integer")
        coeffs[k] = complex_from_pair(pair)
    out = {}
    for k, c in coeffs.items():
        k = int(k)  # the key "None" got this far, and raised TypeError here
        if abs(k) > MAX_EXPONENT:
            raise ValueError(f"exponent {k} out of range")
        if c != 0:
            out[k] = c
    return dict(sorted(out.items()))


def _reference_matrix_from_json(obj):
    if not isinstance(obj, Mapping):
        raise ValueError("matrix symbol JSON must be an object with keys phi1..phi4")
    if set(obj) - {"phi1", "phi2", "phi3", "phi4"}:
        raise ValueError("matrix symbol JSON has an unknown entry")
    try:
        return [_reference_from_json(obj[f"phi{i}"]) for i in (1, 2, 3, 4)]
    except KeyError as exc:
        raise ValueError(f"matrix symbol JSON missing entry {exc.args[0]!r}") from exc


_VALID_KEYS = st.integers(-MAX_EXPONENT, MAX_EXPONENT).map(str)
_KEYS = st.one_of(
    _VALID_KEYS,
    st.sampled_from([MAX_EXPONENT + 1, -MAX_EXPONENT - 1, MAX_EXPONENT, -MAX_EXPONENT]).map(str),
    st.integers(-3, 3),  # an int, not a string
    st.sampled_from(["+1", "01", "-0", " 1", "1 ", "1_0", "١", "1e3", "None", "", "0x1"]),
    st.from_regex(r"-?[1-9][0-9]{29}", fullmatch=True),
    st.text(max_size=3),
)
_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-(2**60), 2**60), st.sampled_from([0, -0.0]))
_NUMBERS = st.one_of(
    st.floats(),  # NaN, +-inf and -0.0 among them
    st.integers(),
    st.integers(2**1022, 2**1025).map(lambda n: n * (-1) ** n),  # about the float range
    st.sampled_from([0, -0.0, 10**400, -(10**400), float("nan"), float("inf"), -float("inf")]),
)
_PARTS = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=2),
                   st.lists(_FINITE, max_size=2))
_VALID_PAIRS = st.lists(_FINITE, min_size=2, max_size=2)
_VALUES = st.one_of(
    st.lists(_NUMBERS, min_size=2, max_size=2),
    st.one_of(st.lists(_PARTS, min_size=2, max_size=2), st.tuples(_PARTS, _PARTS)),
    st.lists(_FINITE, max_size=3).filter(lambda pair: len(pair) != 2),
    st.dictionaries(_FINITE, _FINITE, min_size=2, max_size=2),
    st.one_of(st.booleans(), st.none(), st.text(max_size=3), _NUMBERS),
)
_VALID_ENTRIES = st.dictionaries(_VALID_KEYS, _VALID_PAIRS, max_size=6)


def _merged(entries: dict, more: dict) -> dict:
    return {**entries, **more}


_ENTRIES = st.one_of(
    _VALID_ENTRIES,
    st.builds(_merged, _VALID_ENTRIES,
              st.dictionaries(_KEYS, _VALID_PAIRS, min_size=1, max_size=2)),
    st.builds(_merged, _VALID_ENTRIES,
              st.dictionaries(_VALID_KEYS, _VALUES, min_size=1, max_size=2)),
    st.dictionaries(_KEYS, _VALUES, max_size=4),
    st.one_of(st.lists(_VALID_PAIRS, max_size=2), st.none(), st.text(max_size=2)),  # no object
)


def _decoded(decode, obj):
    """``decode(obj)``, or ``"rejected"`` when it raises; the reference's
    ``TypeError`` counts as a rejection (the program raises ``ValueError``)."""
    try:
        return decode(obj)
    except (TypeError, ValueError):
        return "rejected"


def _assert_matches(sym: LaurentSymbol, reference: dict):
    assert sym.exponents.tolist() == list(reference)
    assert [repr(v) for v in sym.values.tolist()] == [repr(v) for v in reference.values()]
    assert json.dumps(sym.to_json()) == json.dumps(
        {str(k): [v.real, v.imag] for k, v in reference.items()})


@settings(max_examples=1000, deadline=None)
@given(_ENTRIES)
def test_json_decoder_matches_the_per_pair_reference(obj):
    reference = _decoded(_reference_from_json, obj)
    if reference == "rejected":
        with pytest.raises(ValueError):
            LaurentSymbol.from_json(obj)
    else:
        _assert_matches(LaurentSymbol.from_json(obj), reference)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.fixed_dictionaries({f"phi{i}": _ENTRIES for i in (1, 2, 3, 4)}),
    st.fixed_dictionaries({f"phi{i}": _VALID_ENTRIES for i in (1, 2, 3, 4)},
                          optional={"phi5": _VALID_ENTRIES, "phi0": _VALID_ENTRIES}),
    st.dictionaries(st.sampled_from(["phi1", "phi2", "phi3", "phi4", "phi5"]), _VALID_ENTRIES),
    st.lists(_VALID_ENTRIES, max_size=4)))
def test_matrix_json_decoder_matches_the_per_pair_reference(obj):
    reference = _decoded(_reference_matrix_from_json, obj)
    if reference == "rejected":
        with pytest.raises(ValueError):
            MatrixSymbol.from_json(obj)
    else:
        for sym, entry in zip(MatrixSymbol.from_json(obj).entries, reference, strict=True):
            _assert_matches(sym, entry)


# --- explicit decoder cases, each with the message of the per-key decoder ----

_FULL = {"-1": [0.5, -0.25], "0": [1, 0], "3": [0.0, 2.0]}
_FULL_JSON = {"-1": [0.5, -0.25], "0": [1.0, 0.0], "3": [0.0, 2.0]}

REJECTED = [
    # a comma inside a key: joined with the others, it reads as two keys
    (LaurentSymbol, {"1,2": [1, 0]}, "symbol JSON key '1,2' is not a canonical decimal integer"),
    (LaurentSymbol, {"0": [1, 0], "1,2": [1, 0]},
     "symbol JSON key '1,2' is not a canonical decimal integer"),
    # canonical, but past int64
    (LaurentSymbol, {"123456789012345678901234567890": [1, 0]},
     "exponent 123456789012345678901234567890 out of range"),
    (LaurentSymbol, {"-123456789012345678901234567890": [1, 0], "1": [1, 0]},
     "exponent -123456789012345678901234567890 out of range"),
    # of two keys of one modulus past the range, the first is named
    (LaurentSymbol, {"1000002": [1, 0], "-1000002": [1, 0]}, "exponent 1000002 out of range"),
    (LaurentSymbol, {"9999999": [1, 0]}, "exponent 9999999 out of range"),
    (MatrixSymbol, {"phi1": _FULL, "phi2": _FULL, "phi3": {"0": [1, 0], "1000001": [1, 0]},
                    "phi4": _FULL}, "exponent 1000001 out of range"),
    (MatrixSymbol, {"phi1": _FULL, "phi2": _FULL, "phi3": {"1000001": [1, 0]}},
     "exponent 1000001 out of range"),
    # keys that are not str, from Python callers
    (LaurentSymbol, {2: [1, 0]}, "symbol JSON key 2 is not a canonical decimal integer"),
    (LaurentSymbol, {"1": [1, 0], 2: [1, 0]},
     "symbol JSON key 2 is not a canonical decimal integer"),
    (LaurentSymbol, {None: [1, 0]}, "symbol JSON key None is not a canonical decimal integer"),
    (LaurentSymbol, {1.0: [1, 0]}, "symbol JSON key 1.0 is not a canonical decimal integer"),
    (LaurentSymbol, {(1,): [1, 0]}, "symbol JSON key (1,) is not a canonical decimal integer"),
    (MatrixSymbol, {"phi1": {3: [1, 0]}, "phi2": {}, "phi3": {}, "phi4": {}},
     "symbol JSON key 3 is not a canonical decimal integer"),
    # entries are read in order, and a missing one fails in its turn
    (MatrixSymbol, {"phi1": {"1": [1]}, "phi3": {}, "phi4": {}},
     "expected a finite [re, im] pair of JSON numbers, got [1]"),
    (MatrixSymbol, {"phi1": {}, "phi3": {}, "phi4": {}},
     "matrix symbol JSON missing entry 'phi2'"),
    (MatrixSymbol, {"phi1": {}, "phi2": [], "phi3": {}, "phi4": {}},
     "symbol JSON must be an object mapping exponents to [re, im]"),
    (MatrixSymbol, {"phi4": {"x": [1, 0]}, "phi1": {"2": [1, True]}, "phi2": {}, "phi3": {}},
     "expected a finite [re, im] pair of JSON numbers, got [1, True]"),
    # within an entry every key comes before any pair, and every pair before the range
    (LaurentSymbol, {"123456789012345678901234567890": [1, 0], "2": [1]},
     "expected a finite [re, im] pair of JSON numbers, got [1]"),
    (LaurentSymbol, {"1": [1], "x": [1, 0]}, "symbol JSON key 'x' is not a canonical decimal integer"),
    # each entry is finished before the next one starts
    (MatrixSymbol, {"phi1": {"1000001": [1, 0]}, "phi2": {"x": [1, 0]}, "phi3": {}, "phi4": {}},
     "exponent 1000001 out of range"),
    (MatrixSymbol, {"phi1": {"1000001": [1, 0]}, "phi3": {}, "phi4": {}},
     "exponent 1000001 out of range"),
    (MatrixSymbol, {"phi1": {}, "phi2": {"5": [1, 0], 7: [1]}, "phi3": {}, "phi4": {}},
     "symbol JSON key 7 is not a canonical decimal integer"),
]


@pytest.mark.parametrize("cls, obj, message", REJECTED)
def test_json_rejection_messages(cls, obj, message):
    with pytest.raises(ValueError) as info:
        cls.from_json(obj)
    assert str(info.value) == message


class _Key(str):
    pass


class _Pair(list):
    pass


ACCEPTED = [
    # empty entries beside full ones
    (MatrixSymbol, {"phi1": {}, "phi2": _FULL, "phi3": {}, "phi4": {"7": [1, 0]}},
     {"phi1": {}, "phi2": _FULL_JSON, "phi3": {}, "phi4": {"7": [1.0, 0.0]}}),
    (MatrixSymbol, {f"phi{i}": {} for i in (1, 2, 3, 4)}, {f"phi{i}": {} for i in (1, 2, 3, 4)}),
    (LaurentSymbol, {}, {}),
    # a key duplicated in the file text: json.loads keeps the last
    (LaurentSymbol, json.loads('{"1": [1, 0], "2": [3, 4], "1": [2, 0]}'),
     {"1": [2.0, 0.0], "2": [3.0, 4.0]}),
    (MatrixSymbol, json.loads('{"phi1": {"1": [1, 0]}, "phi2": {}, "phi3": {}, "phi4": {},'
                              ' "phi1": {"-1": [5, 0]}}'),
     {"phi1": {"-1": [5.0, 0.0]}, "phi2": {}, "phi3": {}, "phi4": {}}),
    # the range's ends, a tuple pair and an int past 2**53
    (LaurentSymbol, {"1000000": (1, 2), "-1000000": [2**60 + 1, -0.0]},
     {"-1000000": [float(2**60), -0.0], "1000000": [1.0, 2.0]}),
    # from Python callers: a mapping that is not a dict, subclasses of str and list
    (LaurentSymbol, MappingProxyType({"2": [1, 0], "-1": [0, 1]}),
     {"-1": [0.0, 1.0], "2": [1.0, 0.0]}),
    (MatrixSymbol, MappingProxyType({"phi1": MappingProxyType({"1": [1, 0]}), "phi2": {},
                                     "phi3": {_Key("-3"): _Pair([2, 0.5])}, "phi4": {}}),
     {"phi1": {"1": [1.0, 0.0]}, "phi2": {}, "phi3": {"-3": [2.0, 0.5]}, "phi4": {}}),
]


@pytest.mark.parametrize("cls, obj, expected", ACCEPTED)
def test_json_accepted_edge_cases(cls, obj, expected):
    assert json.dumps(cls.from_json(obj).to_json()) == json.dumps(expected)


def test_decoded_arrays_are_frozen_separate_and_pickle():
    obj = random_matrix_symbol(3, 12, 0.7).to_json()
    obj["phi3"] = {}
    msym = MatrixSymbol.from_json(obj)
    arrays = [array for entry in msym.entries for array in (entry.exponents, entry.values)]
    assert all(not array.flags.writeable for array in arrays)
    # no entry's arrays share memory with another entry's, writable or not
    for i, a in enumerate(arrays):
        for b in arrays[i + 2 - i % 2:]:
            assert not np.shares_memory(a, b)
    back = pickle.loads(pickle.dumps(msym))
    assert back == msym and json.dumps(back.to_json()) == json.dumps(obj)
    assert all(not entry.values.flags.writeable for entry in back.entries)
    scalar = LaurentSymbol.from_json(obj["phi1"])
    assert not scalar.exponents.flags.writeable and not scalar.values.flags.writeable
    assert pickle.loads(pickle.dumps(scalar)) == scalar
