"""Laurent-polynomial symbols with finite Fourier support.

A symbol is a finite sum ``sum_k c_k z^k`` with integer exponents of either
sign, stored as two read-only arrays: the exponents ``k`` (``int64``,
ascending) and their coefficients ``c_k`` (``complex128``).  The canonical
form never stores an exactly-zero coefficient, so support and bandwidth are
well defined; a ``-0.0`` part is kept.  All instances are immutable after
construction.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping

import numpy as np

MAX_EXPONENT = 10**6


class SymbolSyntaxError(ValueError):
    """Raised by :func:`parse_symbol`; ``offset`` counts characters, not bytes."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


def complex_to_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def complex_from_pair(pair) -> complex:
    """Decode a JSON ``[re, im]`` pair of JSON numbers (``bool`` is not one);
    anything else, or a value that is not finite, raises ``ValueError``."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and \
            type(pair[0]) in (int, float) and type(pair[1]) in (int, float):
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except OverflowError:  # an int past float range
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise ValueError(f"expected a finite [re, im] pair of JSON numbers, got {pair!r}")


def _exponents(keys: list[int]) -> np.ndarray:
    if keys and max(-min(keys), max(keys)) > MAX_EXPONENT:
        raise ValueError(f"exponent {max(keys, key=abs)} out of range")
    return np.fromiter(keys, np.int64, len(keys))


# canonical decimal keys joined by commas, of at most seven digits, so that
# int64 holds each; a longer key is out of range or not canonical.  Every
# token ends at a comma or at the end, so a failing match is linear too
_JOINED_KEYS = re.compile(r"(?:0|-?[1-9][0-9]{0,6})(?:,(?:0|-?[1-9][0-9]{0,6}))*")


def _decode(obj) -> tuple[np.ndarray, np.ndarray]:
    """One JSON entry's ascending exponents and values, read in whole-array
    passes: the object, every key (one join and match), every ``[re, im]`` pair
    (one flatten, type check and conversion), the exponent range.  Only a pass
    that fails reads its input one by one, to name its first fault."""
    if not isinstance(obj, Mapping):
        raise ValueError("symbol JSON must be an object mapping exponents to [re, im]")
    keys, pairs = list(obj), list(obj.values())
    try:
        joined = ",".join(keys)
    except TypeError:  # a key that is not a str
        joined = ""
    # a key that holds a comma adds one to the count
    if keys and joined.count(",") == len(keys) - 1 and _JOINED_KEYS.fullmatch(joined):
        exponents = np.fromstring(joined, np.int64, sep=",")
    else:  # no key, a bad one, or a canonical one past int64 that the range check names
        for key in keys:
            try:
                canonical = str(int(key)) == key
            except (TypeError, ValueError):
                canonical = False
            if not canonical:
                raise ValueError(f"symbol JSON key {key!r} is not a canonical decimal integer")
        exponents = None
    shaped = all(issubclass(t, (list, tuple)) for t in set(map(type, pairs))) and \
        set(map(len, pairs)) <= {2}
    flat = list(chain.from_iterable(pairs)) if shaped else []
    try:
        parts = np.array(flat, float) if shaped and set(map(type, flat)) <= {int, float} else None
    except OverflowError:  # an int past float range
        parts = None
    if parts is None or not np.isfinite(parts).all():
        parts = np.array(list(map(complex_from_pair, pairs)), complex).view(float)
    if exponents is None or np.abs(exponents).max() > MAX_EXPONENT:
        exponents = _exponents(list(map(int, keys)))
    order = exponents.argsort()
    return exponents.take(order), parts.view(complex).take(order)


class LaurentSymbol:
    """Immutable finitely supported map ``k -> coefficient``, held as the
    read-only arrays ``exponents`` (ascending) and ``values``."""

    __slots__ = ("exponents", "values")

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        coeffs = coeffs or {}
        keys = sorted(coeffs)
        self._set(_exponents(keys), np.fromiter(map(coeffs.__getitem__, keys), complex, len(keys)))

    def _set(self, exponents: np.ndarray, values: np.ndarray) -> "LaurentSymbol":
        """Freeze and hold ascending distinct ``exponents``, ``values`` less exact zeros."""
        if np.count_nonzero(values) < values.size:
            keep = values != 0
            exponents, values = exponents[keep], values[keep]
        for name, array in (("exponents", exponents), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        return self

    @classmethod
    def _of(cls, exponents: np.ndarray, values: np.ndarray) -> "LaurentSymbol":
        return object.__new__(cls)._set(exponents, values)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSymbol is immutable")

    def __reduce__(self):
        # unpickling must not set the slots through __setattr__
        return LaurentSymbol._of, (self.exponents, self.values)

    @property
    def entries(self) -> tuple[LaurentSymbol]:
        """The symbol as its one entry, as :attr:`MatrixSymbol.entries` lists four."""
        return (self,)

    @property
    def coeffs(self) -> dict[int, complex]:
        return dict(self.items())

    @property
    def bandwidth(self) -> int:
        return int(max(-self.exponents[0], self.exponents[-1])) if self.exponents.size else 0

    def items(self) -> Iterator[tuple[int, complex]]:
        return zip(self.exponents.tolist(), self.values.tolist())

    def __mul__(self, scalar: complex) -> "LaurentSymbol":
        # Python's complex product: numpy's may round differently
        values = np.array([v * scalar for v in self.values.tolist()], dtype=complex)
        return LaurentSymbol._of(self.exponents, values)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"LaurentSymbol({self.coeffs!r})"

    def to_json(self) -> dict[str, list[float]]:
        return dict(zip(map(str, self.exponents.tolist()),
                        self.values.view(float).reshape(-1, 2).tolist()))

    @classmethod
    def from_json(cls, obj: Mapping[str, Iterable[float]]) -> "LaurentSymbol":
        """Read the form :meth:`to_json` writes: keys are decimal integers without
        sign ``+``, spaces, ``_`` or leading zeros, and parts are JSON numbers."""
        return cls._of(*_decode(obj))


@dataclass(frozen=True, slots=True)
class MatrixSymbol:
    """A 2x2 array of Laurent symbols, row-major ``[[phi1, phi2], [phi3, phi4]]``."""

    phi1: LaurentSymbol
    phi2: LaurentSymbol
    phi3: LaurentSymbol
    phi4: LaurentSymbol
    # the largest entry's, set once here: equality, repr and replace read the entries alone
    bandwidth: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not all(isinstance(e, LaurentSymbol) for e in self.entries):
            raise TypeError("MatrixSymbol entries must be LaurentSymbol")
        object.__setattr__(self, "bandwidth", max(e.bandwidth for e in self.entries))

    @property
    def entries(self) -> tuple[LaurentSymbol, ...]:
        return self.phi1, self.phi2, self.phi3, self.phi4

    def to_json(self) -> dict[str, dict[str, list[float]]]:
        return {f"phi{i}": e.to_json() for i, e in enumerate(self.entries, start=1)}

    @classmethod
    def from_json(cls, obj: Mapping[str, Mapping]) -> "MatrixSymbol":
        if not isinstance(obj, Mapping):
            raise ValueError("matrix symbol JSON must be an object with keys phi1..phi4")
        keys = [f"phi{i}" for i in (1, 2, 3, 4)]
        unknown = [key for key in obj if key not in keys]
        if unknown:
            raise ValueError(f"matrix symbol JSON has unknown entry {unknown[0]!r}")
        entries = []
        for key in keys:  # in order: an entry's faults come before a later one's absence
            if key not in obj:
                raise ValueError(f"matrix symbol JSON missing entry {key!r}")
            entries.append(LaurentSymbol._of(*_decode(obj[key])))
        return cls(*entries)


# --- text parser ------------------------------------------------------------

# unsigned, ASCII digits only (``\d`` admits other scripts); cli.py reads it too
NUMBER_PATTERN = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_TOKEN_RE = re.compile(rf"\s+|{NUMBER_PATTERN}|[ijz+\-^*()−]|(?P<bad>.)")
_IMAG = ("i", "j")
_NON_NUMBERS = "ijz+-^*()"  # a token is a number unless it is in here (so is the end marker "")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Non-blank ``(token, offset)`` pairs, ``−`` read as ``-``, then ``("", len(text))``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m["bad"]:
            raise SymbolSyntaxError(f"unexpected character {m['bad']!r}", m.start())
        if not m.group().isspace():
            tokens.append((m.group().replace("−", "-"), m.start()))
    return tokens + [("", len(text))]


def parse_symbol(text: str) -> LaurentSymbol:
    """Parse a sum of terms ``c z^k``.

    Coefficients may be written ``a``, ``bi``, ``a+bi`` or ``(a+bi)``, joined
    to ``z`` by an optional ``*``; a bare ``z^k`` means coefficient 1 and a
    missing exponent means ``z^0``.  Terms with the same exponent are summed,
    so cancellations drop out of the canonical form.  Syntax faults raise
    :class:`SymbolSyntaxError` with the character offset of the offending token.
    """
    tokens = _tokenize(text)
    pos = 0

    def peek(ahead: int = 0) -> tuple[str, int]:
        return tokens[min(pos + ahead, len(tokens) - 1)]

    def take(*allowed: str) -> str | None:
        """Consume the next token and return it if it is one of ``allowed``."""
        nonlocal pos
        token = peek()[0]
        if token not in allowed:
            return None
        pos += 1
        return token

    def fail(message: str):
        raise SymbolSyntaxError(message, peek()[1])

    def sign() -> float:
        return -1.0 if take("+", "-") == "-" else 1.0

    def part(sgn: float) -> complex:
        """One signed real or imaginary part: ``a``, ``bi`` or ``i``."""
        if take(*_IMAG):
            return complex(0.0, sgn)
        if peek()[0] in _NON_NUMBERS:
            fail("expected a number or 'i'")
        value = sgn * float(take(peek()[0]))
        return complex(0.0, value) if take(*_IMAG) else complex(value, 0.0)

    def coefficient(in_parens: bool) -> complex:
        value = part(sign() if in_parens else 1.0)
        # Unparenthesised a+bi is folded into one coefficient only when the
        # lookahead really is an imaginary part; otherwise the sign belongs
        # to the next term of the sum.
        follows_imag = peek(1)[0] in _IMAG or (
            peek(1)[0] not in _NON_NUMBERS and peek(2)[0] in _IMAG)
        if peek()[0] in ("+", "-") and (in_parens or follows_imag):
            value += part(sign())
        return value

    coeffs: dict[int, complex] = {}
    if not peek()[0]:
        fail("empty symbol text")
    term_sign = sign()
    while True:
        start = peek()[1]
        if peek()[0] == "z":
            coeff = complex(1.0)
        elif take("("):
            coeff = coefficient(in_parens=True)
            if not take(")"):
                fail("expected ')'")
        elif peek()[0] in _IMAG or peek()[0] not in _NON_NUMBERS:
            coeff = coefficient(in_parens=False)
        else:
            fail("expected a coefficient or 'z'")
        if take("*") and peek()[0] != "z":
            fail("expected 'z' after '*'")
        exponent = 0
        if take("z"):
            exponent = 1
            if take("^"):
                negative = take("+", "-") == "-"
                digits = peek()[0]
                if digits in _NON_NUMBERS:
                    fail("expected an integer exponent")
                if not digits.isdecimal():
                    fail("exponent must be an integer")
                try:
                    exponent = -int(digits) if negative else int(digits)
                except ValueError:  # more digits than int() reads from text
                    fail("exponent out of range")
                if abs(exponent) > MAX_EXPONENT:
                    fail(f"exponent {exponent} out of range")
                take(digits)
        value = coeffs.get(exponent, 0j) + term_sign * coeff
        if not cmath.isfinite(value):
            raise SymbolSyntaxError("coefficient is not finite", start)
        coeffs[exponent] = value
        if not peek()[0]:
            return LaurentSymbol(coeffs)
        if peek()[0] not in ("+", "-"):
            fail("expected '+' or '-' between terms")
        term_sign = sign()


# --- random generation -------------------------------------------------------


def check_draw(max_band: int, density: float):
    """Raise ``ValueError`` unless ``0 <= max_band <= MAX_EXPONENT`` and ``0 < density <= 1``."""
    if not 0 <= max_band <= MAX_EXPONENT:
        raise ValueError(f"max_band {max_band} out of range [0, {MAX_EXPONENT}]")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")


def draw_coeffs(seed: int, max_band: int, density: float, *ranges: range) -> list[dict]:
    """One coefficient dict per index range from one stream of doubles, drawn in
    blocks and read as per-index ``rng.random() < density`` and, for a kept index,
    ``rng.uniform(-1.0, 1.0, size=2)`` calls would read it (``-1.0 + 2.0 * u``)."""
    check_draw(max_band, density)
    rng, size = np.random.default_rng(seed), min(3 * sum(map(len, ranges)), 1 << 16)
    draws = chain.from_iterable(iter(lambda: rng.random(size).tolist(), None))
    return [{k: complex(-1.0 + 2.0 * next(draws), -1.0 + 2.0 * next(draws))
             for k in indices if next(draws) < density}
            for indices in ranges]


def random_symbol(seed: int, max_band: int, density: float = 1.0) -> LaurentSymbol:
    """Deterministic random symbol with support inside ``[-max_band, max_band]``.

    Each index is present independently with probability ``density``; present
    coefficients have real and imaginary parts uniform in [-1, 1].
    """
    return LaurentSymbol(draw_coeffs(seed, max_band, density, range(-max_band, max_band + 1))[0])


def random_matrix_symbol(seed: int, max_band: int, density: float = 1.0) -> MatrixSymbol:
    """Four independent random entries drawn from a single seeded stream."""
    entries = draw_coeffs(seed, max_band, density, *[range(-max_band, max_band + 1)] * 4)
    return MatrixSymbol(*map(LaurentSymbol, entries))


# --- projection onto characterized condition sets ----------------------------


def project_to_conditions(sym: LaurentSymbol, spec) -> LaurentSymbol:
    """Project a symbol onto the exact solution set of a scalar family's
    coefficient conditions, within its own bandwidth ``B``.

    For a residue permutation of mirror period ``d`` (``spec.mirror_period``),
    each ``c_k`` with ``d | k`` and ``|k| <= B`` becomes ``(c_k + c_-k) / 2``
    and every other coefficient is zeroed.  For the twist family,
    negative-index coefficients are overwritten by ``c_n * lambda**n``.  The
    projection is idempotent and its outputs satisfy the family's table
    exactly.
    """
    if spec.is_block:
        raise ValueError(f"projection needs a scalar family, not {spec!r}")
    if spec.sigma is None:  # the twist family
        out = {k: v for k, v in sym.items() if k >= 0}
        out.update({-k: v * spec.lam**k for k, v in sym.items() if k > 0})
        return LaurentSymbol(out)
    band = sym.bandwidth
    grid = np.zeros(2 * band + 1, dtype=complex)
    grid[sym.exponents + band] = sym.values
    k = np.arange(0, band + 1, spec.mirror_period)
    # Python's complex division: numpy's may round differently
    mean = [v / 2 for v in (grid[band + k] + grid[band - k]).tolist()]
    return LaurentSymbol({**dict(zip((-k).tolist(), mean)), **dict(zip(k.tolist(), mean))})
