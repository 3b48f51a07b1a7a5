"""Laurent-polynomial symbols with finite Fourier support.

A symbol is a finite sum ``sum_k c_k z^k`` with integer exponents of either
sign, stored sparsely as ``{k: c_k}``.  The canonical form never stores an
exactly-zero coefficient, so support and bandwidth are well defined.  All
instances are immutable after construction.
"""

from __future__ import annotations

import cmath
import re
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


def _canonical(coeffs: Mapping[int, complex]) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for k, v in coeffs.items():
        k = int(k)
        if abs(k) > MAX_EXPONENT:
            raise ValueError(f"exponent {k} out of range")
        c = complex(v)
        if c != 0:
            out[k] = c
    return out


class LaurentSymbol:
    """Immutable finitely supported map ``k -> coefficient``."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        object.__setattr__(self, "_coeffs", _canonical(coeffs or {}))

    def __setattr__(self, name, value):
        raise AttributeError("LaurentSymbol is immutable")

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0j)

    @property
    def coeffs(self) -> dict[int, complex]:
        return dict(self._coeffs)

    @property
    def bandwidth(self) -> int:
        if not self._coeffs:
            return 0
        return max(abs(k) for k in self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(sorted(self._coeffs.items()))

    def __add__(self, other: "LaurentSymbol") -> "LaurentSymbol":
        out = dict(self._coeffs)
        for k, v in other._coeffs.items():
            out[k] = out.get(k, 0j) + v
        return LaurentSymbol(out)

    def __sub__(self, other: "LaurentSymbol") -> "LaurentSymbol":
        return self + (-other)

    def __neg__(self) -> "LaurentSymbol":
        return LaurentSymbol({k: -v for k, v in self._coeffs.items()})

    def __mul__(self, scalar: complex) -> "LaurentSymbol":
        return LaurentSymbol({k: v * scalar for k, v in self._coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSymbol):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._coeffs.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:
        return f"LaurentSymbol({self._coeffs!r})"

    def to_text(self) -> str:
        """Exact textual form; :func:`parse_symbol` round-trips it."""
        if not self._coeffs:
            return "0"
        parts = []
        for k in sorted(self._coeffs):
            c = self._coeffs[k]
            sign = "+" if c.imag >= 0 else "-"
            coeff = f"({c.real!r}{sign}{abs(c.imag)!r}i)"
            parts.append(coeff if k == 0 else f"{coeff} z^{k}")
        return " + ".join(parts)

    def to_json(self) -> dict[str, list[float]]:
        return {str(k): complex_to_pair(self._coeffs[k]) for k in sorted(self._coeffs)}

    @classmethod
    def from_json(cls, obj: Mapping[str, Iterable[float]]) -> "LaurentSymbol":
        """Read the form :meth:`to_json` writes: keys are decimal integers without
        sign ``+``, spaces, ``_`` or leading zeros, and parts are JSON numbers."""
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
        return cls(coeffs)


class MatrixSymbol:
    """A 2x2 array of Laurent symbols, row-major ``[[phi1, phi2], [phi3, phi4]]``."""

    __slots__ = ("_entries",)

    def __init__(self, phi1: LaurentSymbol, phi2: LaurentSymbol,
                 phi3: LaurentSymbol, phi4: LaurentSymbol):
        entries = (phi1, phi2, phi3, phi4)
        if not all(isinstance(e, LaurentSymbol) for e in entries):
            raise TypeError("MatrixSymbol entries must be LaurentSymbol")
        object.__setattr__(self, "_entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("MatrixSymbol is immutable")

    @property
    def entries(self) -> tuple[LaurentSymbol, ...]:
        return self._entries

    @property
    def bandwidth(self) -> int:
        return max(e.bandwidth for e in self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixSymbol):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __repr__(self) -> str:
        return f"MatrixSymbol{self._entries!r}"

    def to_json(self) -> dict[str, dict[str, list[float]]]:
        return {f"phi{i}": e.to_json() for i, e in enumerate(self._entries, start=1)}

    @classmethod
    def from_json(cls, obj: Mapping[str, Mapping]) -> "MatrixSymbol":
        if not isinstance(obj, Mapping):
            raise ValueError("matrix symbol JSON must be an object with keys phi1..phi4")
        try:
            parts = [LaurentSymbol.from_json(obj[f"phi{i}"]) for i in (1, 2, 3, 4)]
        except KeyError as exc:
            raise ValueError(f"matrix symbol JSON missing entry {exc.args[0]!r}") from exc
        return cls(*parts)


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


def draw_coeffs(seed: int, max_band: int, density: float, *ranges: range) -> list[dict]:
    """One coefficient dict per index range from one stream of doubles, drawn in
    blocks and read as per-index ``rng.random() < density`` and, for a kept index,
    ``rng.uniform(-1.0, 1.0, size=2)`` calls would read it (``-1.0 + 2.0 * u``)."""
    if max_band < 0:
        raise ValueError("max_band must be >= 0")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
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
    """Project a symbol onto the exact solution set of a family's
    coefficient characterization.

    Supported families: residue-swap specs in a characterized case, block
    reversals, and the diagonal-twist family.  For the first two the output
    keeps only indices divisible by the period, replaced by the symmetrized
    value ``(c_k + c_-k)/2``; for the twist family negative-index
    coefficients are overwritten by ``c_n * lambda**n``.  The projection is
    idempotent and its outputs pass the matching checker exactly.
    """
    from .conjugations import IFF

    if spec.is_block or spec.characterization != IFF:
        raise ValueError(
            f"projection needs a scalar family with a proven closed-form "
            f"characterization, not {spec!r}")
    if spec.sigma is None:  # the twist family
        out = {k: v for k, v in sym.items() if k >= 0}
        out.update({-k: v * spec.lam**k for k, v in sym.items() if k > 0})
        return LaurentSymbol(out)
    multiples = range(0, sym.bandwidth + 1, spec.period)
    return LaurentSymbol({s * k: (sym.coeff(k) + sym.coeff(-k)) / 2
                          for k in multiples for s in (1, -1)})
