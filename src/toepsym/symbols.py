"""Laurent-polynomial symbols with finite Fourier support.

A symbol is a finite sum ``sum_k c_k z^k`` with integer exponents of either
sign, stored sparsely as ``{k: c_k}``.  The canonical form never stores an
exactly-zero coefficient, so support and bandwidth are well defined.  All
instances are immutable after construction.
"""

from __future__ import annotations

import cmath
import re
from typing import Iterable, Iterator, Mapping

import numpy as np

MAX_EXPONENT = 10**6


class SymbolSyntaxError(ValueError):
    """Raised by :func:`parse_symbol`; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


def complex_to_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def complex_from_pair(pair) -> complex:
    """Decode a JSON ``[re, im]`` pair; anything else, or a value that is not
    finite, raises ``ValueError``."""
    if isinstance(pair, (list, tuple)) and len(pair) == 2:
        try:
            z = complex(float(pair[0]), float(pair[1]))
        except (TypeError, ValueError):
            pass
        else:
            if cmath.isfinite(z):
                return z
    raise ValueError(f"expected a finite [re, im] pair, got {pair!r}")


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

    @classmethod
    def zero(cls) -> "LaurentSymbol":
        return cls()

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0j)

    @property
    def coeffs(self) -> dict[int, complex]:
        return dict(self._coeffs)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

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

    def bar(self) -> "LaurentSymbol":
        """The symbol with ``k -> conj(c_{-k})``; the adjoint symbol of a
        Toeplitz matrix built from this one."""
        return LaurentSymbol({-k: v.conjugate() for k, v in self._coeffs.items()})

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
        if not isinstance(obj, Mapping):
            raise ValueError("symbol JSON must be an object mapping exponents to [re, im]")
        coeffs = {}
        for key, pair in obj.items():
            try:
                k = int(key)
            except ValueError as exc:
                raise ValueError(f"symbol JSON key {key!r} is not an integer") from exc
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

    @classmethod
    def zero(cls) -> "MatrixSymbol":
        z = LaurentSymbol.zero()
        return cls(z, z, z, z)

    @property
    def entries(self) -> tuple[LaurentSymbol, ...]:
        return self._entries

    def entry(self, index: int) -> LaurentSymbol:
        """Entry by 1-based row-major position (1..4)."""
        if index not in (1, 2, 3, 4):
            raise ValueError("entry index must be 1..4")
        return self._entries[index - 1]

    @property
    def bandwidth(self) -> int:
        return max(e.bandwidth for e in self._entries)

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for e in self._entries)

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

_TOKEN_RE = re.compile(
    r"""(?P<space>\s+)
      | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<imag>[ij])
      | (?P<z>z)
      | (?P<op>[+\-^*()])
    """,
    re.VERBOSE,
)

_UNICODE_MINUS = "−"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos] == _UNICODE_MINUS:
            tokens.append(("op", "-", pos))
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SymbolSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "space":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise SymbolSyntaxError(f"expected {what}", tok[2])
        return self.take()

    def fail(self, message: str):
        raise SymbolSyntaxError(message, self.peek()[2])

    def parse(self) -> dict[int, complex]:
        coeffs: dict[int, complex] = {}
        if self.peek()[0] == "end":
            self.fail("empty symbol text")
        sign = self._optional_sign()
        self._term(coeffs, sign)
        while self.peek()[0] != "end":
            tok = self.peek()
            if tok[0] == "op" and tok[1] in "+-":
                self.take()
                self._term(coeffs, 1.0 if tok[1] == "+" else -1.0)
            else:
                self.fail("expected '+' or '-' between terms")
        return coeffs

    def _optional_sign(self) -> float:
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.take()
            return 1.0 if tok[1] == "+" else -1.0
        return 1.0

    def _term(self, coeffs: dict[int, complex], sign: float):
        kind, _, start = self.peek()
        if kind == "z":
            coeff = complex(1.0)
        elif kind == "op" and self.peek()[1] == "(":
            self.take()
            coeff = self._complex_body(in_parens=True)
            tok = self.peek()
            if not (tok[0] == "op" and tok[1] == ")"):
                self.fail("expected ')'")
            self.take()
        elif kind in ("number", "imag"):
            coeff = self._complex_body(in_parens=False)
        else:
            self.fail("expected a coefficient or 'z'")
        if self.peek()[0] == "op" and self.peek()[1] == "*":
            self.take()
        exponent = 0
        if self.peek()[0] == "z":
            self.take()
            exponent = 1
            if self.peek()[0] == "op" and self.peek()[1] == "^":
                self.take()
                exponent = self._exponent()
        value = coeffs.get(exponent, 0j) + sign * coeff
        if not cmath.isfinite(value):
            raise SymbolSyntaxError("coefficient is not finite", start)
        coeffs[exponent] = value

    def _complex_body(self, in_parens: bool) -> complex:
        first_sign = self._optional_sign() if in_parens else 1.0
        real, imag = self._signed_part(first_sign)
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            # Unparenthesised a+bi is folded into one coefficient only when the
            # lookahead really is an imaginary part; otherwise the sign belongs
            # to the next term of the sum.
            follows_imag = (
                self.peek(1)[0] == "imag"
                or (self.peek(1)[0] == "number" and self.peek(2)[0] == "imag")
            )
            if in_parens or follows_imag:
                self.take()
                sgn = 1.0 if tok[1] == "+" else -1.0
                real2, imag2 = self._signed_part(sgn)
                real += real2
                imag += imag2
        return complex(real, imag)

    def _signed_part(self, sign: float) -> tuple[float, float]:
        tok = self.peek()
        if tok[0] == "imag":
            self.take()
            return 0.0, sign
        if tok[0] != "number":
            self.fail("expected a number or 'i'")
        self.take()
        value = sign * float(tok[1])
        if self.peek()[0] == "imag":
            self.take()
            return 0.0, value
        return value, 0.0

    def _exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok[0] == "op" and tok[1] in "+-":
            self.take()
            sign = 1 if tok[1] == "+" else -1
        tok = self.expect("number", "an integer exponent")
        if any(ch in tok[1] for ch in ".eE"):
            raise SymbolSyntaxError("exponent must be an integer", tok[2])
        k = sign * int(tok[1])
        if abs(k) > MAX_EXPONENT:
            raise SymbolSyntaxError(f"exponent {k} out of range", tok[2])
        return k


def parse_symbol(text: str) -> LaurentSymbol:
    """Parse a sum of terms ``c z^k``.

    Coefficients may be written ``a``, ``bi``, ``a+bi`` or ``(a+bi)``; a bare
    ``z^k`` means coefficient 1 and a missing exponent means ``z^0``.  Terms
    with the same exponent are summed, so cancellations drop out of the
    canonical form.  Syntax faults raise :class:`SymbolSyntaxError` with the
    byte offset of the offending token.
    """
    return LaurentSymbol(_Parser(text).parse())


# --- random generation -------------------------------------------------------


def _draw_coeffs(rng: np.random.Generator, max_band: int, density: float) -> dict[int, complex]:
    coeffs = {}
    for k in range(-max_band, max_band + 1):
        if rng.random() < density:
            re, im = rng.uniform(-1.0, 1.0, size=2)
            coeffs[k] = complex(re, im)
    return coeffs


def random_symbol(seed: int, max_band: int, density: float = 1.0) -> LaurentSymbol:
    """Deterministic random symbol with support inside ``[-max_band, max_band]``.

    Each index is present independently with probability ``density``; present
    coefficients have real and imaginary parts uniform in [-1, 1].
    """
    if max_band < 0:
        raise ValueError("max_band must be >= 0")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    return LaurentSymbol(_draw_coeffs(rng, max_band, density))


def random_matrix_symbol(seed: int, max_band: int, density: float = 1.0) -> MatrixSymbol:
    """Four independent random entries drawn from a single seeded stream."""
    if max_band < 0:
        raise ValueError("max_band must be >= 0")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    return MatrixSymbol(*(LaurentSymbol(_draw_coeffs(rng, max_band, density))
                          for _ in range(4)))


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
