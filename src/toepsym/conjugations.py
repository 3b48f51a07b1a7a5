"""Conjugation families as truncated antilinear operators.

Every family acts as ``x -> A @ conj(x)`` for a unitary matrix ``A``:

* ``GeneralPermutation(p, sigma)`` conjugates coefficients and permutes the
  residues of each length-``p`` block by an involution ``sigma``.
* ``Transposition(p, i, j)`` is the special case swapping residues ``i`` and
  ``j``; ``Reversal(n)`` reverses each length-``n`` block.
* ``MuLambda(mu, lam)`` sends ``f(z) -> mu * conj(f(lam * conj(z)))``, a
  diagonal twist ``diag(mu * conj(lam)**k)``.
* ``BlockHadamard`` / ``BlockMixed`` act on pairs of coefficient vectors
  through 2x2 arrays of the scalar operators, scaled by ``1/sqrt(2)``.

Truncation to ``span{z^0 .. z^(size-1)}`` is exact whenever the family's block
period divides ``size``; the constructors enforce that divisibility so every
downstream identity check is free of boundary effects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .symbols import complex_from_pair, complex_to_pair

INV_SQRT2 = 1.0 / math.sqrt(2.0)
UNIT_MODULUS_TOL = 1e-12
AXIOM_TOL = 1e-13

# Status of a family's closed-form coefficient characterization; condition
# reports carry the same strings as their ``mode``.
IFF = "iff"
NECESSARY_ONLY = "necessary_only"
CONJECTURE = "conjecture"


class WireField(NamedTuple):
    """One constructor argument of a family: its JSON key, the attribute it
    fills and its JSON codecs.  In the CLI mini-syntax the field is one
    ``:``-separated token, a JSON list written comma-separated."""

    key: str
    attr: str
    to_json: Callable
    from_json: Callable
    is_list: bool = False

    def from_text(self, token: str):
        return self.from_json(token.split(",") if self.is_list else token)


def _int_field(key: str) -> WireField:
    return WireField(key, key, int, int)


def _ints(values) -> tuple[int, ...]:
    return tuple(int(v) for v in values)


class ConjugationSpec:
    """A conjugation family.  Each subclass is the single definition of its
    family: ``name`` (JSON and CLI), ``wire_fields`` (constructor arguments in
    order), ``period`` (the block period whose divisibility makes truncation
    exact), ``is_block``, ``characterization`` (``IFF``, ``CONJECTURE``,
    ``NECESSARY_ONLY``, or ``None`` when only the raw relation table applies)
    and ``matrix(size)``, the unitary ``A`` of the truncated action
    ``x -> A conj(x)``.  The residue-permutation families also carry
    ``sigma``; the others set it to ``None``."""

    name: ClassVar[str]
    wire_fields: ClassVar[tuple[WireField, ...]] = ()
    is_block: ClassVar[bool] = False
    characterization: ClassVar[str | None] = IFF


class _ResiduePermutation(ConjugationSpec):
    """Conjugate, then permute the residues of every length-``period`` block
    by the involution ``sigma``."""

    @property
    def period(self) -> int:
        return self.p

    def to_general(self) -> "GeneralPermutation":
        return GeneralPermutation(self.period, self.sigma)

    def matrix(self, size: int) -> np.ndarray:
        p, m = self.period, np.arange(size)
        mat = np.zeros((size, size), dtype=complex)
        mat[m, np.take(self.sigma, m % p) + p * (m // p)] = 1.0
        return mat


@dataclass(frozen=True)
class GeneralPermutation(_ResiduePermutation):
    """Involution ``sigma`` on residues 0..p-1, repeated on every block."""

    name = "general"
    wire_fields = (_int_field("p"), WireField("sigma", "sigma", list, _ints, is_list=True))
    characterization = None

    p: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        sigma = _ints(self.sigma)
        object.__setattr__(self, "sigma", sigma)
        if sorted(sigma) != list(range(self.p)):
            raise ValueError("sigma must be a permutation of 0..p-1")
        if any(sigma[sigma[m]] != m for m in range(self.p)):
            raise ValueError("sigma must be an involution")


@dataclass(frozen=True)
class Transposition(_ResiduePermutation):
    """Swap residues ``i`` and ``j`` modulo ``p``, fix the rest."""

    name = "transposition"
    wire_fields = (_int_field("p"), _int_field("i"), _int_field("j"))

    p: int
    i: int
    j: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0 <= self.i < self.j < self.p:
            raise ValueError("need 0 <= i < j < p")

    @property
    def sigma(self) -> tuple[int, ...]:
        sigma = list(range(self.p))
        sigma[self.i], sigma[self.j] = self.j, self.i
        return tuple(sigma)

    @property
    def characterization(self) -> str:
        return IFF if covered_transposition_case(self.p, self.i, self.j) else CONJECTURE


@dataclass(frozen=True)
class Reversal(_ResiduePermutation):
    """Reverse every block of ``n`` consecutive coefficients."""

    name = "reversal"
    wire_fields = (_int_field("n"),)

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def period(self) -> int:
        return self.n

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(self.n - 1 - m for m in range(self.n))


@dataclass(frozen=True)
class MuLambda(ConjugationSpec):
    """Diagonal twist ``f(z) -> mu * conj(f(lam * conj(z)))`` with unimodular
    ``mu`` and ``lam``; values within 1e-12 of the circle are normalized onto
    it, anything further off (or not finite) is rejected."""

    name = "mulambda"
    wire_fields = (WireField("mu", "mu", complex_to_pair, complex_from_pair, is_list=True),
                   WireField("lambda", "lam", complex_to_pair, complex_from_pair, is_list=True))
    period = 1
    sigma = None

    mu: complex = 1.0 + 0j
    lam: complex = 1.0 + 0j

    def __post_init__(self):
        for name in ("mu", "lam"):
            value = complex(getattr(self, name))
            r = abs(value)
            if not abs(r - 1.0) <= UNIT_MODULUS_TOL:  # also false for NaN
                raise ValueError(f"{name} must have unit modulus, got |{name}| = {r}")
            object.__setattr__(self, name, value / r)

    def matrix(self, size: int) -> np.ndarray:
        weights = self.mu * np.conj(self.lam) ** np.arange(size)
        # repeated powers drift off the circle by ~k*eps; renormalizing keeps
        # the involution defect at one rounding per entry regardless of size
        weights /= np.abs(weights)
        return np.diag(weights).astype(complex)


class _PairBlock(ConjugationSpec):
    """2x2 block operator ``(1/sqrt 2) [[C2, X], [X, -C2]]`` on pairs of
    coefficient vectors, ``C2`` the block-of-two reversal and ``X`` the
    family's off-diagonal piece."""

    period = 2
    is_block = True
    sigma = None

    def matrix(self, size: int) -> np.ndarray:
        s = np.kron(np.eye(size // 2), [[0.0, 1.0], [1.0, 0.0]])
        x = self._off_diagonal(s)
        return (np.block([[s, x], [x, -s]]) * INV_SQRT2).astype(complex)


@dataclass(frozen=True)
class BlockHadamard(_PairBlock):
    """2x2 block operator ``(1/sqrt 2) [[C2, C2], [C2, -C2]]`` built from the
    block-of-two reversal ``C2``."""

    name = "block_c"

    def _off_diagonal(self, s: np.ndarray) -> np.ndarray:
        return s


@dataclass(frozen=True)
class BlockMixed(_PairBlock):
    """2x2 block operator ``(1/sqrt 2) [[C2, C1], [C1, -C2]]`` mixing the
    block-of-two reversal with plain coefficient conjugation ``C1``."""

    name = "block_ctilde"
    characterization = NECESSARY_ONLY

    def _off_diagonal(self, s: np.ndarray) -> np.ndarray:
        return np.eye(len(s))


FAMILIES: dict[str, type[ConjugationSpec]] = {
    cls.name: cls for cls in (GeneralPermutation, Transposition, Reversal,
                              MuLambda, BlockHadamard, BlockMixed)}


def period(spec: ConjugationSpec) -> int:
    """Block period whose divisibility makes truncation exact."""
    return spec.period


def covered_transposition_case(p: int, i: int, j: int) -> bool:
    """Whether the residue-swap family (p, i, j) has a proven full
    coefficient characterization: either p even with the swap spanning half a
    block (j - i = p/2), or p = m*q + 1 for some m >= 2 with i = q - 1 and
    j = p - 1."""
    if not 0 <= i < j < p:
        raise ValueError("need 0 <= i < j < p")
    if p % 2 == 0 and j - i == p // 2:
        return True
    q = i + 1
    return j == p - 1 and (p - 1) % q == 0 and (p - 1) // q >= 2


@dataclass(frozen=True, eq=False)
class AntilinearOperator:
    """Unitary matrix ``A`` realizing the antilinear action ``x -> A conj(x)``."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim,):
            raise ValueError(f"vector length {x.shape} does not match operator dim {self.dim}")
        return self.matrix @ np.conj(x)


def truncated_matrix(spec: ConjugationSpec, size: int) -> AntilinearOperator:
    """Exact truncation of the conjugation to the first ``size`` coefficients
    (``2 * size`` for block families, ordered first component then second).

    Raises ``ValueError`` when the family's period does not divide ``size``.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size % spec.period != 0:
        raise ValueError(f"size {size} is not a multiple of the block period {spec.period}")
    return AntilinearOperator(spec.matrix(size))


@dataclass(frozen=True)
class AxiomCheck:
    ok: bool
    involution_deviation: float
    isometry_deviation: float
    size: int
    probes: int


def verify_axioms(spec: ConjugationSpec, size: int, probes: int = 50,
                  seed: int = 0, tol: float = AXIOM_TOL) -> AxiomCheck:
    """Check the two conjugation axioms on the truncation: ``A conj(A) = I``
    entrywise and norm preservation on random unit probes."""
    op = truncated_matrix(spec, size)
    a = op.matrix
    involution = float(np.max(np.abs(a @ np.conj(a) - np.eye(op.dim))))
    rng = np.random.default_rng(seed)
    isometry = 0.0
    for _ in range(probes):
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        v /= np.linalg.norm(v)
        isometry = max(isometry, abs(np.linalg.norm(op.apply(v)) - 1.0))
    isometry = float(isometry)
    ok = bool(involution <= tol and isometry <= tol)
    return AxiomCheck(ok, involution, isometry, size, probes)


# --- JSON wire format ---------------------------------------------------------


def spec_to_json(spec: ConjugationSpec) -> dict:
    return {"family": spec.name,
            **{field.key: field.to_json(getattr(spec, field.attr)) for field in spec.wire_fields}}


def spec_from_json(obj: dict) -> ConjugationSpec:
    try:
        family = obj["family"]
    except (TypeError, KeyError) as exc:
        raise ValueError("conjugation spec JSON must carry a 'family' key") from exc
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValueError(f"unknown conjugation family {family!r}")
    try:
        return cls(*(field.from_json(obj[field.key]) for field in cls.wire_fields))
    except KeyError as exc:
        raise ValueError(f"spec JSON for {family!r} is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"spec JSON for {family!r} has a malformed field: {exc}") from exc
