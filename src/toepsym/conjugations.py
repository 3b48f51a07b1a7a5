"""Conjugation families as truncated antilinear operators.

Every family acts as ``x -> A @ conj(x)``, ``A`` unitary and given by ``blocks``:

* ``GeneralPermutation(p, sigma)`` conjugates coefficients and permutes the
  residues of each length-``p`` block by an involution ``sigma``.  Its
  ``mirror_period`` ``d`` decides it: ``T_phi`` is symmetric exactly when
  ``c_k = c_(-k)`` for ``d | k`` and every other ``c_k`` is zero.
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
from functools import cached_property
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .symbols import complex_from_pair, complex_to_pair

INV_SQRT2 = 1.0 / math.sqrt(2.0)
UNIT_MODULUS_TOL = 1e-12
AXIOM_TOL = 1e-13


class WireField(NamedTuple):
    """One constructor argument of a family: its JSON key, the attribute it
    fills and its JSON codecs.  In the CLI mini-syntax the field is one
    ``:``-separated token, a JSON list (``is_list``) written comma-separated."""

    key: str
    attr: str
    to_json: Callable
    from_json: Callable
    is_list: bool = False


def _int(value) -> int:
    """An integer or an integral float; ``bool``, strings and fractional or
    non-finite numbers raise ``ValueError``."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _int_field(key: str) -> WireField:
    return WireField(key, key, int, _int)


def _complex_field(key: str, attr: str) -> WireField:
    return WireField(key, attr, complex_to_pair, complex_from_pair, True)


def _int_list(values) -> tuple[int, ...]:
    """A list of integers: a JSON string or object iterates, but is none."""
    if not isinstance(values, list):
        raise ValueError(f"expected a list of integers, got {values!r}")
    return tuple(map(_int, values))


class ConjugationSpec:
    """A conjugation family.  Each subclass is the single definition of its
    family: ``name`` (JSON and CLI), ``wire_fields`` (constructor arguments in
    order), ``period`` (the block period whose divisibility makes truncation
    exact), ``is_block`` and ``blocks(size)``, the ``(perms, weights)`` grid of
    ``A`` in the truncated action ``x -> A conj(x)`` (see
    :class:`AntilinearOperator`).  The residue-permutation families also carry
    ``sigma`` and its ``mirror_period``; the others have ``sigma = None``."""

    name: ClassVar[str]
    wire_fields: ClassVar[tuple[WireField, ...]] = ()
    is_block: ClassVar[bool] = False


class _ResiduePermutation(ConjugationSpec):
    """Conjugate, then permute the residues of every length-``period`` block
    by the involution ``sigma``."""

    @property
    def period(self) -> int:
        return self.p

    @cached_property
    def mirror_period(self) -> int:
        """The least period ``d`` of the displacement ``tau(u) = sigma(u) - u``
        on ``Z_p``: the least divisor ``t`` of ``p`` with ``tau`` equal to
        ``tau`` rotated by ``t``, O(p) per divisor.  ``T_phi`` is symmetric
        exactly when ``c_k = c_(-k)`` for ``d | k`` and ``c_k = 0`` otherwise
        (the README proves it)."""
        p, tau = self.period, np.asarray(self.sigma) - np.arange(self.period)
        return next(t for t in range(1, p + 1)
                    if p % t == 0 and np.array_equal(tau[t:], tau[:p - t]))

    def blocks(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        p, m = self.period, np.arange(size)
        return (np.take(self.sigma, m % p) + p * (m // p))[None, None], np.ones((1, 1, size))


@dataclass(frozen=True)
class GeneralPermutation(_ResiduePermutation):
    """Involution ``sigma`` on residues 0..p-1, repeated on every block."""

    name = "general"
    wire_fields = (_int_field("p"), WireField("sigma", "sigma", list, _int_list, is_list=True))

    p: int
    sigma: tuple[int, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be >= 1")
        sigma = tuple(map(_int, self.sigma))
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
    wire_fields = (_complex_field("mu", "mu"), _complex_field("lambda", "lam"))
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

    def blocks(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        weights = self.mu * np.conj(self.lam) ** np.arange(size)
        # repeated powers drift off the circle by ~k*eps; renormalizing keeps
        # the involution defect at one rounding per entry regardless of size
        weights /= np.abs(weights)
        return np.arange(size)[None, None], weights[None, None]


class _PairBlock(ConjugationSpec):
    """2x2 block operator ``(1/sqrt 2) [[C2, X], [X, -C2]]`` on pairs of
    coefficient vectors, ``C2`` the block-of-two reversal and ``X`` the
    family's off-diagonal piece."""

    period = 2
    is_block = True
    sigma = None

    def blocks(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        m = np.arange(size)
        c2, x = m ^ 1, m ^ self._off_diagonal_xor
        signs = np.array([[1.0, 1.0], [1.0, -1.0]])[..., None].repeat(size, axis=2)
        return np.array([[c2, x], [x, c2]]), INV_SQRT2 * signs


@dataclass(frozen=True)
class BlockHadamard(_PairBlock):
    """2x2 block operator ``(1/sqrt 2) [[C2, C2], [C2, -C2]]`` built from the
    block-of-two reversal ``C2``."""

    name = "block_c"
    _off_diagonal_xor = 1  # C2 swaps each index with its pair partner


@dataclass(frozen=True)
class BlockMixed(_PairBlock):
    """2x2 block operator ``(1/sqrt 2) [[C2, C1], [C1, -C2]]`` mixing the
    block-of-two reversal with plain coefficient conjugation ``C1``."""

    name = "block_ctilde"
    _off_diagonal_xor = 0  # C1 fixes every index


FAMILIES: dict[str, type[ConjugationSpec]] = {
    cls.name: cls for cls in (GeneralPermutation, Transposition, Reversal,
                              MuLambda, BlockHadamard, BlockMixed)}


def covered_transposition_case(p: int, i: int, j: int) -> bool:
    """The paper's two covered cases of the residue swap (p, i, j): either p
    even with the swap spanning half a block (j - i = p/2), or p = m*q + 1 for
    some m >= 2 with i = q - 1 and j = p - 1.  The program decides every swap
    by its ``mirror_period`` and does not read this: a swap's displacement
    takes ``j - i`` only at ``i``, so its period is ``p``, and the closed form
    at ``d = p`` is the paper's in both cases."""
    if not 0 <= i < j < p:
        raise ValueError("need 0 <= i < j < p")
    if p % 2 == 0 and j - i == p // 2:
        return True
    q = i + 1
    return j == p - 1 and (p - 1) % q == 0 and (p - 1) // q >= 2


@dataclass(frozen=True, eq=False)
class AntilinearOperator:
    """``x -> A conj(x)`` with ``A`` unitary, held as a ``g x g`` grid of
    ``size x size`` blocks (``g`` = 1, or 2 for the block families): row ``m``
    of block ``(i, k)`` is zero except at column ``perms[i, k, m]``, which
    holds ``weights[i, k, m]``.  Every ``perms[i, k]`` commutes with shifts by
    ``period``, so its first ``period`` entries are its residue map."""

    perms: np.ndarray
    weights: np.ndarray
    period: int

    @property
    def size(self) -> int:
        return self.perms.shape[2]

    @property
    def dim(self) -> int:
        return self.perms.shape[0] * self.size

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense ``A``, built on first use; the program never reads it."""
        g, n = self.perms.shape[0], self.size
        mat = np.zeros((g, n, g, n), dtype=complex)
        i, m, k = np.indices((g, n, g)).reshape(3, -1)
        mat[i, m, k, self.perms[i, k, m]] = self.weights[i, k, m]
        mat = mat.reshape(self.dim, self.dim)
        mat.setflags(write=False)
        return mat

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim,):
            raise ValueError(f"vector length {x.shape} does not match operator dim {self.dim}")
        parts = np.conj(x).reshape(-1, self.size)
        return (self.weights * parts[np.arange(len(parts))[:, None], self.perms]).sum(axis=1).ravel()


def truncated_matrix(spec: ConjugationSpec, size: int) -> AntilinearOperator:
    """Exact truncation of the conjugation to the first ``size`` coefficients
    (``2 * size`` for block families, ordered first component then second).

    Raises ``ValueError`` when the family's period does not divide ``size``.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if size % spec.period != 0:
        raise ValueError(f"size {size} is not a multiple of the block period {spec.period}")
    return AntilinearOperator(*spec.blocks(size), spec.period)


@dataclass(frozen=True)
class AxiomCheck:
    ok: bool
    involution_deviation: float
    isometry_deviation: float
    size: int
    probes: int


def _involution_deviation(op: AntilinearOperator) -> float:
    """``max |A conj(A) - I|`` over every entry, from ``perms`` and ``weights``
    in O(g**4 * size).  Row ``m`` of block ``(i, c)`` of ``A conj(A)`` holds,
    for each ``k``, the term ``w_ik[m] conj(w_kc[q])`` at column
    ``perm_kc[q]``, ``q = perm_ik[m]``; the terms at one column add in ``k``
    order, as two :meth:`AntilinearOperator.apply` calls add them."""
    g, rows = op.perms.shape[0], np.arange(op.size)
    k = np.arange(g)[:, None]
    deviation = 0.0
    for i, c in np.ndindex(g, g):
        q = op.perms[i]
        column = op.perms[k, c, q]
        term = op.weights[i] * np.conj(op.weights[k, c, q])
        # entry (m, column[k, m]): every term at that column, the others zero
        entry = np.where(column[:, None] == column, term, 0).sum(axis=1)
        diagonal = (i == c) & (column == rows)
        deviation = max(deviation, float(np.abs(entry - diagonal).max()))
        if i == c and not diagonal.any(axis=0).all():  # a zero on the diagonal
            deviation = max(deviation, 1.0)
    return deviation


def axiom_bytes(size: int, spec: ConjugationSpec) -> int:
    """The estimated peak allocation of :func:`verify_axioms` at ``size``,
    ``80 * g + 40 * g**2`` bytes per index for grid ``g`` (1, or 2 for the
    block families): the operator's index and weight arrays, and a probe's
    complex vectors and the gathered terms of :meth:`AntilinearOperator.apply`."""
    g = 2 if spec.is_block else 1
    return (80 * g + 40 * g**2) * size


def verify_axioms(spec: ConjugationSpec, size: int, probes: int = 50,
                  seed: int = 0) -> AxiomCheck:
    """Check the two conjugation axioms on the truncation: ``A conj(A) = I``
    entrywise and norm preservation on random unit probes."""
    if probes < 1:
        raise ValueError("probes must be >= 1")
    op = truncated_matrix(spec, size)
    involution = _involution_deviation(op)
    rng = np.random.default_rng(seed)
    isometry = 0.0
    for _ in range(probes):
        v = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
        v /= np.linalg.norm(v)
        isometry = max(isometry, abs(np.linalg.norm(op.apply(v)) - 1.0))
    isometry = float(isometry)
    ok = bool(involution <= AXIOM_TOL and isometry <= AXIOM_TOL)
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
    known = {"family", *(field.key for field in cls.wire_fields)}
    unknown = [key for key in obj if key not in known]
    if unknown:
        raise ValueError(f"spec JSON for {family!r} has unknown field {unknown[0]!r}")
    try:
        return cls(*(field.from_json(obj[field.key]) for field in cls.wire_fields))
    except KeyError as exc:
        raise ValueError(f"spec JSON for {family!r} is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"spec JSON for {family!r} has a malformed field: {exc}") from exc
