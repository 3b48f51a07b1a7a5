"""Independent reference for the oracle residual ``||A conj(T) conj(A) - T*||_F / max(1, ||T||_F)``.

This module imports nothing from ``toepsym``.  It builds the conjugation
matrix ``A`` straight from the family table (PAPER.md) as a grid of signed,
weighted index maps, one per block, and the truncation ``T[m, n] = c_(m-n)``
straight from the coefficients.  Multiplying by a weighted permutation only
gathers entries and scales them, so ``A conj(T) conj(A)`` is formed row chunk
by row chunk without a dense matrix product: O(n^2) time and O(chunk * n)
memory, where the program's dense oracle is O(n^3).

Specs are plain dicts in the JSON wire form of the README
(``{"family": "general", "p": 6, "sigma": [...]}`` and so on).  A scalar
symbol is a ``{k: c_k}`` dict; a block symbol is a list of four such dicts,
row-major ``phi1..phi4``.
"""

from __future__ import annotations

import math

import numpy as np

SYMMETRY_TOL = 1e-10
BLOCK_FAMILIES = ("block_c", "block_ctilde")
ROW_CHUNK = 256


def is_block(spec: dict) -> bool:
    return spec["family"] in BLOCK_FAMILIES


def sigma_of(spec: dict) -> list[int]:
    """Residue involution of a permutation family."""
    family = spec["family"]
    if family == "general":
        return list(spec["sigma"])
    if family == "transposition":
        sigma = list(range(spec["p"]))
        sigma[spec["i"]], sigma[spec["j"]] = spec["j"], spec["i"]
        return sigma
    if family == "reversal":
        return [spec["n"] - 1 - m for m in range(spec["n"])]
    raise ValueError(f"{family!r} is not a permutation family")


def period(spec: dict) -> int:
    family = spec["family"]
    if family in ("general", "transposition"):
        return spec["p"]
    if family == "reversal":
        return spec["n"]
    if family == "mulambda":
        return 1
    return 2


def unit(pair) -> complex:
    z = complex(*pair)
    return z / abs(z)


def operator_blocks(spec: dict, n: int):
    """``A`` as a grid of blocks ``(perm, weight)``: row ``m`` of the block
    holds ``weight[m]`` in column ``perm[m]`` and zeros elsewhere.

    ``n`` is the truncation order of one component; block families act on
    pairs ordered first component, then second.
    """
    if n % period(spec) != 0:
        raise ValueError(f"order {n} is not a multiple of the period {period(spec)}")
    family = spec["family"]
    if family in ("general", "transposition", "reversal"):
        sigma = np.asarray(sigma_of(spec))
        p = len(sigma)
        m = np.arange(n)
        return [[(sigma[m % p] + p * (m // p), np.ones(n, dtype=complex))]]
    if family == "mulambda":
        mu, lam = unit(spec["mu"]), unit(spec["lambda"])
        angle = -math.atan2(lam.imag, lam.real)
        weights = mu * np.exp(1j * angle * np.arange(n))
        return [[(np.arange(n), weights)]]
    # block families: C2 swaps each pair of coefficients, C1 is the identity
    h = np.full(n, 1.0 / math.sqrt(2.0), dtype=complex)
    c2, neg_c2 = (np.arange(n) ^ 1, h), (np.arange(n) ^ 1, -h)
    if family == "block_c":
        return [[c2, c2], [c2, neg_c2]]
    if family == "block_ctilde":
        c1 = (np.arange(n), h)
        return [[c2, c1], [c1, neg_c2]]
    raise ValueError(f"unknown family {family!r}")


def _coefficient_vector(coeffs: dict, n: int) -> np.ndarray:
    """``c_d`` at position ``d + n - 1`` for ``|d| < n``, zero elsewhere."""
    vec = np.zeros(2 * n - 1, dtype=complex)
    for k, c in coeffs.items():
        if abs(k) < n:
            vec[k + n - 1] = c
    return vec


def _frobenius_sq(coeffs: dict, n: int) -> float:
    """``||T||_F^2`` of one truncation: ``c_d`` lies on ``n - |d|`` entries."""
    return float(sum((n - abs(k)) * abs(c) ** 2 for k, c in coeffs.items() if abs(k) < n))


def residual(symbol, spec: dict, n: int) -> float:
    """Relative Frobenius residual of ``C T C = T*`` at truncation order ``n``."""
    entries = list(symbol) if is_block(spec) else [symbol]
    grid = 2 if is_block(spec) else 1
    vecs = [_coefficient_vector(e, n) for e in entries]
    a = operator_blocks(spec, n)
    inverse = [[np.argsort(perm) for perm, _ in row] for row in a]
    sumsq = 0.0
    for i in range(grid):
        for j in range(grid):
            # columns of conj(T_kl) conj(A_lj): column q reads column inv[q]
            # of conj(T_kl) scaled by conj(weight[inv[q]])
            col_terms = []
            for l in range(grid):
                inv = inverse[l][j]
                col_terms.append((l, inv, np.conj(a[l][j][1][inv])))
            for start in range(0, n, ROW_CHUNK):
                rows = np.arange(start, min(n, start + ROW_CHUNK))
                lhs = np.zeros((rows.size, n), dtype=complex)
                for k in range(grid):
                    perm, weight = a[i][k]
                    src_rows = perm[rows]
                    for l, inv, col_weight in col_terms:
                        d = src_rows[:, None] - inv[None, :]
                        block = np.conj(vecs[grid * k + l][d + n - 1])
                        lhs += weight[rows][:, None] * block * col_weight[None, :]
                # (T*)_ij[m, q] = conj(T_ji[q, m]) = conj(c^ji_(q - m))
                d = np.arange(n)[None, :] - rows[:, None]
                lhs -= np.conj(vecs[grid * j + i][d + n - 1])
                sumsq += float(np.sum(lhs.real ** 2 + lhs.imag ** 2))
    norm_t = math.sqrt(sum(_frobenius_sq(e, n) for e in entries))
    return math.sqrt(sumsq) / max(1.0, norm_t)


def verdict(value: float, tol: float = SYMMETRY_TOL) -> str:
    return "symmetric" if value <= tol else "not_symmetric"
