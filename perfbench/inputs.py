"""Seeded inputs built in the benchmark, without calling ``toepsym``.

Symmetric inputs come from the closed forms of the family table (PAPER.md):

* permutation families (``general``, ``transposition``, ``reversal``):
  coefficients at multiples of the period mirror-symmetric, all others zero;
* ``mulambda``: ``c(-n) = c(n) * lambda**n``;
* ``block_c``: the cross form, ``phi1+phi2`` and ``phi3-phi4``
  even-symmetric, ``(phi1-phi2)(2l) = (phi3+phi4)(-2l)``, odd
  coefficients zero;
* ``block_ctilde`` has no closed form.  Its "symmetric" inputs use the
  parametrization stated for the mixed family (entries 1 and 4 even and
  mirrored, entries 2 and 3 sharing a mirrored odd part, diagonal gap pinned
  by the odd part), and the reference residual alone decides their verdict.

Generic inputs are dense: every coefficient on ``[-band, band]`` has real and
imaginary parts uniform in [-1, 1].
"""

from __future__ import annotations

import numpy as np

from reference import is_block, period, unit


def _draw(rng: np.random.Generator) -> complex:
    re, im = rng.uniform(-1.0, 1.0, size=2)
    return complex(re, im)


def generic_scalar(rng: np.random.Generator, band: int) -> dict:
    values = rng.uniform(-1.0, 1.0, size=(2 * band + 1, 2))
    return {k: complex(*values[k + band]) for k in range(-band, band + 1)}


def _mirrored_multiples(rng: np.random.Generator, band: int, p: int) -> dict:
    coeffs = {0: _draw(rng)}
    for l in range(1, band // p + 1):
        coeffs[p * l] = coeffs[-p * l] = _draw(rng)
    return coeffs


def _twisted(rng: np.random.Generator, band: int, lam: complex) -> dict:
    coeffs = {0: _draw(rng)}
    for k in range(1, band + 1):
        coeffs[k] = _draw(rng)
        coeffs[-k] = coeffs[k] * lam ** k
    return coeffs


def _block_c_cross(rng: np.random.Generator, band: int) -> list:
    even = range(-(band - band % 2), band + 1, 2)
    sum12 = _mirrored_multiples(rng, band, 2)
    diff34 = _mirrored_multiples(rng, band, 2)
    diff12 = {k: _draw(rng) for k in even}
    sum34 = {-k: v for k, v in diff12.items()}
    phi1 = {k: (sum12.get(k, 0j) + diff12[k]) / 2 for k in even}
    phi2 = {k: (sum12.get(k, 0j) - diff12[k]) / 2 for k in even}
    phi3 = {k: (sum34[k] + diff34.get(k, 0j)) / 2 for k in even}
    phi4 = {k: (sum34[k] - diff34.get(k, 0j)) / 2 for k in even}
    return [phi1, phi2, phi3, phi4]


def _block_ctilde_parametrized(rng: np.random.Generator, band: int) -> list:
    # q(l) reads the odd coefficient at 2l + 1 and also pins f1 at 2l + 2, so
    # l stops where 2l + 2 would leave the band
    odd = {l: _draw(rng) for l in range(band // 2)}

    def q(l: int) -> complex:
        return odd.get(l if l >= 0 else -l - 1, 0j)

    f4 = _mirrored_multiples(rng, band, 2)
    f2 = _mirrored_multiples(rng, band, 2)
    for l, v in odd.items():
        f2[2 * l + 1] = f2[-(2 * l + 1)] = v
    f3 = {k: (v if k % 2 else -v) for k, v in f2.items()}
    top = band // 2
    f1 = {2 * l: f4.get(2 * l, 0j) + q(l) + q(l - 1) for l in range(-top, top + 1)}
    return [f1, f2, f3, f4]


def symmetric(rng: np.random.Generator, spec: dict, band: int):
    """A symbol of bandwidth at most ``band`` built to be C-symmetric."""
    family = spec["family"]
    if family in ("general", "transposition", "reversal"):
        return _mirrored_multiples(rng, band, period(spec))
    if family == "mulambda":
        return _twisted(rng, band, unit(spec["lambda"]))
    if family == "block_c":
        return _block_c_cross(rng, band)
    return _block_ctilde_parametrized(rng, band)


def generic(rng: np.random.Generator, spec: dict, band: int):
    if is_block(spec):
        return [generic_scalar(rng, band) for _ in range(4)]
    return generic_scalar(rng, band)


def to_json(symbol, spec: dict) -> dict:
    """The program's symbol file format: ``{"k": [re, im]}``, and
    ``{"phi1": {...}, ...}`` for block symbols."""
    def scalar(coeffs):
        return {str(k): [c.real, c.imag] for k, c in sorted(coeffs.items()) if c != 0}

    if is_block(spec):
        return {f"phi{i}": scalar(e) for i, e in enumerate(symbol, start=1)}
    return scalar(symbol)


def from_json(obj: dict, spec: dict):
    def scalar(entry):
        return {int(k): complex(re, im) for k, (re, im) in entry.items()}

    if is_block(spec):
        return [scalar(obj[f"phi{i}"]) for i in (1, 2, 3, 4)]
    return scalar(obj)
