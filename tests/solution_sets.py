"""Solution sets shared by several test modules.

* :func:`symmetric_symbol` draws a symbol that is exactly symmetric under a
  spec: the block samplers at their default density, or a scalar draw
  projected onto the family's table.
* :func:`involutions` lists every involution of ``0..p-1``;
  :func:`involution_cases` the ones the closed form is held to at ``p``.
* :func:`sums_relations` is the ``block_c`` list with the three pairwise
  sums ``phi1+phi2``, ``phi1+phi3``, ``phi1+phi4`` even-symmetric in place of
  the cross reflection.  The exact list implies it, but it is strictly
  weaker: ``test_conditions.py`` holds a symbol it accepts and the oracle
  rejects.
* :func:`basis_generators` gives each generator of a block family's
  solution-set basis as a matrix symbol.
"""

import numpy as np

import toepsym.conditions as conditions
from toepsym.conditions import (
    RelationTable,
    block_hadamard_relations,
    random_block_hadamard_symmetric,
    random_block_mixed_symmetric,
)
from toepsym.conjugations import BlockHadamard, BlockMixed
from toepsym.symbols import LaurentSymbol, MatrixSymbol, project_to_conditions, random_symbol


def symmetric_symbol(spec, seed, band, density):
    if isinstance(spec, BlockHadamard):
        return random_block_hadamard_symmetric(seed, band)
    if isinstance(spec, BlockMixed):
        return random_block_mixed_symmetric(seed, band)
    return project_to_conditions(random_symbol(seed, band, density), spec)


def involutions(p):
    """Every involution of ``0..p-1`` as its image tuple."""
    def pairings(rest):
        if not rest:
            yield {}
            return
        for b in rest:
            for pairing in pairings([x for x in rest[1:] if x != b]):
                yield {**pairing, rest[0]: b, b: rest[0]}
    return [tuple(pairing[m] for m in range(p)) for pairing in pairings(list(range(p)))]


def involution_cases(p):
    """Every involution of ``0..p-1`` for ``p <= 7``; for larger ``p``, every
    involution of ``0..d-1`` for each proper divisor ``d`` of ``p``, repeated
    on each length-``d`` block, so that its mirror period divides ``d < p``."""
    if p <= 7:
        return involutions(p)
    return [tuple(s[u % d] + u - u % d for u in range(p))
            for d in range(1, p) if p % d == 0 for s in involutions(d)]


def sums_relations(band: int) -> RelationTable:
    """Families ``sum12_even``, ``sum13_even``, ``sum14_even`` (by ``l``
    within each) and the exact list's ``odd_vanish`` rows."""
    half = band // 2
    even = 2 * np.arange(1, half + 1)
    # phi and the entries first, as in the exact list, whose vanish rows
    # keep their component codes
    exact = block_hadamard_relations(band)
    components = (*exact.components[:5], "phi1+phi2", "phi1+phi3", "phi1+phi4")
    sums = np.repeat([5, 6, 7], half)
    odd = exact.family == exact.names.index("odd_vanish")
    return RelationTable(("sum12_even", "sum13_even", "sum14_even", "odd_vanish"), components,
                         (np.repeat([0, 1, 2], half), False, sums, sums,
                          np.tile(even, 3), -np.tile(even, 3), 1),
                         (3, True, *exact.component[:, odd], *exact.index[:, odd], 1))


def sums_form(msym):
    """The sums list evaluated on ``msym``, through the module attribute a
    test may wrap."""
    return conditions.evaluate_block_relations(msym, sums_relations(msym.bandwidth))


def basis_generators(basis, band):
    """Each generator of the block basis ``basis(band)`` (``block_hadamard_basis``
    or ``block_mixed_basis``) as a matrix symbol, in order."""
    generator, entry, index, weight = basis(band)
    symbols = []
    for g in range(int(generator.max()) + 1):
        coeffs = [{}, {}, {}, {}]
        at = generator == g
        for e, k, w in zip(entry[at].tolist(), index[at].tolist(), weight[at].tolist()):
            coeffs[e][k] = coeffs[e].get(k, 0) + w
        symbols.append(MatrixSymbol(*map(LaurentSymbol, coeffs)))
    return symbols
