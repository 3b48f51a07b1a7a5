"""Solution sets shared by several test modules.

* :func:`symmetric_symbol` draws a symbol that is exactly symmetric under a
  spec: the block samplers at their default density, a scalar draw projected
  onto the closed form (``iff`` families) or onto the raw table.
* :func:`sums_relations` is the ``block_c`` list with the three pairwise
  sums ``phi1+phi2``, ``phi1+phi3``, ``phi1+phi4`` even-symmetric in place of
  the cross reflection.  The exact list implies it, but it is strictly
  weaker: ``test_conditions.py`` holds a symbol it accepts and the oracle
  rejects.
"""

import numpy as np

import toepsym.conditions as conditions
from toepsym.conditions import (
    IFF,
    RelationTable,
    block_hadamard_relations,
    project_to_raw,
    random_block_hadamard_symmetric,
    random_block_mixed_symmetric,
)
from toepsym.conjugations import BlockHadamard, BlockMixed
from toepsym.symbols import project_to_conditions, random_symbol


def symmetric_symbol(spec, seed, band, density):
    if isinstance(spec, BlockHadamard):
        return random_block_hadamard_symmetric(seed, band)
    if isinstance(spec, BlockMixed):
        return random_block_mixed_symmetric(seed, band)
    symbol = random_symbol(seed, band, density)
    if spec.characterization == IFF:
        return project_to_conditions(symbol, spec)
    return project_to_raw(symbol, spec, band)


def sums_relations(band: int) -> RelationTable:
    """Families ``sum12_even``, ``sum13_even``, ``sum14_even`` (by ``l``
    within each) and the exact list's ``odd_vanish`` rows."""
    half = band // 2
    even = 2 * np.arange(1, half + 1)
    sums = np.repeat([conditions._CODE[name] for name in ("phi1+phi2", "phi1+phi3",
                                                          "phi1+phi4")], half)
    exact = block_hadamard_relations(band)
    odd = exact.family == exact.names.index("odd_vanish")
    return RelationTable(("sum12_even", "sum13_even", "sum14_even", "odd_vanish"),
                         (np.repeat([0, 1, 2], half), False, sums, sums,
                          np.tile(even, 3), -np.tile(even, 3), 1),
                         (3, True, *exact.component[:, odd], *exact.index[:, odd], 1))


def sums_form(msym):
    """The sums list evaluated on ``msym``, through the module attribute a
    test may wrap."""
    return conditions.evaluate_block_relations(msym, sums_relations(msym.bandwidth), IFF)
