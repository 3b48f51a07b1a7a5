"""toepsym: complex-symmetry checkers for truncated Toeplitz operators.

The package decides, two independent ways, whether a (block) Toeplitz matrix
built from a finitely supported symbol satisfies ``C T C = T*`` for a family
of structured antilinear conjugations: symbolically, through coefficient
conditions, and numerically, through an exact truncation residual.  The two
routes cross-validate each other; the CLI exposes single checks, batch
trials, and explorers for the uncharacterized cases.
"""

from .symbols import (
    LaurentSymbol,
    MatrixSymbol,
    SymbolSyntaxError,
    parse_symbol,
    project_to_conditions,
    random_matrix_symbol,
    random_symbol,
)
from .conjugations import (
    AntilinearOperator,
    AxiomCheck,
    BlockHadamard,
    BlockMixed,
    ConjugationSpec,
    GeneralPermutation,
    MuLambda,
    Reversal,
    Transposition,
    covered_transposition_case,
    spec_from_json,
    spec_to_json,
    truncated_matrix,
    verify_axioms,
)
from .toeplitz import (
    TruncatedToeplitz,
    block_truncate,
    min_truncation,
    truncate,
)
from .symmetry import SymmetryReport, is_c_symmetric, residual
from .conditions import (
    ConditionReport,
    check_block_mixed_necessary,
    check_transposition,
    condition_reports,
    equivalence_trial,
    explore_block_mixed,
    explore_transposition,
    interchange_sign_relations,
    project_to_raw,
    random_block_hadamard_symmetric,
    random_block_mixed_symmetric,
    raw_relations_general,
    raw_relations_transposition,
    run_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
