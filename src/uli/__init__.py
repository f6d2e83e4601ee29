"""Local-unitary stabilizer groups of bipartite pure states.

Characterizes, samples from, and verifies the group of local unitary pairs
(u1, u2) that leave a bipartite pure state invariant, working through the
Schmidt decomposition and the degeneracy pattern of the singular spectrum,
and solves the problem of undoing a local operation on one subsystem by
acting on the other.
"""

from .bipartite import (
    BipartiteState,
    DegeneracySpectrum,
    SchmidtForm,
    apply_local,
    cluster_spectrum,
    matrix_to_vec,
    partial_trace_1,
    partial_trace_2,
    random_state_with_spectrum,
    schmidt_decompose,
    state_from_matrix,
    vec_to_matrix,
)
from .config import (
    DEFAULT_DECISION_TOL,
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_NORM_TOL,
    DEFAULT_RANK_TOL,
)
from .errors import (
    BadSpectrum,
    ConvergenceFailure,
    DimensionMismatch,
    NotNormalized,
    NotSorted,
    NotUnitary,
    ToolkitError,
)
from .invariance import (
    CommutantCheck,
    InvarianceCheck,
    InvarianceStructure,
    NoSolution,
    SupportBlock,
    UnitaryPair,
    commutant_check,
    group_dimension,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    sample_invariant_pair,
    undo_operator,
)
from .matkernel import (
    SvdResult,
    haar_unitary,
    real_nullspace_dimension,
    rect_diag,
    svd,
    unitarity_defect,
)

__version__ = "0.1.0"

__all__ = [
    "BadSpectrum",
    "BipartiteState",
    "CommutantCheck",
    "ConvergenceFailure",
    "DEFAULT_DECISION_TOL",
    "DEFAULT_DEGENERACY_TOL",
    "DEFAULT_NORM_TOL",
    "DEFAULT_RANK_TOL",
    "DegeneracySpectrum",
    "DimensionMismatch",
    "InvarianceCheck",
    "InvarianceStructure",
    "NoSolution",
    "NotNormalized",
    "NotSorted",
    "NotUnitary",
    "SchmidtForm",
    "SupportBlock",
    "SvdResult",
    "ToolkitError",
    "UnitaryPair",
    "apply_local",
    "cluster_spectrum",
    "commutant_check",
    "group_dimension",
    "haar_unitary",
    "invariance_structure",
    "is_invariant",
    "lie_algebra_dimension",
    "matrix_to_vec",
    "partial_trace_1",
    "partial_trace_2",
    "random_state_with_spectrum",
    "real_nullspace_dimension",
    "rect_diag",
    "sample_invariant_pair",
    "schmidt_decompose",
    "state_from_matrix",
    "svd",
    "undo_operator",
    "unitarity_defect",
    "vec_to_matrix",
]
