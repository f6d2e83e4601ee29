"""Default numerical tolerances, defined once and passed explicitly.

Every threshold that changes an answer (rank cutoffs, degeneracy clustering,
yes/no residual decisions) is a parameter of the operation that uses it; the
values here are only the documented defaults.
"""

from __future__ import annotations

import math
import os

#: Accepted deviation of the Hilbert-Schmidt norm from one when validating states.
DEFAULT_NORM_TOL = 1e-10

#: Singular values at or below this fraction of the largest count as zero.
DEFAULT_RANK_TOL = 1e-10

#: Consecutive singular values whose gap is at most this fraction of the
#: largest chain into one degeneracy cluster.
DEFAULT_DEGENERACY_TOL = 1e-8

#: Residual threshold for yes/no decisions (invariance, commutants, undo).
DEFAULT_DECISION_TOL = 1e-10

#: Max-entry unitarity defect accepted for unitaries read or passed in.
UNITARY_TOL = 1e-10

#: Kronecker products with more entries than this are refused.
KRON_ENTRY_CAP = 2**20

#: Environment variable overriding the default decision tolerance in the CLI.
TOL_ENV_VAR = "ULI_DEFAULT_TOL"


def check_tolerance(value, name: str) -> float:
    """Return ``value`` as a float; raise ValueError unless finite and non-negative."""
    tol = float(value)
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return tol


def default_decision_tol() -> float:
    """Decision tolerance honoring the ULI_DEFAULT_TOL environment variable.

    Raises ValueError unless the variable holds a finite non-negative number.
    """
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_DECISION_TOL
    return check_tolerance(raw, TOL_ENV_VAR)
