"""Default numerical tolerances, defined once and passed explicitly.

Every threshold that changes an answer (rank cutoffs, degeneracy clustering,
yes/no residual decisions) is a parameter of the operation that uses it; the
values here are only the documented defaults.
"""

from __future__ import annotations

import math

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


def check_tolerance(value, name: str) -> float:
    """Return ``value`` as a float; raise ValueError unless finite and non-negative."""
    tol = float(value)
    if not math.isfinite(tol) or tol < 0:
        raise ValueError(f"{name} must be a finite non-negative number, got {value!r}")
    return tol


def check_rank_tolerance(value, name: str) -> float:
    """``check_tolerance``, also refusing 1 and above: such a cutoff counts every value as zero."""
    tol = check_tolerance(value, name)
    if tol >= 1:
        raise ValueError(f"{name} must be below 1, got {value!r}")
    return tol
