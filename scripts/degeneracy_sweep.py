#!/usr/bin/env python3
"""Sweep a two-level spectrum through the degeneracy tolerance boundary.

A state with two slightly different Schmidt coefficients only admits opposite
phase pairs (dimension 2), while exact degeneracy opens up the full conjugate
block (dimension 4). The structure is genuinely discontinuous in the gap, so
the reported dimension flips where the gap crosses the clustering tolerance.
The oracle decides each pair of singular values on its own: the pair's
value |s1 - s2|/sqrt2 counts toward the rank while it is at least the
decision tolerance times the largest value sqrt2*s1, so the oracle flips
where the relative gap crosses twice the decision tolerance. Rows where the
two disagree are exactly the fragile inputs the analyze command flags with
exit code 3.
"""

import argparse

import numpy as np

from uli import (
    DEFAULT_DECISION_TOL,
    DEFAULT_DEGENERACY_TOL,
    group_dimension,
    invariance_structure,
    lie_algebra_dimension,
    state_from_matrix,
)


def two_level_state(gap):
    sigma = np.array([1.0, 1.0 - gap])
    sigma = sigma / np.linalg.norm(sigma)
    return state_from_matrix(np.diag(sigma).astype(complex))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--degeneracy-tol", type=float, default=DEFAULT_DEGENERACY_TOL)
    parser.add_argument("--decision-tol", type=float, default=DEFAULT_DECISION_TOL)
    args = parser.parse_args()

    print(f"{'gap':>10}  {'blocks dim':>10}  {'oracle dim':>10}  agree")
    for exponent in range(1, 15):
        gap = 10.0 ** (-exponent)
        state = two_level_state(gap)
        structure = invariance_structure(state, degeneracy_tol=args.degeneracy_tol)
        gdim = group_dimension(structure)
        odim = lie_algebra_dimension(state, tol=args.decision_tol)
        marker = "yes" if gdim == odim else "NO (tolerance-fragile input)"
        print(f"{gap:>10.0e}  {gdim:>10d}  {odim:>10d}  {marker}")

    print()
    print(f"clustering tolerance: {args.degeneracy_tol:.0e}, "
          f"nullspace decision tolerance: {args.decision_tol:.0e}")


if __name__ == "__main__":
    main()
