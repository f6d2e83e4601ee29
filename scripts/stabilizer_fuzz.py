#!/usr/bin/env python3
"""Fuzz the stabilizer machinery over random states and print a summary.

For each state: sample an invariant pair and record the worst invariance
residual, and compare the block-counting group dimension against the
lie-algebra nullspace oracle, and the structure's rank against the rank
the state was drawn with. Each sampled pair is also checked with
``is_invariant`` and ``commutant_check``, and its u1 undone, both on the
state, whose decomposition, reduced operators and structure are cached by
then, and on a fresh copy of it; the answers must be bit-identical. Exits 1
on any oracle, rank or reuse mismatch or when the worst residual exceeds
RESIDUAL_LIMIT, so it can gate CI.
"""

import argparse
import sys
from collections import Counter

import numpy as np

from uli import (
    NoSolution,
    commutant_check,
    group_dimension,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    random_state_with_spectrum,
    sample_invariant_pair,
    state_from_matrix,
    undo_operator,
)
from uli.cli import _int_at_least, _positive_int, _seed

RESIDUAL_LIMIT = 1e-10


def clustered_spectrum(rng, rank):
    mults = []
    left = rank
    while left:
        k = int(rng.integers(1, left + 1))
        mults.append(k)
        left -= k
    values = [1.0]
    for _ in range(len(mults) - 1):
        values.append(values[-1] * (1.0 - rng.uniform(0.1, 0.5)))
    raw = np.repeat(values, mults)
    return raw / np.sqrt(np.sum(raw**2))


def same_undo(a, b):
    """Whether two ``undo_operator`` results are bit-identical."""
    if isinstance(a, NoSolution) or isinstance(b, NoSolution):
        return a == b
    return np.array_equal(a.u1, b.u1) and np.array_equal(a.u2, b.u2)


def _max_dim(text):
    # each side is drawn from 2..max_dim
    return _int_at_least(text, 2, "2-or-larger")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--states", type=_positive_int, default=500)
    parser.add_argument("--pairs-per-state", type=_positive_int, default=3)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--max-dim", type=_max_dim, default=6)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    worst_residual = 0.0
    mismatches = 0
    rank_mismatches = 0
    reuse_mismatches = 0
    dim_histogram = Counter()

    for _ in range(args.states):
        d1 = int(rng.integers(2, args.max_dim + 1))
        d2 = int(rng.integers(2, args.max_dim + 1))
        rank = int(rng.integers(1, min(d1, d2) + 1))
        state = random_state_with_spectrum(clustered_spectrum(rng, rank), d1, d2, rng)

        structure = invariance_structure(state)
        if structure.rank != rank:
            rank_mismatches += 1
            print(f"rank mismatch at d1={d1} d2={d2}: built with {rank}, structure has "
                  f"{structure.rank}")
        gdim = group_dimension(structure)
        dim_histogram[gdim] += 1
        if lie_algebra_dimension(state) != gdim:
            mismatches += 1
            print(f"oracle mismatch at d1={d1} d2={d2} rank={rank}")

        for _ in range(args.pairs_per_state):
            pair = sample_invariant_pair(structure, rng)
            fresh = state_from_matrix(state.psi)
            check = is_invariant(pair, state)
            worst_residual = max(worst_residual, check.residual)
            for what, same in (
                ("invariance", check == is_invariant(pair, fresh)),
                ("commutant", commutant_check(pair, state) == commutant_check(pair, fresh)),
                ("undo", same_undo(undo_operator(pair.u1, state), undo_operator(pair.u1, fresh))),
            ):
                if not same:
                    reuse_mismatches += 1
                    print(f"{what} mismatch on a reused state at d1={d1} d2={d2} rank={rank}")

    print(f"states checked:        {args.states}")
    print(f"pairs per state:       {args.pairs_per_state}")
    print(f"worst residual:        {worst_residual:.3e}")
    print(f"oracle mismatches:     {mismatches}")
    print("group dimension histogram:")
    for dim in sorted(dim_histogram):
        print(f"  dim {dim:3d}: {dim_histogram[dim]}")
    failed = mismatches or rank_mismatches or reuse_mismatches
    return 1 if failed or worst_residual > RESIDUAL_LIMIT else 0


if __name__ == "__main__":
    sys.exit(main())
