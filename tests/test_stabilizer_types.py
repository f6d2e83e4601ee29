"""Every stabilizer type up to 5 x 5, against four sources of its dimension.

The rank r and the multiplicities m_1, ..., m_k of the equal Schmidt values fix
the group U(m_1) x ... x U(m_k) x U(d1 - r) x U(d2 - r). For d1, d2 <= 5 that
is one type per shape, rank and partition of the rank: 111 in all. The dense
linearized system is the one source that shares no singular value with the
structure.
"""

import numpy as np
import pytest

from conftest import dense_system
from uli import (
    UnitaryPair,
    group_dimension,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    random_state_with_spectrum,
    real_nullspace_dimension,
    sample_invariant_pair,
    undo_operator,
)

SEED = 2029
MAX_DIM = 5
RATIO = 1.25  # between consecutive levels, far above any degeneracy tolerance


def partitions(n, largest=None):
    """The partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first, *rest)


TYPES = [(d1, d2, rank, mults)
         for d1 in range(1, MAX_DIM + 1)
         for d2 in range(1, MAX_DIM + 1)
         for rank in range(1, min(d1, d2) + 1)
         for mults in partitions(rank)]


def test_type_count():
    assert len(TYPES) == 111
    assert len(set(TYPES)) == len(TYPES)


@pytest.mark.parametrize("index", range(len(TYPES)),
                         ids=[f"{d1}x{d2}-{'+'.join(map(str, m))}" for d1, d2, _, m in TYPES])
def test_four_sources_agree(index):
    d1, d2, rank, mults = TYPES[index]
    rng = np.random.default_rng([SEED, index])
    raw = np.repeat(RATIO ** -np.arange(len(mults), dtype=float), mults)
    state = random_state_with_spectrum(raw / np.linalg.norm(raw), d1, d2, rng)
    structure = invariance_structure(state)
    assert tuple(m for _, m in structure.spectrum.clusters) == mults
    assert structure.null_dims == (d1 - rank, d2 - rank)

    closed = sum(m * m for m in mults) + (d1 - rank) ** 2 + (d2 - rank) ** 2
    assert group_dimension(structure) == closed
    assert lie_algebra_dimension(state) == closed
    assert real_nullspace_dimension(dense_system(state.psi)) == closed

    pair = sample_invariant_pair(structure, rng)
    assert is_invariant(pair, state).invariant
    undone = undo_operator(pair.u1, state)
    assert isinstance(undone, UnitaryPair)
    assert is_invariant(undone, state).invariant
