"""The closed-form Lie-algebra oracle against the dense linearized system.

The reference assembles the real system of ``x1 @ psi + psi @ x2.T`` over a
basis of anti-Hermitian pairs, column by column, as the library did before it
read the spectrum off the singular values of psi.
"""

import numpy as np
import pytest

from conftest import clustered_spectrum, dense_system, random_complex
from uli import (
    DEFAULT_DECISION_TOL,
    group_dimension,
    invariance_structure,
    lie_algebra_dimension,
    random_state_with_spectrum,
    real_nullspace_dimension,
    state_from_matrix,
)
from uli.invariance import _linearized_spectrum
from uli.matkernel import numerical_rank

SHAPES = [(1, 1), (1, 2), (1, 5), (2, 1), (5, 1), (2, 2), (3, 3), (4, 4), (5, 5),
          (2, 3), (3, 2), (2, 5), (5, 3), (4, 6), (6, 4)]
KINDS = ("generic", "degenerate", "deficient", "bell")
STATE_COUNT = 240


def make_state(index):
    rng = np.random.default_rng(index)
    d1, d2 = SHAPES[index % len(SHAPES)]
    kind = KINDS[(index // len(SHAPES)) % len(KINDS)]
    m = min(d1, d2)
    if kind == "generic":
        psi = random_complex(rng, d1, d2)
        return state_from_matrix(psi / np.linalg.norm(psi))
    if kind == "bell":
        # exactly equal singular values without any rounding from a basis change
        return state_from_matrix(np.eye(d1, d2, dtype=complex) / np.sqrt(m))
    rank = m if kind == "degenerate" else max(1, int(rng.integers(1, m + 1)) - 1)
    sigma, _ = clustered_spectrum(rng, rank)
    return random_state_with_spectrum(sigma, d1, d2, rng)


STATES = [make_state(i) for i in range(STATE_COUNT)]


def test_states_cover_every_case():
    ranks = [np.linalg.matrix_rank(s.psi) for s in STATES]
    assert {(s.d1, s.d2) for s in STATES} == set(SHAPES)
    assert any(r < min(s.d1, s.d2) for r, s in zip(ranks, STATES))
    assert any(max(b.size for b in invariance_structure(s).blocks) > 1 for s in STATES)


def test_spectrum_equals_orthonormal_dense_system():
    for index, state in enumerate(STATES):
        sigma = np.linalg.svd(state.psi, compute_uv=False)
        closed = np.sort(_linearized_spectrum(sigma, state.d1, state.d2))
        reference = np.linalg.svd(dense_system(state.psi, 1 / np.sqrt(2)), compute_uv=False)
        # the closed form lists the exact zeros too: no padding needed
        assert closed.shape == (2 * state.d1 * state.d2,), index
        err = np.max(np.abs(closed - np.sort(reference)))
        assert err <= 1e-12, (index, state.d1, state.d2, err)


@pytest.mark.parametrize("tol", [DEFAULT_DECISION_TOL, 1e-6])
def test_nullity_equals_unscaled_dense_oracle(tol):
    for index, state in enumerate(STATES):
        expected = real_nullspace_dimension(dense_system(state.psi), tol=tol)
        assert lie_algebra_dimension(state, tol=tol) == expected, (index, state.d1, state.d2)


@pytest.mark.parametrize("d1, d2, rank", [(64, 64, 64), (128, 96, 96), (128, 96, 70)])
def test_sizes_beyond_a_dense_system(d1, d2, rank):
    # dense systems of 0.5 GB (64x64) and 5 GB (128x96) would be needed here
    rng = np.random.default_rng(d1 * 1000 + rank)
    sigma, mults = clustered_spectrum(rng, rank)
    state = random_state_with_spectrum(sigma, d1, d2, rng)
    known = sum(k * k for k in mults) + (d1 - rank) ** 2 + (d2 - rank) ** 2
    assert group_dimension(invariance_structure(state)) == known
    assert lie_algebra_dimension(state) == known


@pytest.mark.parametrize("psi", [
    np.eye(2) / np.sqrt(2),
    random_complex(np.random.default_rng(3), 3, 3),
], ids=["bell", "haar"])
def test_zero_tolerance_counts_exact_zeros_as_zero(psi):
    state = state_from_matrix(psi / np.linalg.norm(psi))
    assert lie_algebra_dimension(state, tol=0) == group_dimension(invariance_structure(state))


def two_level_state(gap):
    """The state of ``scripts/degeneracy_sweep.py``: two Schmidt values ``gap`` apart."""
    sigma = np.array([1.0, 1.0 - gap])
    return state_from_matrix(np.diag(sigma / np.linalg.norm(sigma)).astype(complex))


# the sweep's gaps, without 1e-8 and 1e-9: the fragile window (2e-10, 1e-8]
SWEEP_STATES = [two_level_state(10.0 ** -e) for e in (*range(1, 8), *range(10, 15))]


@pytest.mark.parametrize("tol", [DEFAULT_DECISION_TOL, 1e-6])
def test_cached_values_move_no_oracle_decision(tol):
    for index, state in enumerate(STATES + SWEEP_STATES):
        values_only = _linearized_spectrum(np.linalg.svd(state.psi, compute_uv=False),
                                           state.d1, state.d2)
        expected = state.d1**2 + state.d2**2 - numerical_rank(values_only, tol)
        assert lie_algebra_dimension(state, tol=tol) == expected, (index, state.d1, state.d2)
