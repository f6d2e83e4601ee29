"""Shared test helpers: seeded states, the Bell state, two 2 x 2 unitaries, the dense system."""

from __future__ import annotations

import numpy as np
import pytest

from uli import random_state_with_spectrum, state_from_matrix

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def bell_state(d=2):
    return state_from_matrix(np.eye(d, dtype=complex) / np.sqrt(d))


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


def random_state(rng, d1, d2):
    m = random_complex(rng, d1, d2)
    return state_from_matrix(m / np.linalg.norm(m))


def clustered_spectrum(rng, rank, min_rel_step=0.1, max_rel_step=0.5):
    """Random descending spectrum of the given rank with exact repeats.

    Cluster multiplicities are drawn first; distinct cluster values follow a
    multiplicative descent, so consecutive cluster values differ by at least
    ``min_rel_step`` of the larger one, far above any degeneracy tolerance.
    Squared values sum to one. Repeats share the same float exactly, so
    degeneracy detection is unambiguous.
    """
    mults = []
    left = rank
    while left:
        k = int(rng.integers(1, left + 1))
        mults.append(k)
        left -= k
    values = [1.0]
    for _ in range(len(mults) - 1):
        values.append(values[-1] * (1.0 - rng.uniform(min_rel_step, max_rel_step)))
    raw = np.repeat(values, mults)
    return raw / np.sqrt(np.sum(raw**2)), mults


def distinct_spectrum(rng, rank):
    """Descending spectrum of all-singleton clusters."""
    values = [1.0]
    for _ in range(rank - 1):
        values.append(values[-1] * (1.0 - rng.uniform(0.1, 0.5)))
    raw = np.asarray(values)
    return raw / np.sqrt(np.sum(raw**2))


def random_dims(rng, lo=2, hi=6):
    return int(rng.integers(lo, hi + 1)), int(rng.integers(lo, hi + 1))


def fuzz_state(rng, lo=2, hi=6):
    """Random state with random dims, rank, and controlled exact degeneracies."""
    d1, d2 = random_dims(rng, lo, hi)
    rank = int(rng.integers(1, min(d1, d2) + 1))
    sigma, mults = clustered_spectrum(rng, rank)
    return random_state_with_spectrum(sigma, d1, d2, rng), sigma, mults


def anti_hermitian_basis(n, off_scale):
    """Real basis of the n x n anti-Hermitian matrices, stacked in a fixed order.

    The n imaginary diagonal units come first, then for each j < k in
    row-major order the antisymmetric real and the symmetric imaginary
    off-diagonal pair, with entries of modulus ``off_scale``: 1 gives the
    unscaled basis, 1/sqrt2 a Frobenius-orthonormal one.
    """
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    diag = np.arange(n)
    basis[diag, diag, diag] = 1j
    j, k = np.triu_indices(n, 1)
    real = n + 2 * np.arange(j.size)
    basis[real, j, k] = off_scale
    basis[real, k, j] = -off_scale
    basis[real + 1, j, k] = 1j * off_scale
    basis[real + 1, k, j] = 1j * off_scale
    return basis


def dense_system(psi, off_scale=1.0):
    """2*d1*d2 x (d1^2 + d2^2) real matrix of the linearized invariance condition."""
    d1, d2 = psi.shape
    columns = [basis @ psi for basis in anti_hermitian_basis(d1, off_scale)]
    columns += [psi @ basis.T for basis in anti_hermitian_basis(d2, off_scale)]
    complex_system = np.stack([c.ravel() for c in columns], axis=1)
    return np.vstack([complex_system.real, complex_system.imag])


@pytest.fixture
def failing_svd(monkeypatch):
    """Make every numpy SVD raise LinAlgError, as LAPACK does when it fails to converge."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
