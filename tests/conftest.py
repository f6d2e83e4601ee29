"""Shared test helpers: seeded generators for states with controlled spectra."""

from __future__ import annotations

import numpy as np
import pytest

from uli import random_state_with_spectrum


def random_complex(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


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


@pytest.fixture
def failing_svd(monkeypatch):
    """Make every numpy SVD raise LinAlgError, as LAPACK does when it fails to converge."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
