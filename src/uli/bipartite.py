"""Bipartite pure states as coefficient matrices.

A state ``sum_ij psi_ij |i>|j>`` is stored as its d1 x d2 matrix ``psi``.
With the row-major vectorization used throughout (subsystem-1 index major),
local action becomes matrix action::

    vec(a @ psi @ b.T) == np.kron(a, b) @ vec(psi)

partial traces are ``psi @ psi.conj().T`` and ``psi.T @ psi.conj()``, and the
Schmidt decomposition is the ``SchmidtForm`` that ``matkernel.svd`` returns,
``psi = s1.T @ Sigma @ s2`` with the Schmidt vectors in the rows of ``s1`` and
``s2``; a state caches it, and this module re-exports the type.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import (
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_NORM_TOL,
    DEFAULT_RANK_TOL,
    check_rank_tolerance,
    check_tolerance,
)
from .errors import BadSpectrum, DimensionMismatch, NotNormalized, NotSorted
from .matkernel import (
    SchmidtForm,
    _read_only,
    as_complex_matrix,
    as_square_matrix,
    haar_unitary,
    numerical_rank,
    rect_diag,
    svd,
)


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Coefficient matrix of a bipartite pure state.

    ``psi`` is d1 x d2 complex with unit Hilbert-Schmidt norm. ``input_norm``
    records the norm of the matrix this state was built from, so callers that
    requested rescaling can still see what they passed in.

    The state holds its own read-only copy of ``psi``, so it cannot change
    after it is built. What ``psi`` alone determines is computed at most once
    and kept read-only: the Schmidt form and the two reduced operators.
    ``_structure`` holds the last ``invariance_structure`` built for this
    state, with the tolerances it was built for. Equality and hashing are by
    identity.
    """

    psi: np.ndarray
    input_norm: float = 1.0
    _structure: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "psi", _read_only(np.array(self.psi, dtype=np.complex128)))

    @cached_property
    def _schmidt(self) -> SchmidtForm:
        return svd(self.psi)

    @cached_property
    def _rho1(self) -> np.ndarray:
        return _read_only(self.psi @ self.psi.conj().T)

    @cached_property
    def _rho2(self) -> np.ndarray:
        return _read_only(self.psi.T @ self.psi.conj())

    @property
    def d1(self) -> int:
        return self.psi.shape[0]

    @property
    def d2(self) -> int:
        return self.psi.shape[1]


def state_from_matrix(psi, *, normalize: bool = False) -> BipartiteState:
    """Validate a coefficient matrix and wrap it as a state.

    Non-normalized input is rejected unless ``normalize`` is set, in which
    case it is rescaled and the measured norm recorded; silent rescaling by
    default would hide caller bugs. A rescaling that does not land on unit
    norm (the norm overflowed or underflowed, or the entries are subnormal)
    is refused.
    """
    m = as_complex_matrix(psi, "psi")
    # an overflowing or subnormal norm is refused below; numpy's warning would only add noise
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(m))
    if abs(norm - 1.0) <= DEFAULT_NORM_TOL:
        return BipartiteState(psi=m, input_norm=norm)
    if not normalize:
        raise NotNormalized(norm)
    if not m.any():
        raise NotNormalized(norm, "cannot normalize the zero matrix")
    if norm == 0.0:
        raise NotNormalized(norm, "cannot normalize: the Hilbert-Schmidt norm of a "
                                  "non-zero matrix underflows to 0.0")
    scaled = m / norm
    with np.errstate(over="ignore", under="ignore"):
        rescaled = float(np.linalg.norm(scaled))
    if abs(rescaled - 1.0) > DEFAULT_NORM_TOL:
        raise NotNormalized(norm, f"cannot normalize: measured norm {norm!r} "
                                  f"rescales to {rescaled!r}")
    return BipartiteState(psi=scaled, input_norm=norm)


def vec_to_matrix(amplitudes, d1: int, d2: int) -> BipartiteState:
    """Fold a length d1*d2 amplitude vector into a state, subsystem-1 index major."""
    vec = np.asarray(amplitudes, dtype=np.complex128)
    if vec.ndim != 1:
        raise DimensionMismatch(f"amplitudes must be a vector, got shape {vec.shape}")
    if vec.size != d1 * d2:
        raise DimensionMismatch(
            f"expected {d1 * d2} amplitudes for a {d1}x{d2} state, got {vec.size}"
        )
    return state_from_matrix(vec.reshape(d1, d2))


def matrix_to_vec(state: BipartiteState) -> np.ndarray:
    """Row-major amplitude vector of a state; exact inverse of vec_to_matrix."""
    return state.psi.ravel().copy()


def apply_local(a, b, state: BipartiteState) -> BipartiteState:
    """Act with ``a`` on subsystem 1 and ``b`` on subsystem 2.

    Returns the state with coefficient matrix ``a @ psi @ b.T``. No norm check
    is performed: the result is normalized exactly when ``a`` and ``b`` are
    unitary. A product that overflows to non-finite entries is refused.
    """
    ma = as_square_matrix(a, "a", state.d1)
    mb = as_square_matrix(b, "b", state.d2)
    # an overflowing product is refused below; numpy's warning would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        psi = ma @ state.psi @ mb.T
    return BipartiteState(psi=as_complex_matrix(psi, "a @ psi @ b.T"))


def partial_trace_2(state: BipartiteState) -> np.ndarray:
    """Reduced operator on subsystem 1: ``psi @ psi.conj().T``, cached on the state, read-only."""
    return state._rho1


def partial_trace_1(state: BipartiteState) -> np.ndarray:
    """Reduced operator on subsystem 2: ``psi.T @ psi.conj()``, cached on the state, read-only."""
    return state._rho2


def schmidt_decompose(state: BipartiteState) -> SchmidtForm:
    """Schmidt decomposition of a state: ``svd(psi)``, so ``psi = s1.T @ Sigma @ s2``.

    The Schmidt vectors are the rows of the two unitaries. The form is
    computed once per state and every call returns that same read-only
    object.
    """
    return state._schmidt


@dataclass(frozen=True)
class DegeneracySpectrum:
    """Clusters of equal singular values in a descending spectrum.

    ``clusters`` holds (value, multiplicity) pairs in spectral order, covering
    only the support (values above the rank cutoff); ``null_dims`` are the
    remaining zero-value dimensions on each side.
    """

    clusters: tuple[tuple[float, int], ...]
    rank: int
    null_dims: tuple[int, int]

    @property
    def r_counts(self) -> dict[int, int]:
        """Map multiplicity k to the number of clusters of that size."""
        return dict(sorted(Counter(mult for _, mult in self.clusters).items()))

    def min_gap(self) -> float | None:
        """Smallest gap between consecutive cluster values; None below 2 clusters."""
        return min((a - b for (a, _), (b, _) in zip(self.clusters, self.clusters[1:])),
                   default=None)


def _check_finite_nonnegative(s: np.ndarray) -> None:
    if not np.isfinite(s).all() or (s < 0).any():
        raise BadSpectrum("singular values must be finite and non-negative")


def cluster_spectrum(sigma, rank_tol: float = DEFAULT_RANK_TOL,
                     degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
                     dims: tuple[int, int] | None = None) -> DegeneracySpectrum:
    """Group a descending spectrum into equal-value clusters.

    Values at or below ``rank_tol`` times the largest go to the null space;
    ``rank_tol`` must be below 1, or every value would.
    Surviving neighbors chain into one cluster when their gap is at most
    ``degeneracy_tol`` times the largest value; chaining makes the degeneracy
    decision transitive. ``dims`` supplies (d1, d2) for the null dimensions
    and defaults to a square system the size of the spectrum.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 1:
        raise BadSpectrum(f"sigma must be a vector, got shape {s.shape}")
    _check_finite_nonnegative(s)
    if (s[1:] > s[:-1]).any():
        raise NotSorted("sigma must be sorted descending")
    d1, d2 = dims if dims is not None else (s.size, s.size)
    if s.size > min(d1, d2):
        raise DimensionMismatch(
            f"spectrum of length {s.size} does not fit dims ({d1}, {d2})"
        )

    rank = numerical_rank(s, check_rank_tolerance(rank_tol, "rank_tol"))
    gap_cut = check_tolerance(degeneracy_tol, "degeneracy_tol") * np.max(s, initial=0.0)
    v = s[:rank].tolist()
    # a cluster starts at 0 and after every gap above the cut; it ends where the next starts
    starts = [k for k in range(rank) if k == 0 or v[k - 1] - v[k] > gap_cut]
    clusters = tuple((v[a] if b - a == 1 else float(s[a:b].mean()), b - a)
                     for a, b in zip(starts, starts[1:] + [rank]))
    return DegeneracySpectrum(clusters=clusters, rank=rank, null_dims=(d1 - rank, d2 - rank))


def random_state_with_spectrum(sigma, d1: int, d2: int,
                               rng: np.random.Generator) -> BipartiteState:
    """Haar-random state with the prescribed singular spectrum.

    Builds ``psi = s1.T @ rect_diag(sigma) @ s2`` from independent Haar
    unitaries, so the Schmidt bases are uniformly random while the spectrum is
    exactly the one requested.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise BadSpectrum(f"sigma must be a non-empty vector, got shape {s.shape}")
    if s.size > min(d1, d2):
        raise BadSpectrum(f"spectrum of length {s.size} does not fit a {d1}x{d2} state")
    _check_finite_nonnegative(s)
    total = float(np.sum(s**2))
    if abs(total - 1.0) > DEFAULT_NORM_TOL:
        raise BadSpectrum(f"squared spectrum sums to {total!r}, expected 1")
    s1 = haar_unitary(d1, rng)
    s2 = haar_unitary(d2, rng)
    psi = s1.T @ rect_diag(s, d1, d2) @ s2
    return state_from_matrix(psi)
