"""Bipartite pure states as coefficient matrices.

A state ``sum_ij psi_ij |i>|j>`` is stored as its d1 x d2 matrix ``psi``.
With the row-major vectorization used throughout (subsystem-1 index major),
local action becomes matrix action::

    vec(a @ psi @ b.T) == np.kron(a, b) @ vec(psi)

partial traces are ``psi @ psi.conj().T`` and ``psi.T @ psi.conj()``, and the
Schmidt decomposition is the SVD arranged as ``psi = s1.T @ Sigma @ s2`` with
the Schmidt vectors in the rows of ``s1`` and ``s2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DEFAULT_DEGENERACY_TOL, DEFAULT_NORM_TOL, DEFAULT_RANK_TOL, check_tolerance
from .errors import BadSpectrum, DimensionMismatch, NotNormalized, NotSorted
from .matkernel import SvdResult, as_complex_matrix, as_square_matrix, haar_unitary, rect_diag, svd


@dataclass(frozen=True)
class BipartiteState:
    """Coefficient matrix of a bipartite pure state.

    ``psi`` is d1 x d2 complex with unit Hilbert-Schmidt norm. ``input_norm``
    records the norm of the matrix this state was built from, so callers that
    requested rescaling can still see what they passed in.

    The state holds its own read-only copy of ``psi``, so it cannot change
    after it is built, and it computes the SVD of ``psi`` at most once.
    """

    psi: np.ndarray
    input_norm: float = 1.0

    def __post_init__(self) -> None:
        psi = np.array(self.psi, dtype=np.complex128)
        psi.setflags(write=False)
        object.__setattr__(self, "psi", psi)

    @cached_property
    def _svd(self) -> SvdResult:
        """Tolerance-free SVD of ``psi``, read-only; cutoffs apply per call on top of it."""
        res = svd(self.psi)
        for a in (res.u, res.sigma, res.v):
            a.setflags(write=False)
        return res

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
    norm (the norm overflowed, or the entries are subnormal) is refused.
    """
    m = as_complex_matrix(psi, "psi")
    norm = float(np.linalg.norm(m))
    if abs(norm - 1.0) <= DEFAULT_NORM_TOL:
        return BipartiteState(psi=m, input_norm=norm)
    if not normalize:
        raise NotNormalized(norm)
    if norm == 0.0:
        raise NotNormalized(norm, "cannot normalize the zero matrix")
    scaled = m / norm
    rescaled = float(np.linalg.norm(scaled))
    if abs(rescaled - 1.0) > DEFAULT_NORM_TOL:
        raise NotNormalized(norm, f"cannot normalize: measured norm {norm!r} "
                                  f"rescales to {rescaled!r}")
    return BipartiteState(psi=scaled, input_norm=norm)


def vec_to_matrix(amplitudes, d1: int, d2: int, *, normalize: bool = False) -> BipartiteState:
    """Fold a length d1*d2 amplitude vector into a state, subsystem-1 index major."""
    vec = np.asarray(amplitudes, dtype=np.complex128)
    if vec.ndim != 1:
        raise DimensionMismatch(f"amplitudes must be a vector, got shape {vec.shape}")
    if vec.size != d1 * d2:
        raise DimensionMismatch(
            f"expected {d1 * d2} amplitudes for a {d1}x{d2} state, got {vec.size}"
        )
    return state_from_matrix(vec.reshape(d1, d2), normalize=normalize)


def matrix_to_vec(state: BipartiteState) -> np.ndarray:
    """Row-major amplitude vector of a state; exact inverse of vec_to_matrix."""
    return state.psi.ravel().copy()


def apply_local(a, b, state: BipartiteState) -> BipartiteState:
    """Act with ``a`` on subsystem 1 and ``b`` on subsystem 2.

    Returns the state with coefficient matrix ``a @ psi @ b.T``. No norm check
    is performed: the result is normalized exactly when ``a`` and ``b`` are
    unitary.
    """
    ma = as_square_matrix(a, "a", state.d1)
    mb = as_square_matrix(b, "b", state.d2)
    return BipartiteState(psi=ma @ state.psi @ mb.T)


def partial_trace_2(state: BipartiteState) -> np.ndarray:
    """Reduced operator on subsystem 1: ``psi @ psi.conj().T``."""
    return state.psi @ state.psi.conj().T


def partial_trace_1(state: BipartiteState) -> np.ndarray:
    """Reduced operator on subsystem 2: ``psi.T @ psi.conj()``."""
    return state.psi.T @ state.psi.conj()


@dataclass(frozen=True)
class SchmidtForm:
    """SVD of psi arranged as ``psi = s1.T @ Sigma @ s2``.

    Row k of ``s1`` holds the coordinates of the k-th Schmidt vector of
    subsystem 1, row k of ``s2`` those of subsystem 2. ``sigma`` is sorted
    descending; ``rank`` counts values strictly above the rank cutoff.
    """

    s1: np.ndarray
    s2: np.ndarray
    sigma: np.ndarray
    rank: int

    @property
    def d1(self) -> int:
        return self.s1.shape[0]

    @property
    def d2(self) -> int:
        return self.s2.shape[0]


def _support_rank(sigma: np.ndarray, rank_tol: float) -> int:
    """Number of values of a descending spectrum above ``rank_tol`` times the largest."""
    rank_tol = check_tolerance(rank_tol, "rank_tol")
    smax = float(sigma[0]) if sigma.size else 0.0
    return int(np.count_nonzero(sigma > rank_tol * smax))


def schmidt_decompose(state: BipartiteState, rank_tol: float = DEFAULT_RANK_TOL) -> SchmidtForm:
    """Schmidt decomposition of a state via the SVD ``psi = u @ Sigma @ v.conj().T``.

    The factors are repackaged as ``s1 = u.T`` and ``s2 = v.conj().T`` so that
    ``psi = s1.T @ Sigma @ s2`` and the Schmidt vectors are rows of the two
    unitaries. The SVD is the one cached on ``state``; only the rank cutoff
    is recomputed.
    """
    res = state._svd
    rank = _support_rank(res.sigma, rank_tol)
    return SchmidtForm(s1=res.u.T, s2=res.v.conj().T, sigma=res.sigma, rank=rank)


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
        counts: dict[int, int] = {}
        for _, mult in self.clusters:
            counts[mult] = counts.get(mult, 0) + 1
        return dict(sorted(counts.items()))

    def min_gap(self) -> float | None:
        """Smallest gap between consecutive cluster values; None below 2 clusters."""
        if len(self.clusters) < 2:
            return None
        values = [v for v, _ in self.clusters]
        return float(min(values[i] - values[i + 1] for i in range(len(values) - 1)))


def _check_finite_nonnegative(s: np.ndarray) -> None:
    if not np.all(np.isfinite(s)) or np.any(s < 0):
        raise BadSpectrum("singular values must be finite and non-negative")


def cluster_spectrum(sigma, rank_tol: float = DEFAULT_RANK_TOL,
                     degeneracy_tol: float = DEFAULT_DEGENERACY_TOL,
                     dims: tuple[int, int] | None = None) -> DegeneracySpectrum:
    """Group a descending spectrum into equal-value clusters.

    Values at or below ``rank_tol`` times the largest go to the null space.
    Surviving neighbors chain into one cluster when their gap is at most
    ``degeneracy_tol`` times the largest value; chaining makes the degeneracy
    decision transitive. ``dims`` supplies (d1, d2) for the null dimensions
    and defaults to a square system the size of the spectrum.
    """
    s = np.asarray(sigma, dtype=float)
    if s.ndim != 1:
        raise BadSpectrum(f"sigma must be a vector, got shape {s.shape}")
    _check_finite_nonnegative(s)
    if s.size > 1 and np.any(np.diff(s) > 0):
        raise NotSorted("sigma must be sorted descending")
    d1, d2 = dims if dims is not None else (s.size, s.size)
    if s.size > min(d1, d2):
        raise DimensionMismatch(
            f"spectrum of length {s.size} does not fit dims ({d1}, {d2})"
        )

    rank = _support_rank(s, rank_tol)
    support = s[:rank]
    smax = float(s[0]) if s.size else 0.0

    gap_cut = check_tolerance(degeneracy_tol, "degeneracy_tol") * smax
    cuts = np.flatnonzero(support[:-1] - support[1:] > gap_cut) + 1
    edges = [0, *cuts.tolist(), rank] if rank else []
    clusters = tuple((float(support[a:b].mean()), b - a) for a, b in zip(edges, edges[1:]))
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
