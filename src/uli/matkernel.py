"""Dense complex linear algebra kernels.

Plain ``complex128`` numpy arrays are the universal carrier for states and
operators; this module wraps the numpy factorizations with the conventions
the rest of the toolkit relies on: an SVD with a deterministic phase
convention, returned as the read-only ``SchmidtForm`` that a state caches,
exactly Haar-distributed unitaries, nullspace dimensions of real linear
systems, and the toolkit's one rank cutoff and one max-entry residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_DECISION_TOL, check_cutoff
from .errors import ConvergenceFailure, DimensionMismatch


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-d complex128 array, rejecting empty or non-finite input."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square_matrix(a, name: str, n: int) -> np.ndarray:
    """``as_complex_matrix``, raising DimensionMismatch unless the shape is n x n."""
    m = as_complex_matrix(a, name)
    if m.shape != (n, n):
        raise DimensionMismatch(f"{name} must be {n}x{n}, got {m.shape}")
    return m


def rect_diag(values, rows: int, cols: int) -> np.ndarray:
    """Rectangular rows x cols matrix with ``values`` on the main diagonal, zero-filled."""
    v = np.asarray(values, dtype=np.complex128).ravel()
    if v.size > min(rows, cols):
        raise DimensionMismatch(f"{v.size} diagonal values do not fit a {rows}x{cols} matrix")
    out = np.zeros((rows, cols), dtype=np.complex128)
    out[np.arange(v.size), np.arange(v.size)] = v
    return out


def _as_square(u) -> np.ndarray:
    """``as_complex_matrix(u, "u")``, raising DimensionMismatch unless it is square."""
    m = as_complex_matrix(u, "u")
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"unitary must be square, got shape {m.shape}")
    return m


def unitarity_defect(u) -> float:
    """Max-entry deviation of ``u.conj().T @ u`` from the identity; ``inf`` if it overflows."""
    return _unitarity_defect(_as_square(u))


def _unitarity_defect(m: np.ndarray) -> float:
    """``unitarity_defect`` of a square complex128 matrix its caller has already validated."""
    def difference():
        gram = m.conj().T @ m
        # subtract the identity in place: off the diagonal ``- 0`` would change no bit
        gram.reshape(-1)[:: m.shape[0] + 1] -= 1
        return gram
    return _residual(difference)


def _residual(difference) -> float:
    """Max-entry modulus of ``difference()``; ``inf`` when a product in it overflows."""
    # an overflowing product is reported as inf below; numpy's warning would only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(difference())))
    return residual if np.isfinite(residual) else np.inf


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """SVD of a matrix psi arranged as ``psi = s1.T @ Sigma @ s2``.

    Row k of ``s1`` holds the coordinates of the k-th Schmidt vector of
    subsystem 1, row k of ``s2`` those of subsystem 2. ``sigma`` holds all
    min(d1, d2) singular values, sorted descending; the rank is a tolerance
    decision and belongs to ``cluster_spectrum``.
    """

    s1: np.ndarray
    s2: np.ndarray
    sigma: np.ndarray


def _unit_phases(z: np.ndarray) -> np.ndarray:
    # hypot rounds like the scalar abs(); np.abs on arrays does not always
    return z / np.hypot(z.real, z.imag)


def _normalize_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Rotate each left singular vector so its first largest-modulus component
    # is real positive; compensate in the paired row of vh so the product is
    # unchanged. Unpaired columns/rows (beyond min(m, n)) multiply zero
    # singular values and are phase-fixed independently.
    paired = min(u.shape[0], vh.shape[0])
    col_phase = _unit_phases(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    unpaired = vh[paired:]
    row_pivot = unpaired[np.arange(len(unpaired)), np.argmax(np.abs(unpaired), axis=1)]
    row_phase = np.concatenate([col_phase[:paired], _unit_phases(row_pivot).conj()])
    # explicit broadcast axes: a bare 1-d factor rounds differently on 1x1 input
    return u * col_phase.conj()[None, :], vh * row_phase[:, None]


def _lapack_svd(a: np.ndarray, compute_uv: bool = True):
    """``np.linalg.svd``; ConvergenceFailure if LAPACK fails, ValueError if a value overflows."""
    try:
        result = np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    if not np.isfinite(result[1] if compute_uv else result).all():
        raise ValueError("singular values overflow: the largest exceeds the float64 range")
    return result


def svd(m) -> SchmidtForm:
    """Full SVD ``m = u @ Sigma @ vh`` with a deterministic phase convention.

    The result is the read-only ``SchmidtForm`` with ``s1 = u.T`` and
    ``s2 = vh``, so the singular vectors are the rows of two unitaries. The
    phase convention (largest-modulus pivot of each left singular vector made
    real positive) keeps repeated runs on identical input bit-identical, which
    golden-file tests depend on.
    """
    u, sigma, vh = _lapack_svd(as_complex_matrix(m))
    u, vh = _normalize_phases(u, vh)
    return SchmidtForm(s1=_read_only(u.T), s2=_read_only(vh), sigma=_read_only(sigma))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n x n unitary from the Haar measure.

    Complex Ginibre matrix, QR, then the columns of Q are rotated by the
    inverse phases of R's diagonal (Mezzadri 2007). Left invariance of the
    Ginibre ensemble makes the result exactly Haar distributed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def numerical_rank(sigma: np.ndarray, tol: float) -> int:
    """Count of ``sigma`` above ``tol`` times its largest value; at ``tol = 0``, of non-zeros."""
    return int(np.count_nonzero(sigma > tol * np.max(sigma, initial=0.0)))


def real_nullspace_dimension(coeffs, tol: float = DEFAULT_DECISION_TOL) -> int:
    """Dimension of the nullspace of a real coefficient matrix.

    The nullspace dimension is the column count minus the ``numerical_rank``
    of the singular values. Using the column count rather than the number of
    small singular values keeps wide systems (more unknowns than equations)
    correct.
    """
    tol = check_cutoff(tol, "tol")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 2 or c.size == 0:
        raise ValueError("coeffs must be a non-empty 2-d real array")
    if not np.all(np.isfinite(c)):
        raise ValueError("coeffs contains non-finite entries")
    return c.shape[1] - numerical_rank(_lapack_svd(c, compute_uv=False), tol)
