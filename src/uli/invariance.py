"""Stabilizer structure of a bipartite pure state under local unitaries.

The pairs (u1, u2) with ``u1 @ psi @ u2.T == psi`` form a group determined
entirely by the singular spectrum of psi. In the Schmidt basis the condition
reads ``r1 @ Sigma == Sigma @ r2.conj()``; unitarity splits each r_j into a
support block and a free null block, the support blocks decompose over the
clusters of equal singular values, and on every cluster the side-2 block is
forced to be the conjugate of the side-1 block. Converting back to the
original basis uses ``u_j = s_j.T @ r_j @ s_j.conj()``.

The group's real dimension under this parameterization is the sum of squared
cluster multiplicities plus the squared null dimensions; it is cross-checked
by an oracle that linearizes the invariance condition at the identity and
shares only the singular values of psi with the structure path: it reads the
values of the state's cached Schmidt form, so the state's one SVD serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .bipartite import (
    BipartiteState,
    DegeneracySpectrum,
    SchmidtForm,
    cluster_spectrum,
    partial_trace_1,
    partial_trace_2,
    schmidt_decompose,
)
from .config import (
    DEFAULT_DECISION_TOL,
    DEFAULT_DEGENERACY_TOL,
    DEFAULT_RANK_TOL,
    UNITARY_TOL,
    check_cutoff,
    check_tolerance,
)
from .errors import NotUnitary
from .matkernel import (
    _residual,
    _unitarity_defect,
    as_square_matrix,
    haar_unitary,
    numerical_rank,
)


@dataclass(frozen=True)
class SupportBlock:
    """One free unitary block on the support, shared by both sides up to conjugation."""

    start: int
    size: int


@dataclass(frozen=True, eq=False)
class InvarianceStructure:
    """Symbolic description of the stabilizer group of one state.

    ``schmidt`` is the state's cached Schmidt form and carries the basis
    change to the original basis. Each cluster of ``spectrum`` is one coupled
    support block (side-2 block the conjugate of the side-1 block); the null
    blocks of dimensions ``null_dims`` are free and independent per side.
    """

    schmidt: SchmidtForm
    spectrum: DegeneracySpectrum

    @cached_property
    def blocks(self) -> tuple[SupportBlock, ...]:
        """The support blocks in Schmidt order, derived once from the cluster multiplicities."""
        sizes = [mult for _, mult in self.spectrum.clusters]
        return tuple(map(SupportBlock, accumulate(sizes, initial=0), sizes))

    @property
    def rank(self) -> int:
        return self.spectrum.rank

    @property
    def null_dims(self) -> tuple[int, int]:
        return self.spectrum.null_dims


@dataclass(frozen=True, eq=False)
class UnitaryPair:
    """Local unitaries acting on subsystem 1 and 2 respectively."""

    u1: np.ndarray
    u2: np.ndarray


@dataclass(frozen=True)
class NoSolution:
    """Failure certificate for the undo problem.

    ``off_block_mass`` is the largest matrix entry (in modulus) of the
    Schmidt-basis operator outside the block pattern the spectrum allows.
    """

    off_block_mass: float


@dataclass(frozen=True)
class InvarianceCheck:
    invariant: bool
    residual: float


@dataclass(frozen=True)
class CommutantCheck:
    side1: bool
    side2: bool
    residual1: float
    residual2: float


def invariance_structure(state: BipartiteState, rank_tol: float = DEFAULT_RANK_TOL,
                         degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> InvarianceStructure:
    """Full stabilizer structure of a state: one free block per degeneracy cluster.

    States near a degeneracy boundary can flip structure with the tolerance;
    the spectrum's minimum gap is exposed so fragile cases are visible.

    The state keeps the last structure built for it: a call with the same
    tolerances returns that same immutable object, and other tolerances
    build a new one that replaces it.
    """
    key = (check_cutoff(rank_tol, "rank_tol"), check_cutoff(degeneracy_tol, "degeneracy_tol"))
    last = state._structure  # read once: another thread may replace it meanwhile
    if last is not None and last[0] == key:
        return last[1]
    schmidt = schmidt_decompose(state)
    spectrum = cluster_spectrum(
        schmidt.sigma,
        rank_tol=rank_tol,
        degeneracy_tol=degeneracy_tol,
        dims=(state.d1, state.d2),
    )
    structure = InvarianceStructure(schmidt=schmidt, spectrum=spectrum)
    object.__setattr__(state, "_structure", (key, structure))
    return structure


def _block_diagonal(structure: InvarianceStructure, blocks, null: np.ndarray) -> np.ndarray:
    """Square Schmidt-basis matrix allowed by the stabilizer pattern.

    ``blocks`` go on the support blocks of ``structure.blocks`` in order,
    ``null`` on the null block from ``structure.rank`` on; all else is zero.
    The size is ``structure.rank + len(null)``, so ``null`` may be 0 x 0.
    """
    rank = structure.rank
    r = np.zeros((rank + len(null),) * 2, dtype=np.complex128)
    for block, w in zip(structure.blocks, blocks):
        sl = slice(block.start, block.start + block.size)
        r[sl, sl] = w
    r[rank:, rank:] = null
    return r


def _unitary(structure: InvarianceStructure, side: int, blocks, null: np.ndarray) -> np.ndarray:
    """Side ``side``'s unitary in the original basis, ``s.T @ r @ s.conj()``.

    ``r`` holds the side-1 support ``blocks`` (conjugated on side 2: the coupling) and ``null``.
    """
    s = structure.schmidt.s1 if side == 1 else structure.schmidt.s2
    r = _block_diagonal(structure, blocks if side == 1 else [w.conj() for w in blocks], null)
    return s.T @ r @ s.conj()


def sample_invariant_pair(structure: InvarianceStructure, rng: np.random.Generator) -> UnitaryPair:
    """Draw a Haar-random element of the stabilizer group.

    Each support block is drawn Haar-randomly and conjugated onto side 2; the
    null blocks are drawn independently (side 1 first, then side 2). The draw
    order is fixed so a seeded generator reproduces the same pair.
    """
    ws = [haar_unitary(block.size, rng) for block in structure.blocks]
    null1, null2 = [haar_unitary(n, rng) if n else np.zeros((0, 0)) for n in structure.null_dims]
    return UnitaryPair(u1=_unitary(structure, 1, ws, null1), u2=_unitary(structure, 2, ws, null2))


def is_invariant(pair: UnitaryPair, state: BipartiteState,
                 tol: float = DEFAULT_DECISION_TOL) -> InvarianceCheck:
    """Decide ``u1 @ psi @ u2.T == psi`` by the max-entry residual.

    Strict equality is required, not equality up to a global phase. A
    product that overflows has the residual ``inf``.
    """
    tol = check_tolerance(tol, "tol")
    u1 = as_square_matrix(pair.u1, "u1", state.d1)
    u2 = as_square_matrix(pair.u2, "u2", state.d2)
    residual = _residual(lambda: u1 @ state.psi @ u2.T - state.psi)
    return InvarianceCheck(invariant=residual <= tol, residual=residual)


def commutant_check(pair: UnitaryPair, state: BipartiteState,
                    tol: float = DEFAULT_DECISION_TOL) -> CommutantCheck:
    """Per-side commutator test against the reduced operators.

    Vanishing commutators are necessary for invariance but not sufficient:
    a maximally mixed reduction commutes with every unitary. A commutator
    whose products overflow has the residual ``inf``.
    """
    tol = check_tolerance(tol, "tol")
    u1 = as_square_matrix(pair.u1, "u1", state.d1)
    u2 = as_square_matrix(pair.u2, "u2", state.d2)
    rho1 = partial_trace_2(state)
    rho2 = partial_trace_1(state)
    res1 = _residual(lambda: u1 @ rho1 - rho1 @ u1)
    res2 = _residual(lambda: u2 @ rho2 - rho2 @ u2)
    return CommutantCheck(side1=res1 <= tol, side2=res2 <= tol, residual1=res1, residual2=res2)


def undo_operator(u1, state: BipartiteState, tol: float = DEFAULT_DECISION_TOL,
                  rank_tol: float = DEFAULT_RANK_TOL,
                  degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> UnitaryPair | NoSolution:
    """Find u2 on subsystem 2 undoing the action of ``u1`` on subsystem 1.

    In the Schmidt basis ``r1 = s1.conj() @ u1 @ s1.T`` must be block-diagonal
    with respect to the degeneracy clusters and the support/null split; the
    matching ``r2`` conjugates the support blocks and completes the null block
    with the identity (any unitary there would do; the identity keeps the
    output deterministic). Returns ``NoSolution`` with the off-block mass when
    ``r1`` leaks outside the allowed pattern.
    """
    tol = check_tolerance(tol, "tol")
    m1 = as_square_matrix(u1, "u1", state.d1)
    defect = _unitarity_defect(m1)
    if defect > UNITARY_TOL:
        raise NotUnitary(f"u1 deviates from unitarity by {defect:.3e}")

    structure = invariance_structure(state, rank_tol=rank_tol, degeneracy_tol=degeneracy_tol)
    s1 = structure.schmidt.s1
    r1 = s1.conj() @ m1 @ s1.T

    support = [r1[b.start:b.start + b.size, b.start:b.start + b.size] for b in structure.blocks]
    allowed = _block_diagonal(structure, support, r1[structure.rank:, structure.rank:])
    off_mass = _residual(lambda: r1 - allowed)
    if off_mass > tol:
        return NoSolution(off_block_mass=off_mass)

    return UnitaryPair(u1=m1, u2=_unitary(structure, 2, support, np.eye(structure.null_dims[1])))


def group_dimension(structure: InvarianceStructure) -> int:
    """Real dimension of the stabilizer group under the block parameterization."""
    n1, n2 = structure.null_dims
    return sum(mult**2 for _, mult in structure.spectrum.clusters) + n1**2 + n2**2


def _linearized_spectrum(sigma: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """The 2*d1*d2 singular values of the oracle's map, unsorted; see ``lie_algebra_dimension``."""
    pairs = [np.add.outer(sigma, sigma), np.abs(np.subtract.outer(sigma, sigma))]
    single = np.repeat(sigma, 2 * (d1 + d2 - 2 * sigma.size))
    return np.concatenate([*pairs, single], axis=None) / np.sqrt(2.0)


def lie_algebra_dimension(state: BipartiteState, tol: float = DEFAULT_DECISION_TOL) -> int:
    """Stabilizer dimension from linearizing the invariance condition at the identity.

    Generators (x1, x2) of invariant one-parameter groups solve
    ``L(x1, x2) = x1 @ psi + psi @ x2.T == 0`` over anti-Hermitian matrices.
    In orthonormal real coordinates rotated into the Schmidt basis, L has the
    singular values (s_i + s_j)/sqrt2 and |s_i - s_j|/sqrt2 for every ordered
    pair (i, j) of the m singular values s of psi, i = j included, and
    s_i/sqrt2 2*(d1 + d2 - 2m) times per value; the dimension is d1^2 + d2^2
    minus their ``numerical_rank``. Only the values s are shared with the
    structure path, read from the state's cached Schmidt form; the decision is
    a cutoff per pair, with no rank cutoff or clustering. Against a basis
    whose off-diagonal elements have norm sqrt2, a decision can differ only
    for a value within a factor of 2 of the cutoff.
    """
    tol = check_cutoff(tol, "tol")
    spectrum = _linearized_spectrum(schmidt_decompose(state).sigma, state.d1, state.d2)
    return state.d1**2 + state.d2**2 - numerical_rank(spectrum, tol)
