"""Seeded bipartite states whose stabilizer dimension is known by construction.

Every state is ``s1.T @ diag(sigma) @ s2`` with Haar-random bases and a chosen
spectrum, so its stabilizer has one free block per cluster of equal singular
values plus a free block per null space. The dimension the toolkit must
report is the sum of squared cluster multiplicities plus the squared null
dimensions. Cluster values are evenly spaced between 1 and 1/4 before
normalization, far from any clustering or rank tolerance, so no op fails for
numerical reasons.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from uli import BipartiteState, random_state_with_spectrum

#: Largest dense real oracle system (in bytes) an ``analyze`` input may need.
#: d = 32 needs 32 MiB; d = 64 would need 512 MiB for the system alone and
#: well over 1.5 GB with its SVD workspace, so it is refused.
ORACLE_SYSTEM_BUDGET = 64 * 2**20

KINDS = ("degenerate", "generic", "deficient")


def oracle_system_shape(d1: int, d2: int) -> tuple[int, int]:
    """Rows and columns of the real system ``lie_algebra_dimension`` decomposes."""
    return 2 * d1 * d2, d1 * d1 + d2 * d2


def oracle_system_bytes(d1: int, d2: int) -> int:
    rows, cols = oracle_system_shape(d1, d2)
    return 8 * rows * cols


def oracle_svd_flops(d1: int, d2: int) -> int:
    """Flops of the bidiagonal reduction that dominates a values-only SVD.

    ``4 m n^2 - 4 n^3 / 3`` for an m x n matrix with m >= n (Golub and Van
    Loan, Matrix Computations, sec. 5.4); a computed count, not a measurement.
    """
    m, n = sorted(oracle_system_shape(d1, d2), reverse=True)
    return 4 * m * n * n - (4 * n**3) // 3


def check_oracle_budget(d1: int, d2: int) -> None:
    """Refuse an ``analyze`` input whose oracle system exceeds the budget."""
    need = oracle_system_bytes(d1, d2)
    if need > ORACLE_SYSTEM_BUDGET:
        raise ValueError(
            f"a {d1}x{d2} state needs a {need}-byte oracle system, "
            f"over the {ORACLE_SYSTEM_BUDGET}-byte budget"
        )


@dataclass(frozen=True)
class StateInput:
    d1: int
    d2: int
    kind: str
    multiplicities: tuple[int, ...]
    sigma: np.ndarray
    state: BipartiteState

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)

    @property
    def known_dimension(self) -> int:
        n1, n2 = self.d1 - self.rank, self.d2 - self.rank
        return sum(m * m for m in self.multiplicities) + n1 * n1 + n2 * n2


def _multiplicities(kind: str, d1: int, d2: int, rng: np.random.Generator) -> list[int]:
    full = min(d1, d2)
    if kind == "generic":
        return [1] * full
    rank = full if kind == "degenerate" else full - max(1, full // 4)
    # at least two clusters, so a Haar-random u1 always leaks between blocks
    cap = max(1, min(8, rank // 2))
    mults = []
    left = rank
    while left:
        k = int(rng.integers(1, min(cap, left) + 1))
        mults.append(k)
        left -= k
    return mults


def make_state(kind: str, d1: int, d2: int, rng: np.random.Generator) -> StateInput:
    """State of the given shape and spectrum kind.

    ``degenerate``: full rank, clusters of up to 8 equal values;
    ``generic``: full rank, all values distinct;
    ``deficient``: a quarter of the rank missing, clustered support.
    """
    mults = _multiplicities(kind, d1, d2, rng)
    values = np.repeat(np.linspace(1.0, 0.25, len(mults)), mults)
    sigma = values / np.linalg.norm(values)
    state = random_state_with_spectrum(sigma, d1, d2, rng)
    return StateInput(d1=d1, d2=d2, kind=kind, multiplicities=tuple(mults), sigma=sigma, state=state)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one input, derived from the run seed."""
    return np.random.default_rng([seed, *path])
