"""A state holds a read-only copy of psi and computes what psi alone determines once.

That is its SVD, its two reduced operators, and the structure for the last
tolerances asked for.
"""

import numpy as np
import pytest

from conftest import random_state
from uli import (
    NoSolution,
    UnitaryPair,
    apply_local,
    commutant_check,
    haar_unitary,
    invariance_structure,
    partial_trace_1,
    partial_trace_2,
    random_state_with_spectrum,
    sample_invariant_pair,
    schmidt_decompose,
    state_from_matrix,
    svd,
    undo_operator,
)
from uli import bipartite, invariance
from uli.cli import main
from uli.io import write_state_file

LOOSE, TIGHT = 1e-8, 1e-10


def fragile_state(rng, d1=5, d2=4):
    """Leading pair 1e-9 apart (merged at LOOSE, split at TIGHT) and a value 1e-9 of the top."""
    raw = np.array([1.0, 1.0 - 1e-9, 0.5, 1e-9])
    return random_state_with_spectrum(raw / np.linalg.norm(raw), d1, d2, rng)


def swap_leading_schmidt_vectors(state):
    """u1 exchanging the first two Schmidt vectors: solvable only if they share a cluster."""
    s1 = schmidt_decompose(state).s1
    r1 = np.eye(state.d1, dtype=complex)
    r1[:2, :2] = [[0, 1], [1, 0]]
    return s1.T @ r1 @ s1.conj()


def assert_same_structure(a, b):
    assert a.spectrum == b.spectrum
    assert a.blocks == b.blocks
    for x, y in ((a.schmidt.s1, b.schmidt.s1), (a.schmidt.s2, b.schmidt.s2),
                 (a.schmidt.sigma, b.schmidt.sigma)):
        assert x.tobytes() == y.tobytes()


def assert_same_undo(a, b):
    assert type(a) is type(b)
    if isinstance(a, NoSolution):
        assert a == b
    else:
        assert a.u1.tobytes() == b.u1.tobytes()
        assert a.u2.tobytes() == b.u2.tobytes()


def test_state_does_not_alias_the_callers_array():
    a = np.eye(2, dtype=complex) / np.sqrt(2)
    state = state_from_matrix(a)
    a[0, 1] = 0.5
    np.testing.assert_array_equal(state.psi, np.eye(2) / np.sqrt(2))


def test_direct_construction_copies_too():
    a = np.zeros((2, 3), dtype=complex)
    a[0, 0] = 1.0
    state = bipartite.BipartiteState(psi=a)
    a[0, 0] = 0.0
    assert state.psi[0, 0] == 1.0
    assert state.psi.dtype == np.complex128


def _refusal(build, psi):
    with pytest.raises(ValueError) as info:
        build(psi)
    return str(info.value)


def test_direct_construction_refuses_non_finite_entries():
    # is_invariant and commutant_check used to answer such a state instead of refusing it
    psi = np.full((2, 2), np.nan)
    assert _refusal(bipartite.BipartiteState, psi) == "psi contains non-finite entries"
    assert _refusal(state_from_matrix, psi) == "psi contains non-finite entries"


def test_direct_construction_refuses_a_vector():
    # .d2 of such a state used to raise IndexError
    psi = np.ones(3)
    assert _refusal(bipartite.BipartiteState, psi) == "psi must be 2-dimensional, got shape (3,)"
    assert _refusal(state_from_matrix, psi) == "psi must be 2-dimensional, got shape (3,)"


def test_direct_construction_refuses_an_empty_matrix():
    # such a state used to build with d1 == 0
    psi = np.zeros((0, 2))
    assert _refusal(bipartite.BipartiteState, psi) == "psi must be non-empty"
    assert _refusal(state_from_matrix, psi) == "psi must be non-empty"


def test_psi_and_schmidt_arrays_are_read_only():
    state = random_state(np.random.default_rng(1), 3, 4)
    schmidt = schmidt_decompose(state)
    fresh = svd(state.psi.copy())
    for a in (state.psi, schmidt.s1, schmidt.sigma, fresh.s1, fresh.s2, fresh.sigma):
        with pytest.raises(ValueError):
            a[0] = 0


def test_derived_states_are_read_only():
    rng = np.random.default_rng(2)
    state = random_state(rng, 3, 2)
    moved = apply_local(haar_unitary(3, rng), haar_unitary(2, rng), state)
    drawn = random_state_with_spectrum([0.8, 0.6], 3, 2, rng)
    for s in (moved, drawn):
        with pytest.raises(ValueError):
            s.psi[0, 0] = 0


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 4), (4, 1), (3, 5), (16, 16)])
def test_cached_decomposition_equals_a_fresh_svd(d1, d2):
    state = random_state(np.random.default_rng(d1 * 31 + d2), d1, d2)
    schmidt_decompose(state)  # fill the cache first
    form = schmidt_decompose(state)
    fresh = svd(state.psi.copy())
    assert form.s1.tobytes() == fresh.s1.tobytes()
    assert form.s2.tobytes() == fresh.s2.tobytes()
    assert form.sigma.tobytes() == fresh.sigma.tobytes()


def test_one_svd_per_state_across_calls_and_tolerances(monkeypatch):
    calls = []
    real_svd = bipartite.svd
    monkeypatch.setattr(bipartite, "svd", lambda m: calls.append(m.shape) or real_svd(m))
    rng = np.random.default_rng(3)
    state = random_state(rng, 4, 3)
    u1 = haar_unitary(4, rng)
    schmidt_decompose(state)
    invariance_structure(state, degeneracy_tol=TIGHT)
    undo_operator(u1, state)
    undo_operator(u1, state, rank_tol=1e-6)
    assert calls == [(4, 3)]


def test_structure_follows_each_calls_tolerances():
    state = fragile_state(np.random.default_rng(4))
    settings = [
        {"rank_tol": TIGHT, "degeneracy_tol": LOOSE},
        {"rank_tol": TIGHT, "degeneracy_tol": TIGHT},
        {"rank_tol": LOOSE, "degeneracy_tol": LOOSE},
        {"rank_tol": TIGHT, "degeneracy_tol": LOOSE},
    ]
    seen = set()
    for kw in settings:
        got = invariance_structure(state, **kw)
        assert_same_structure(got, invariance_structure(state_from_matrix(state.psi), **kw))
        seen.add((len(got.blocks), got.rank))
    assert seen == {(3, 4), (4, 4), (2, 3)}


def test_undo_follows_each_calls_tolerances():
    state = fragile_state(np.random.default_rng(5))
    u1 = swap_leading_schmidt_vectors(state)
    kinds = []
    for degeneracy_tol in (LOOSE, TIGHT, LOOSE):
        got = undo_operator(u1, state, degeneracy_tol=degeneracy_tol)
        assert_same_undo(got, undo_operator(u1, state_from_matrix(state.psi),
                                            degeneracy_tol=degeneracy_tol))
        kinds.append(type(got))
    assert kinds == [UnitaryPair, NoSolution, UnitaryPair]


@pytest.mark.parametrize("d1, d2", [(1, 1), (1, 4), (3, 5), (16, 16)])
def test_reduced_operators_equal_fresh_products_and_are_read_only(d1, d2):
    state = random_state(np.random.default_rng(d1 * 17 + d2), d1, d2)
    psi = state.psi.copy()
    for _ in range(2):  # the second round reads the cache
        rho1, rho2 = partial_trace_2(state), partial_trace_1(state)
        assert rho1.tobytes() == (psi @ psi.conj().T).tobytes()
        assert rho2.tobytes() == (psi.T @ psi.conj()).tobytes()
    for rho in (rho1, rho2):
        with pytest.raises(ValueError):
            rho[0, 0] = 0


def test_commutant_check_on_a_reused_state_equals_a_fresh_one():
    rng = np.random.default_rng(6)
    raw = np.array([0.6, 0.6, 0.4, 0.2, 0.2])
    state = random_state_with_spectrum(raw / np.linalg.norm(raw), 6, 5, rng)
    invariant = sample_invariant_pair(invariance_structure(state), rng)
    haar = UnitaryPair(u1=haar_unitary(6, rng), u2=haar_unitary(5, rng))
    for pair in (invariant, haar, invariant, haar):
        assert commutant_check(pair, state) == commutant_check(pair, state_from_matrix(state.psi))


def test_equal_tolerances_return_the_same_structure(monkeypatch):
    calls = []
    real = invariance.cluster_spectrum
    monkeypatch.setattr(invariance, "cluster_spectrum",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    state = fragile_state(np.random.default_rng(7))
    first = invariance_structure(state, rank_tol=TIGHT, degeneracy_tol=LOOSE)
    again = invariance_structure(state, rank_tol=np.float64(TIGHT), degeneracy_tol=LOOSE)
    assert again is first
    assert len(calls) == 1


def test_alternating_tolerances_rebuild_and_match_a_fresh_state(monkeypatch):
    calls = []
    real = invariance.cluster_spectrum
    monkeypatch.setattr(invariance, "cluster_spectrum",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    state = fragile_state(np.random.default_rng(8))
    blocks = []
    for degeneracy_tol in (LOOSE, TIGHT, LOOSE, TIGHT):
        got = invariance_structure(state, degeneracy_tol=degeneracy_tol)
        fresh = invariance_structure(state_from_matrix(state.psi), degeneracy_tol=degeneracy_tol)
        assert_same_structure(got, fresh)
        blocks.append(len(got.blocks))
    assert blocks == [3, 4, 3, 4]
    assert len(calls) == 8  # one entry per state: every switch rebuilds


def test_invalid_tolerance_is_refused_after_a_cached_structure():
    state = random_state(np.random.default_rng(9), 3, 3)
    invariance_structure(state)
    for kw in ({"rank_tol": float("nan")}, {"degeneracy_tol": -1.0}):
        with pytest.raises(ValueError):
            invariance_structure(state, **kw)


def test_one_schmidt_form_per_state_whatever_the_tolerances():
    state = fragile_state(np.random.default_rng(11))
    form = schmidt_decompose(state)
    assert schmidt_decompose(state) is form
    tight = invariance_structure(state, rank_tol=TIGHT, degeneracy_tol=TIGHT)
    loose = invariance_structure(state, rank_tol=LOOSE, degeneracy_tol=LOOSE)
    assert (tight.rank, loose.rank) == (4, 3)
    assert tight.schmidt is form and loose.schmidt is form


def test_array_holding_results_compare_by_identity():
    rng = np.random.default_rng(12)
    a = random_state(rng, 2, 3)
    b = state_from_matrix(a.psi)
    assert b not in [a]
    assert len({a, b}) == 2
    structure = invariance_structure(a)
    pair = sample_invariant_pair(structure, rng)
    assert pair == pair
    assert pair != UnitaryPair(u1=pair.u1, u2=pair.u2)
    assert len({structure, structure.schmidt, svd(a.psi), pair}) == 4


def test_shared_structure_arrays_are_read_only():
    state = random_state(np.random.default_rng(10), 3, 4)
    structure = invariance_structure(state)
    for a in (structure.schmidt.s1, structure.schmidt.s2, structure.schmidt.sigma):
        with pytest.raises(ValueError):
            a[0] = 0


def _count_svd_calls(monkeypatch):
    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (5, 3), (4, 7)])
def test_analysis_of_a_fresh_state_makes_one_svd(monkeypatch, shape):
    rng = np.random.default_rng(sum(shape))
    state = random_state(rng, *shape)
    calls = _count_svd_calls(monkeypatch)
    structure = invariance_structure(state)
    assert invariance.group_dimension(structure) == invariance.lie_algebra_dimension(state)
    assert calls == [True]


def test_cli_analyze_makes_one_svd(monkeypatch, tmp_path, capsys):
    path = tmp_path / "state.json"
    write_state_file(str(path), random_state(np.random.default_rng(3), 4, 3))
    calls = _count_svd_calls(monkeypatch)
    assert main(["analyze", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == [True]
