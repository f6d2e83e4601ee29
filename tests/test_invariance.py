"""Tests for stabilizer structure, sampling, verification, and the undo solver."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    HADAMARD,
    SIGMA_X,
    bell_state,
    clustered_spectrum,
    distinct_spectrum,
    fuzz_state,
)
from uli import (
    DimensionMismatch,
    InvarianceStructure,
    NoSolution,
    NotUnitary,
    UnitaryPair,
    apply_local,
    commutant_check,
    group_dimension,
    haar_unitary,
    invariance_structure,
    is_invariant,
    lie_algebra_dimension,
    matrix_to_vec,
    random_state_with_spectrum,
    sample_invariant_pair,
    schmidt_decompose,
    state_from_matrix,
    undo_operator,
    unitarity_defect,
)

def ket00_state():
    return state_from_matrix(np.array([[1, 0], [0, 0]], dtype=complex))


def nondegenerate_diag():
    return state_from_matrix(np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex))


def schmidt_frame(pair, state):
    """Transform a pair into the Schmidt basis of the state."""
    form = schmidt_decompose(state)
    w1 = form.s1.conj() @ pair.u1 @ form.s1.T
    w2 = form.s2.conj() @ pair.u2 @ form.s2.T
    return w1, w2


class TestInvarianceStructure:
    def test_bell_single_free_block(self):
        st = invariance_structure(bell_state())
        assert [(b.start, b.size) for b in st.blocks] == [(0, 2)]
        assert st.null_dims == (0, 0)

    def test_separable_phase_plus_nulls(self):
        st = invariance_structure(ket00_state())
        assert [(b.start, b.size) for b in st.blocks] == [(0, 1)]
        assert st.null_dims == (1, 1)

    def test_degenerate_pair_in_3x3(self):
        rng = np.random.default_rng(0)
        state = random_state_with_spectrum(np.full(2, 1 / np.sqrt(2)), 3, 3, rng)
        st = invariance_structure(state)
        assert [(b.start, b.size) for b in st.blocks] == [(0, 2)]
        assert st.null_dims == (1, 1)
        # cross-checked below through the lie-algebra oracle
        assert group_dimension(st) == lie_algebra_dimension(state)

    def test_block_sizes_partition_both_sides(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            state, _, mults = fuzz_state(rng)
            st = invariance_structure(state)
            assert [b.size for b in st.blocks] == mults
            assert sum(b.size for b in st.blocks) + st.null_dims[0] == state.d1
            assert sum(b.size for b in st.blocks) + st.null_dims[1] == state.d2


    def test_fields_are_the_schmidt_form_and_the_spectrum(self):
        names = [f.name for f in dataclasses.fields(InvarianceStructure)]
        assert names == ["schmidt", "spectrum"]
        structure = invariance_structure(bell_state())
        assert structure.blocks is structure.blocks


class TestSampleInvariantPair:
    def test_bell_pairs_are_conjugate_in_schmidt_basis(self):
        state = bell_state()
        structure = invariance_structure(state)
        rng = np.random.default_rng(2)
        for _ in range(10):
            pair = sample_invariant_pair(structure, rng)
            w1, w2 = schmidt_frame(pair, state)
            assert np.max(np.abs(w2 - w1.conj())) <= 1e-12

    def test_separable_pair_acts_as_opposite_phases(self):
        state = ket00_state()
        structure = invariance_structure(state)
        rng = np.random.default_rng(3)
        form = structure.schmidt
        for _ in range(10):
            pair = sample_invariant_pair(structure, rng)
            phi1 = form.s1[0, :]
            theta1 = form.s2[0, :]
            # first schmidt vector is an eigenvector with conjugate phases
            out1 = pair.u1 @ phi1
            out2 = pair.u2 @ theta1
            lam = out1[np.argmax(np.abs(phi1))] / phi1[np.argmax(np.abs(phi1))]
            assert abs(abs(lam) - 1.0) <= 1e-12
            np.testing.assert_allclose(out1, lam * phi1, atol=1e-12)
            np.testing.assert_allclose(out2, np.conj(lam) * theta1, atol=1e-12)

    def test_pairs_are_unitary(self):
        rng = np.random.default_rng(4)
        state, _, _ = fuzz_state(rng)
        structure = invariance_structure(state)
        pair = sample_invariant_pair(structure, rng)
        assert unitarity_defect(pair.u1) <= 1e-12
        assert unitarity_defect(pair.u2) <= 1e-12

    def test_thousand_samples_on_distinct_spectrum(self):
        rng = np.random.default_rng(5)
        sigma = distinct_spectrum(rng, 3)
        state = random_state_with_spectrum(sigma, 3, 3, rng)
        structure = invariance_structure(state)
        for _ in range(1000):
            pair = sample_invariant_pair(structure, rng)
            assert is_invariant(pair, state, tol=1e-10).invariant

    def test_seeded_sampling_reproduces(self):
        state = bell_state()
        structure = invariance_structure(state)
        a = sample_invariant_pair(structure, np.random.default_rng(99))
        b = sample_invariant_pair(structure, np.random.default_rng(99))
        np.testing.assert_array_equal(a.u1, b.u1)
        np.testing.assert_array_equal(a.u2, b.u2)

    def test_mean_kronecker_is_projector_per_cluster(self):
        # E[w (x) conj(w)] = |Phi><Phi| for Haar w, and independent blocks
        # (the null blocks included) average to zero. So the mean of
        # u1 (x) u2 keeps one +1 eigenvector per support cluster, vec(psi)
        # among them, and every other eigenvalue shrinks like 1/sqrt(n).
        rng = np.random.default_rng(20)
        sigma = np.array([np.sqrt(0.4), np.sqrt(0.4), np.sqrt(0.2)])
        state = random_state_with_spectrum(sigma, 4, 4, rng)
        structure = invariance_structure(state)
        assert [m for _, m in structure.spectrum.clusters] == [2, 1]
        assert structure.null_dims == (1, 1)
        n = 2000
        mean = np.zeros((16, 16), dtype=complex)
        for _ in range(n):
            pair = sample_invariant_pair(structure, rng)
            mean += np.kron(pair.u1, pair.u2)
        mean /= n
        eig = np.linalg.eigvals(mean)
        near_one = np.abs(eig - 1.0) <= 1e-12
        assert np.count_nonzero(near_one) == len(structure.spectrum.clusters)
        assert np.max(np.abs(eig[~near_one])) <= 5 / np.sqrt(n)
        vec = matrix_to_vec(state)
        assert np.max(np.abs(mean @ vec - vec)) <= 1e-12


    def test_every_block_is_haar_and_side_2_is_conjugate(self):
        # In the Schmidt basis r_j = s_j.conj() @ u_j @ s_j.T is block-diagonal. A Haar
        # block W of size 2 has E|tr W|^2 = 1, E|tr W|^4 = 2 and E|tr W|^8 = 14
        # (Diaconis & Shahshahani 1994), so the two means have standard errors
        # sqrt(1/N) and sqrt(10/N); a block of size 1 is a phase. Seed, N and the
        # 5-sigma bounds were fixed before any run.
        rng = np.random.default_rng(2030)
        sigma = np.array([np.sqrt(0.4), np.sqrt(0.4), np.sqrt(0.2)])
        state = random_state_with_spectrum(sigma, 4, 5, rng)
        structure = invariance_structure(state)
        assert [m for _, m in structure.spectrum.clusters] == [2, 1]
        assert structure.null_dims == (1, 2)
        n = 5000
        frames = [schmidt_frame(sample_invariant_pair(structure, rng), state) for _ in range(n)]
        r1, r2 = (np.stack(r) for r in zip(*frames))
        support = [slice(0, 2), slice(2, 3)]
        blocks = [r1[:, b, b] for b in support] + [r1[:, 3:, 3:], r2[:, 3:, 3:]]
        for b in support:
            assert np.max(np.abs(r2[:, b, b] - r1[:, b, b].conj())) <= 1e-12
        for r, cuts in ((r1, support + [slice(3, 4)]), (r2, support + [slice(3, 5)])):
            off = r.copy()
            for b in cuts:
                off[:, b, b] = 0
            assert np.max(np.abs(off)) <= 1e-12
        for w in blocks:
            tr2 = np.abs(np.trace(w, axis1=1, axis2=2)) ** 2
            if w.shape[1] == 1:
                assert np.max(np.abs(tr2 - 1)) <= 1e-12
            else:
                assert abs(tr2.mean() - 1) < 5 * np.sqrt(1 / n)
                assert abs((tr2**2).mean() - 2) < 5 * np.sqrt(10 / n)


class TestIsInvariant:
    def test_identity_pair(self):
        rng = np.random.default_rng(6)
        state, _, _ = fuzz_state(rng)
        check = is_invariant(UnitaryPair(np.eye(state.d1), np.eye(state.d2)), state)
        assert check.invariant
        assert check.residual == 0.0

    def test_bell_with_conjugate_haar_pair(self):
        rng = np.random.default_rng(7)
        u = haar_unitary(2, rng)
        assert is_invariant(UnitaryPair(u, u.conj()), bell_state()).invariant

    def test_bell_with_equal_phase_gates_fails(self):
        u = np.diag([1.0, 1j])
        check = is_invariant(UnitaryPair(u, u), bell_state())
        assert not check.invariant
        # hand computation: the (2, 2) entry moves from 1/sqrt(2) to -1/sqrt(2)
        assert check.residual == pytest.approx(np.sqrt(2))

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            state, _, _ = fuzz_state(rng)
            structure = invariance_structure(state)
            pair = sample_invariant_pair(structure, rng)
            vec = matrix_to_vec(state)
            oracle = float(np.max(np.abs(np.kron(pair.u1, pair.u2) @ vec - vec)))
            assert abs(is_invariant(pair, state).residual - oracle) <= 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            is_invariant(UnitaryPair(np.eye(3), np.eye(2)), bell_state())

    def test_overflowing_product_has_inf_residual_and_no_warning(self):
        # the suite turns warnings into errors, so numpy's overflow warning would fail here
        rng = np.random.default_rng(61)
        state = random_state_with_spectrum(distinct_spectrum(rng, 3), 3, 3, rng)
        big = 1e200 * np.eye(3)
        check = is_invariant(UnitaryPair(big, big), state)
        assert not check.invariant
        assert check.residual == np.inf


class TestCommutantCheck:
    def test_sampled_pairs_commute_with_reductions(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            state, _, _ = fuzz_state(rng)
            pair = sample_invariant_pair(invariance_structure(state), rng)
            comm = commutant_check(pair, state, tol=1e-10)
            assert comm.side1 and comm.side2

    def test_necessary_but_not_sufficient(self):
        # maximally mixed reductions commute with everything, including
        # pairs that are not invariant
        state = bell_state()
        pair = UnitaryPair(HADAMARD, np.eye(2))
        comm = commutant_check(pair, state)
        assert comm.side1 and comm.side2
        assert not is_invariant(pair, state).invariant

    def test_cluster_mixing_fails_on_nondegenerate_state(self):
        state = nondegenerate_diag()
        comm = commutant_check(UnitaryPair(SIGMA_X, np.eye(2)), state)
        assert not comm.side1
        # [sigma_x, diag(0.8, 0.2)] has entries of size 0.6
        assert comm.residual1 == pytest.approx(0.6)

    def test_overflowing_commutator_has_inf_residual_and_no_warning(self):
        # entries of rho1 are at most 1, but a column of |rho1| sums to about 1.21,
        # so 1.7e308 times it overflows; the suite turns numpy's warning into an error
        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        state = state_from_matrix(np.array([[c, 0], [s, 0]], dtype=complex))
        comm = commutant_check(UnitaryPair(np.full((2, 2), 1.7e308), np.eye(2)), state)
        assert not comm.side1 and comm.side2
        assert comm.residual1 == np.inf
        assert comm.residual2 == 0.0


class TestUndoOperator:
    def test_bell_hadamard(self):
        result = undo_operator(HADAMARD, bell_state())
        assert isinstance(result, UnitaryPair)
        np.testing.assert_allclose(result.u2, HADAMARD, atol=1e-12)
        assert is_invariant(result, bell_state()).invariant

    def test_phase_gates_on_nondegenerate_state(self):
        alpha, beta = 0.3, -1.1
        u1 = np.diag([np.exp(1j * alpha), np.exp(1j * beta)])
        result = undo_operator(u1, nondegenerate_diag())
        assert isinstance(result, UnitaryPair)
        np.testing.assert_allclose(
            result.u2, np.diag([np.exp(-1j * alpha), np.exp(-1j * beta)]), atol=1e-12
        )

    def test_cluster_mixing_returns_no_solution(self):
        result = undo_operator(SIGMA_X, nondegenerate_diag())
        assert isinstance(result, NoSolution)
        assert result.off_block_mass == pytest.approx(1.0)

    def test_round_trip_from_sampled_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            state, _, _ = fuzz_state(rng)
            pair = sample_invariant_pair(invariance_structure(state), rng)
            result = undo_operator(pair.u1, state)
            assert isinstance(result, UnitaryPair)
            assert is_invariant(result, state, tol=1e-10).invariant

    def test_support_null_mixing_returns_no_solution(self):
        rng = np.random.default_rng(11)
        state = random_state_with_spectrum(np.array([1.0]), 2, 2, rng)
        form = schmidt_decompose(state)
        mix = np.array([[0, 1], [1, 0]], dtype=complex)
        u1 = form.s1.T @ mix @ form.s1.conj()
        assert isinstance(undo_operator(u1, state), NoSolution)

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            undo_operator(np.eye(2) * 2.0, bell_state())

    def test_overflowing_u1_is_not_unitary_without_a_warning(self):
        # the suite turns numpy's overflow warning into an error
        with pytest.raises(NotUnitary, match="by inf"):
            undo_operator(np.full((2, 2), 1.7e308), bell_state())

    @staticmethod
    def allowed_mask(structure, dim):
        mask = np.zeros((dim, dim), dtype=bool)
        for b in structure.blocks:
            mask[b.start:b.start + b.size, b.start:b.start + b.size] = True
        mask[structure.rank:, structure.rank:] = True
        return mask

    def test_off_block_mass_is_exact_max_outside_pattern(self):
        rng = np.random.default_rng(12)
        for d1, d2, rank in [(1, 3, 1), (3, 1, 1), (2, 5, 1), (5, 2, 2), (4, 6, 2),
                             (6, 4, 3), (5, 5, 5), (7, 3, 2), (8, 8, 4)]:
            sigma, _ = clustered_spectrum(rng, rank)
            state = random_state_with_spectrum(sigma, d1, d2, rng)
            structure = invariance_structure(state)
            u1 = haar_unitary(d1, rng)
            r1 = structure.schmidt.s1.conj() @ u1 @ structure.schmidt.s1.T
            outside = np.abs(r1[~self.allowed_mask(structure, d1)])
            result = undo_operator(u1, state)
            if outside.size and outside.max() > 1e-10:
                assert isinstance(result, NoSolution)
                assert result.off_block_mass == outside.max()
            else:
                assert isinstance(result, UnitaryPair)

    def test_solved_u2_has_conjugate_blocks_and_identity_null(self):
        rng = np.random.default_rng(13)
        for d1, d2, rank in [(1, 4, 1), (4, 1, 1), (3, 5, 2), (5, 3, 3), (6, 6, 3), (4, 4, 4)]:
            sigma, _ = clustered_spectrum(rng, rank)
            state = random_state_with_spectrum(sigma, d1, d2, rng)
            structure = invariance_structure(state)
            u1 = sample_invariant_pair(structure, rng).u1
            result = undo_operator(u1, state)
            assert isinstance(result, UnitaryPair)
            s1, s2 = structure.schmidt.s1, structure.schmidt.s2
            r1 = s1.conj() @ u1 @ s1.T
            r2 = s2.conj() @ result.u2 @ s2.T
            expected = np.zeros((d2, d2), dtype=complex)
            for b in structure.blocks:
                sl = slice(b.start, b.start + b.size)
                expected[sl, sl] = r1[sl, sl].conj()
            expected[rank:, rank:] = np.eye(d2 - rank)
            np.testing.assert_allclose(r2, expected, atol=1e-12)


class TestGroupDimension:
    @pytest.mark.parametrize(
        "make_state, expected",
        [
            (bell_state, 4),
            (ket00_state, 3),
            (nondegenerate_diag, 2),
        ],
    )
    def test_golden_dimensions(self, make_state, expected):
        state = make_state()
        assert group_dimension(invariance_structure(state)) == expected
        assert lie_algebra_dimension(state) == expected

    def test_rank3_in_3x4_distinct(self):
        rng = np.random.default_rng(12)
        sigma = distinct_spectrum(rng, 3)
        state = random_state_with_spectrum(sigma, 3, 4, rng)
        assert group_dimension(invariance_structure(state)) == 4
        assert lie_algebra_dimension(state) == 4

    def test_oracle_agreement_on_fuzzed_states(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            state, _, _ = fuzz_state(rng)
            assert group_dimension(invariance_structure(state)) == lie_algebra_dimension(state)


class TestLocalUnitaryOrbit:
    """Answers along the orbit psi -> a @ psi @ b.T of Haar local unitaries (a, b).

    The planted spectra keep relative cluster gaps of at least 0.1, far from every
    tolerance, so the structure is invariant and ``undo`` is covariant: with the
    identity null completion u2 is unique given u1 and psi, and
    (a u1 a^dag, b u2 b^dag) is the solution for psi'. Corpus, seed and the 1e-12
    bounds were fixed before the first run.
    """

    def test_structure_is_invariant_and_undo_covariant(self):
        rng = np.random.default_rng(31415)
        for _ in range(300):
            state, _, _ = fuzz_state(rng, lo=1, hi=6)
            a, b = haar_unitary(state.d1, rng), haar_unitary(state.d2, rng)
            moved = apply_local(a, b, state)
            structure = invariance_structure(state)
            moved_structure = invariance_structure(moved)

            clusters = structure.spectrum.clusters
            moved_clusters = moved_structure.spectrum.clusters
            assert moved_structure.rank == structure.rank
            assert [m for _, m in moved_clusters] == [m for _, m in clusters]
            assert moved_structure.null_dims == structure.null_dims
            assert group_dimension(moved_structure) == group_dimension(structure)
            assert lie_algebra_dimension(moved) == lie_algebra_dimension(state)
            for (v, _), (w, _) in zip(clusters, moved_clusters):
                assert abs(v - w) <= 1e-12

            u1 = sample_invariant_pair(structure, rng).u1
            u2 = undo_operator(u1, state).u2
            moved_u2 = undo_operator(a @ u1 @ a.conj().T, moved).u2
            assert np.max(np.abs(moved_u2 - b @ u2 @ b.conj().T)) <= 1e-12

    def test_sample_covariant_and_transposition_swaps_sides(self):
        # a pair sampled for psi, conjugated by (a, b), verifies on a @ psi @ b.T; on psi.T
        # the sides swap. Corpus, seed and bounds were fixed before the first run.
        rng = np.random.default_rng(27182)
        for _ in range(300):
            state, _, _ = fuzz_state(rng, lo=1, hi=6)
            a, b = haar_unitary(state.d1, rng), haar_unitary(state.d2, rng)
            structure = invariance_structure(state)
            pair = sample_invariant_pair(structure, rng)
            moved = UnitaryPair(a @ pair.u1 @ a.conj().T, b @ pair.u2 @ b.conj().T)
            assert is_invariant(moved, apply_local(a, b, state)).invariant

            transposed = state_from_matrix(state.psi.T)
            t_structure = invariance_structure(transposed)
            clusters = structure.spectrum.clusters
            t_clusters = t_structure.spectrum.clusters
            assert [m for _, m in t_clusters] == [m for _, m in clusters]
            assert t_structure.null_dims == structure.null_dims[::-1]
            assert group_dimension(t_structure) == group_dimension(structure)
            assert lie_algebra_dimension(transposed) == lie_algebra_dimension(state)
            for (v, _), (w, _) in zip(clusters, t_clusters):
                assert abs(v - w) <= 1e-12
            assert is_invariant(UnitaryPair(pair.u2, pair.u1), transposed).invariant
