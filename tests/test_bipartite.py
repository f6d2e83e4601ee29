"""Tests for the state-operator correspondence and Schmidt machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SIGMA_X, bell_state, clustered_spectrum, random_complex, random_state
from uli import (
    BadSpectrum,
    DimensionMismatch,
    NotNormalized,
    NotSorted,
    apply_local,
    cluster_spectrum,
    matrix_to_vec,
    partial_trace_1,
    partial_trace_2,
    random_state_with_spectrum,
    rect_diag,
    schmidt_decompose,
    state_from_matrix,
    svd,
    vec_to_matrix,
)

class TestVecMatrix:
    def test_basis_state(self):
        state = vec_to_matrix(np.array([1, 0, 0, 0], dtype=complex), 2, 2)
        np.testing.assert_array_equal(state.psi, [[1, 0], [0, 0]])

    def test_bell_vector(self):
        state = vec_to_matrix(np.array([1, 0, 0, 1]) / np.sqrt(2), 2, 2)
        np.testing.assert_allclose(state.psi, np.eye(2) / np.sqrt(2))

    def test_round_trip_exact(self):
        rng = np.random.default_rng(0)
        v = random_complex(rng, 1, 6).ravel()
        v /= np.linalg.norm(v)
        state = vec_to_matrix(v, 2, 3)
        np.testing.assert_array_equal(matrix_to_vec(state), v)

    @settings(deadline=None)
    @given(
        d1=st.integers(min_value=1, max_value=6),
        d2=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_all_shapes(self, d1, d2, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(d1 * d2) + 1j * rng.standard_normal(d1 * d2)
        v /= np.linalg.norm(v)
        np.testing.assert_array_equal(matrix_to_vec(vec_to_matrix(v, d1, d2)), v)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vec_to_matrix(np.ones(3) / np.sqrt(3), 2, 2)

    def test_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatch, match="must be a vector"):
            vec_to_matrix(np.eye(2) / np.sqrt(2), 2, 2)

    def test_rejects_non_normalized_and_carries_norm(self):
        with pytest.raises(NotNormalized) as excinfo:
            vec_to_matrix(np.array([1.0, 1.0, 0, 0]), 2, 2)
        assert excinfo.value.norm == pytest.approx(np.sqrt(2))

    def test_normalize_flag_records_input_norm(self):
        state = state_from_matrix(np.array([[2.0, 0], [0, 0]]), normalize=True)
        assert state.input_norm == pytest.approx(2.0)
        assert np.linalg.norm(state.psi) == pytest.approx(1.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-160])
    def test_normalize_refuses_overflowing_or_subnormal_norm(self, scale):
        # at 1e200 the norm overflows to inf and the state would rescale to
        # zero; at 1e-160 the squares are subnormal and it would land off 1
        m = np.array([[1.0, 0.5], [0.25, 1.0]]) * scale
        with pytest.raises(NotNormalized, match="cannot normalize"):
            state_from_matrix(m, normalize=True)

    def test_normalize_refuses_the_zero_matrix(self):
        with pytest.raises(NotNormalized, match="cannot normalize the zero matrix"):
            state_from_matrix(np.zeros((2, 2)), normalize=True)

    def test_normalize_names_an_underflowing_norm(self):
        # a non-zero matrix whose squared entries underflow is not the zero matrix
        with pytest.raises(NotNormalized, match="non-zero matrix underflows to 0.0"):
            state_from_matrix(np.full((2, 2), 1e-170), normalize=True)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_overflowing_norm_raises_without_a_numpy_warning(self, normalize):
        m = np.array([[1.0, 0.5], [0.25, 1.0]]) * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotNormalized):
                state_from_matrix(m, normalize=normalize)


class TestApplyLocal:
    def test_bit_flip_leaves_bell_invariant(self):
        out = apply_local(SIGMA_X, SIGMA_X, bell_state())
        np.testing.assert_allclose(out.psi, np.eye(2) / np.sqrt(2), atol=1e-15)

    def test_identity(self):
        rng = np.random.default_rng(1)
        state = random_state(rng, 3, 2)
        out = apply_local(np.eye(3), np.eye(2), state)
        np.testing.assert_array_equal(out.psi, state.psi)

    def test_kron_oracle_pins_vec_convention(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            state = random_state(rng, 3, 4)
            a = random_complex(rng, 3, 3)
            b = random_complex(rng, 4, 4)
            direct = matrix_to_vec(apply_local(a, b, state))
            oracle = np.kron(a, b) @ matrix_to_vec(state)
            assert np.max(np.abs(direct - oracle)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_local(np.eye(3), np.eye(2), bell_state())

    def test_overflowing_product_raises_without_a_numpy_warning(self):
        big = 1e200 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                apply_local(big, big, bell_state())


class TestPartialTraces:
    def test_bell_reductions_maximally_mixed(self):
        state = bell_state()
        np.testing.assert_allclose(partial_trace_2(state), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(partial_trace_1(state), np.eye(2) / 2, atol=1e-15)

    def test_product_state_reduction(self):
        state = state_from_matrix(np.array([[1, 0], [0, 0]], dtype=complex))
        np.testing.assert_array_equal(partial_trace_2(state), np.diag([1.0, 0.0]))

    def test_hermitian_psd_unit_trace(self):
        rng = np.random.default_rng(4)
        state = random_state(rng, 3, 4)
        for rho in (partial_trace_2(state), partial_trace_1(state)):
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-14)
            assert np.trace(rho).real == pytest.approx(1.0)
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-14

    def test_eigenvalues_match_squared_singular_values(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, 3, 4)
        squared = np.sort(svd(state.psi).sigma ** 2)[::-1]
        eig1 = np.sort(np.linalg.eigvalsh(partial_trace_2(state)))[::-1]
        eig2 = np.sort(np.linalg.eigvalsh(partial_trace_1(state)))[::-1]
        np.testing.assert_allclose(eig1[:3], squared, atol=1e-12)
        np.testing.assert_allclose(eig2, np.append(squared, 0.0), atol=1e-12)

    def test_brute_force_projector_oracle(self):
        # oracle: partial traces of the rank-one projector on the vectorized state
        rng = np.random.default_rng(6)
        state = random_state(rng, 3, 4)
        vec = matrix_to_vec(state)
        rho = np.outer(vec, vec.conj()).reshape(3, 4, 3, 4)
        np.testing.assert_allclose(
            partial_trace_2(state), np.einsum("ijkj->ik", rho), atol=1e-13
        )
        np.testing.assert_allclose(
            partial_trace_1(state), np.einsum("ijik->jk", rho), atol=1e-13
        )


class TestSchmidtDecompose:
    def test_already_diagonal(self):
        state = state_from_matrix(np.diag([np.sqrt(0.8), np.sqrt(0.2)]).astype(complex))
        form = schmidt_decompose(state)
        np.testing.assert_allclose(form.sigma, [np.sqrt(0.8), np.sqrt(0.2)])
        assert cluster_spectrum(form.sigma).rank == 2
        np.testing.assert_allclose(form.s1, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(form.s2, np.eye(2), atol=1e-14)

    def test_bell(self):
        form = schmidt_decompose(bell_state())
        np.testing.assert_allclose(form.sigma, np.full(2, 1 / np.sqrt(2)))
        assert cluster_spectrum(form.sigma).rank == 2

    def test_reconstruction_and_sigma_match(self):
        rng = np.random.default_rng(7)
        state = random_state(rng, 4, 3)
        form = schmidt_decompose(state)
        rebuilt = form.s1.T @ rect_diag(form.sigma, 4, 3) @ form.s2
        assert np.max(np.abs(rebuilt - state.psi)) <= 1e-12
        np.testing.assert_allclose(form.sigma, svd(state.psi).sigma, atol=1e-14)
        assert abs(np.sum(form.sigma**2) - 1.0) <= 1e-12

    def test_schmidt_vector_rows_rebuild_state(self):
        # sum_k sigma_k outer(row_k(s1), row_k(s2)) must reproduce psi
        rng = np.random.default_rng(8)
        state = random_state(rng, 3, 5)
        form = schmidt_decompose(state)
        rebuilt = sum(
            form.sigma[k] * np.outer(form.s1[k, :], form.s2[k, :])
            for k in range(len(form.sigma))
        )
        np.testing.assert_allclose(rebuilt, state.psi, atol=1e-12)


class TestClusterSpectrum:
    def test_maximally_entangled_pair(self):
        spectrum = cluster_spectrum(np.full(2, 1 / np.sqrt(2)))
        assert spectrum.clusters == ((pytest.approx(1 / np.sqrt(2)), 2),)
        assert spectrum.r_counts == {2: 1}
        assert spectrum.rank == 2

    def test_distinct_values(self):
        spectrum = cluster_spectrum(np.array([np.sqrt(0.8), np.sqrt(0.2)]))
        assert [m for _, m in spectrum.clusters] == [1, 1]
        assert spectrum.r_counts == {1: 2}
        assert spectrum.rank == 2

    def test_explicit_zero_goes_to_null_space(self):
        spectrum = cluster_spectrum(np.array([0.8, 0.6, 0.0]), rank_tol=1e-10, dims=(3, 3))
        assert spectrum.rank == 2
        assert spectrum.null_dims == (1, 1)

    def test_rejects_unsorted(self):
        with pytest.raises(NotSorted):
            cluster_spectrum(np.array([0.3, 0.5]))

    def test_rejects_negative(self):
        with pytest.raises(BadSpectrum):
            cluster_spectrum(np.array([0.5, -0.1]))

    def test_rejects_a_matrix(self):
        with pytest.raises(BadSpectrum, match="must be a vector"):
            cluster_spectrum(np.eye(2))

    def test_rejects_a_spectrum_longer_than_dims(self):
        with pytest.raises(DimensionMismatch):
            cluster_spectrum(np.array([0.8, 0.6]), dims=(1, 3))

    def test_near_degenerate_chains_with_loose_tolerance(self):
        sigma = np.array([0.8, 0.8 - 1e-9, 0.1])
        sigma = sigma / np.linalg.norm(sigma)
        loose = cluster_spectrum(sigma, degeneracy_tol=1e-8)
        tight = cluster_spectrum(sigma, degeneracy_tol=1e-12)
        assert [m for _, m in loose.clusters] == [2, 1]
        assert [m for _, m in tight.clusters] == [1, 1, 1]

    @pytest.mark.parametrize("sigma", [np.zeros(3), np.full(2, 1 / np.sqrt(2))])
    def test_min_gap_is_none_below_two_clusters(self, sigma):
        spectrum = cluster_spectrum(sigma)
        assert len(spectrum.clusters) < 2
        assert spectrum.min_gap() is None

    def test_min_gap_is_the_smallest_adjacent_difference(self):
        spectrum = cluster_spectrum(np.array([0.7, 0.5, 0.45, 0.1]))
        assert spectrum.min_gap() == 0.5 - 0.45

    def test_r_counts_keys_ascend(self):
        spectrum = cluster_spectrum(np.array([0.5, 0.5, 0.5, 0.4, 0.3, 0.3]))
        assert [m for _, m in spectrum.clusters] == [3, 1, 2]
        assert list(spectrum.r_counts.items()) == [(1, 1), (2, 1), (3, 1)]

    @settings(deadline=None)
    @given(
        rank=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_totals_on_fuzzed_spectra(self, rank, seed):
        rng = np.random.default_rng(seed)
        sigma, mults = clustered_spectrum(rng, rank)
        spectrum = cluster_spectrum(sigma, dims=(rank, rank))
        assert sum(m for _, m in spectrum.clusters) == spectrum.rank == rank
        assert sum(k * v for k, v in spectrum.r_counts.items()) == rank
        assert [m for _, m in spectrum.clusters] == mults
        values = [v for v, _ in spectrum.clusters]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


class TestRandomStateWithSpectrum:
    def test_rank_one_is_product(self):
        rng = np.random.default_rng(9)
        state = random_state_with_spectrum(np.array([1.0]), 2, 2, rng)
        assert cluster_spectrum(schmidt_decompose(state).sigma).rank == 1

    def test_maximally_entangled_core(self):
        rng = np.random.default_rng(10)
        state = random_state_with_spectrum(np.full(2, 1 / np.sqrt(2)), 2, 2, rng)
        np.testing.assert_allclose(
            schmidt_decompose(state).sigma, np.full(2, 1 / np.sqrt(2)), atol=1e-12
        )

    def test_recovers_requested_spectrum(self):
        rng = np.random.default_rng(11)
        sigma = np.sqrt(np.array([0.5, 0.3, 0.2]))
        state = random_state_with_spectrum(sigma, 3, 4, rng)
        np.testing.assert_allclose(schmidt_decompose(state).sigma, sigma, atol=1e-12)

    def test_rejects_empty_spectrum(self):
        with pytest.raises(BadSpectrum, match="non-empty"):
            random_state_with_spectrum([], 2, 2, np.random.default_rng(13))

    def test_rejects_bad_spectra(self):
        rng = np.random.default_rng(12)
        with pytest.raises(BadSpectrum):
            random_state_with_spectrum(np.array([1.0, 1.0]), 2, 2, rng)
        with pytest.raises(BadSpectrum):
            random_state_with_spectrum(np.array([0.5, 0.5, 0.5, 0.5]), 2, 3, rng)


def _clusters_by_loop(s, rank_tol, degeneracy_tol):
    """Reference: the per-value chaining loop ``cluster_spectrum`` replaced."""
    smax = float(s[0]) if s.size else 0.0
    rank = int(np.count_nonzero(s > rank_tol * smax))
    support = s[:rank]
    gap_cut = degeneracy_tol * smax
    clusters, start = [], 0
    for k in range(1, rank + 1):
        if k == rank or (support[k - 1] - support[k]) > gap_cut:
            clusters.append((float(support[start:k].mean()), k - start))
            start = k
    return tuple(clusters)


def _reference_spectra():
    rng = np.random.default_rng(17)
    yield np.array([]), 1e-10, 1e-8
    yield np.array([0.0, 0.0]), 1e-10, 1e-8
    yield np.array([0.8, 0.6]), np.nextafter(1.0, 0.0), 1e-8  # the largest cutoff: rank 1
    yield np.array([1.0]), 1e-10, 1e-8
    # gaps exactly at the cut stay chained; one ulp above splits
    step = 2.0**-20
    yield np.array([1.0, 1.0 - step, 1.0 - 2 * step, 0.5]), 1e-10, step
    yield np.array([1.0, 1.0 - step, 1.0 - 2 * step - 2.0**-52, 0.5]), 1e-10, step
    for _ in range(200):
        rank = int(rng.integers(1, 40))
        sigma, _ = clustered_spectrum(rng, rank)
        jitter = rng.uniform(0, 3e-8, sigma.size) * rng.integers(0, 2, sigma.size)
        sigma = np.sort(np.abs(sigma - jitter))[::-1]
        tail = np.zeros(int(rng.integers(0, 4)))
        yield np.concatenate([sigma, tail]), 10.0 ** rng.integers(-12, -2), 10.0 ** rng.integers(-10, -6)


def test_cluster_spectrum_matches_the_loop_bit_for_bit():
    for s, rank_tol, degeneracy_tol in _reference_spectra():
        got = cluster_spectrum(s, rank_tol=rank_tol, degeneracy_tol=degeneracy_tol,
                               dims=(s.size, s.size))
        want = _clusters_by_loop(s, rank_tol, degeneracy_tol)
        assert [(v.hex(), m, type(m)) for v, m in got.clusters] == \
            [(v.hex(), m, int) for v, m in want]


@pytest.mark.parametrize("sizes", [[1], [7], [8], [9], [15], [16], [17], [127], [128], [129],
                                   [1, 7, 8, 9, 15, 16, 17, 127, 128, 129],
                                   [129, 3, 8, 1, 128, 7, 16, 2, 17, 9]])
def test_cluster_means_match_mean_at_pairwise_boundaries(sizes):
    # numpy's mean sums up to 7 values left to right and 8 or more pairwise
    rng = np.random.default_rng(sum(sizes))
    values = np.sort(rng.uniform(0.1, 1.0, len(sizes)))[::-1] * (1.0 - 0.1 * np.arange(len(sizes)))
    segments = [np.sort(v * (1.0 + rng.uniform(-1e-12, 1e-12, k)))[::-1]
                for v, k in zip(values, sizes)]
    s = np.concatenate(segments)
    assert np.all(np.diff(s) <= 0)
    got = cluster_spectrum(s, rank_tol=0.0, degeneracy_tol=1e-9, dims=(s.size, s.size))
    assert [(v.hex(), m) for v, m in got.clusters] == \
        [(float(seg.mean()).hex(), seg.size) for seg in segments]
