"""Tests for the dense linear algebra kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex
from uli import (
    ConvergenceFailure,
    DimensionMismatch,
    haar_unitary,
    real_nullspace_dimension,
    rect_diag,
    svd,
    unitarity_defect,
)
from uli.matkernel import numerical_rank, singular_values


class TestSvd:
    def test_diagonal_input(self):
        res = svd(np.diag([1.0, 0.0]))
        np.testing.assert_allclose(res.sigma, [1.0, 0.0])

    def test_scaled_identity(self):
        res = svd(np.eye(2) / np.sqrt(2))
        np.testing.assert_allclose(res.sigma, np.full(2, 1 / np.sqrt(2)))

    def test_reconstruction_random_3x4(self):
        rng = np.random.default_rng(42)
        m = random_complex(rng, 3, 4)
        res = svd(m)
        # oracle: direct multiplication of the factors
        rebuilt = res.s1.T @ rect_diag(res.sigma, 3, 4) @ res.s2
        assert np.max(np.abs(rebuilt - m)) <= 1e-12 * max(1.0, res.sigma[0])

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (4, 3), (3, 5), (6, 6)])
    def test_factor_unitarity_and_ordering(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        res = svd(random_complex(rng, *shape))
        assert unitarity_defect(res.s1.T) <= 1e-12
        assert unitarity_defect(res.s2.conj().T) <= 1e-12
        assert np.all(np.diff(res.sigma) <= 0)
        assert np.all(res.sigma >= 0)

    def test_deterministic_for_identical_input(self):
        rng = np.random.default_rng(5)
        m = random_complex(rng, 4, 4)
        a, b = svd(m), svd(m)
        np.testing.assert_array_equal(a.s1.T, b.s1.T)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.s2.conj().T, b.s2.conj().T)

    def test_phase_convention_pivot_real_positive(self):
        rng = np.random.default_rng(6)
        res = svd(random_complex(rng, 3, 4))
        for k in range(res.s1.T.shape[1]):
            col = res.s1.T[:, k]
            pivot = col[np.argmax(np.abs(col))]
            assert pivot.real > 0
            assert abs(pivot.imag) <= 1e-14

    @pytest.mark.parametrize("make", [
        lambda rng: random_complex(rng, 1, 1),
        lambda rng: random_complex(rng, 1, 6),
        lambda rng: random_complex(rng, 6, 1),
        lambda rng: random_complex(rng, 3, 5),
        lambda rng: random_complex(rng, 5, 3),
        lambda rng: random_complex(rng, 128, 128),
        lambda rng: np.eye(4),
        lambda rng: np.eye(3, 5),
        lambda rng: np.ones((4, 4)),
        lambda rng: np.ones((2, 7)),
    ])
    def test_phase_convention_matches_column_loop_bit_for_bit(self, make):
        a = np.asarray(make(np.random.default_rng(7)), dtype=np.complex128)
        # reference: phase-fix one left singular vector at a time, with the
        # scalar modulus of its first largest-modulus entry
        u, _, vh = np.linalg.svd(a, full_matrices=True)
        u, vh = u.copy(), vh.copy()
        paired = min(u.shape[0], vh.shape[0])
        for k in range(u.shape[1]):
            col = u[:, k]
            pivot = col[np.argmax(np.abs(col))]
            phase = pivot / abs(pivot)
            u[:, k] = col * np.conj(phase)
            if k < paired:
                vh[k, :] = vh[k, :] * phase
        for k in range(paired, vh.shape[0]):
            row = vh[k, :]
            pivot = row[np.argmax(np.abs(row))]
            phase = pivot / abs(pivot)
            vh[k, :] = row * np.conj(phase)
        res = svd(a)
        assert res.s1.T.tobytes() == u.tobytes()
        assert res.s2.tobytes() == vh.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svd(np.zeros((0, 2)))

    def test_rejects_overflowing_singular_values(self):
        # finite entries whose largest singular value, 3.4e308, exceeds the float64 range
        with pytest.raises(ValueError, match="singular values overflow"):
            svd(np.full((2, 2), 1.7e308))

    def test_rejects_three_dimensional(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            svd(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("func", [svd, singular_values])
    def test_lapack_failure_is_a_convergence_failure(self, failing_svd, func):
        with pytest.raises(ConvergenceFailure, match="SVD did not converge"):
            func(np.eye(2))


def test_unitarity_defect_rejects_non_square():
    with pytest.raises(DimensionMismatch, match="square"):
        unitarity_defect(np.ones((2, 3)))


class TestHaarUnitary:
    def test_u1_is_unit_modulus(self):
        u = haar_unitary(1, np.random.default_rng(0))
        assert u.shape == (1, 1)
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16])
    def test_unitary_within_tolerance(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            assert unitarity_defect(haar_unitary(n, rng)) <= 1e-12

    def test_first_entry_moment(self):
        # Haar moment oracle: |U_00|^2 on U(2) is uniform on [0, 1], so the
        # sample mean over 10^4 draws sits within 3 standard errors of 1/2.
        rng = np.random.default_rng(1234)
        samples = np.array([abs(haar_unitary(2, rng)[0, 0]) ** 2 for _ in range(10_000)])
        stderr = np.sqrt(1.0 / 12.0 / samples.size)
        assert abs(samples.mean() - 0.5) <= 3 * stderr

    def test_trace_moments(self):
        # Diaconis & Shahshahani (1994): E|tr U|^(2k) = k! on U(n) for n >= k, so on
        # U(4) |tr U|^2 has mean 1 and variance 2! - 1 = 1, and |tr U|^4 has mean 2
        # and variance 4! - 2!^2 = 20. Both sample means over 10^4 draws sit within
        # 5 standard errors. Unlike |U_00|, the trace sees the phase of every column.
        rng = np.random.default_rng(2024)
        n_draws = 10_000
        t2 = np.array([abs(np.trace(haar_unitary(4, rng))) ** 2 for _ in range(n_draws)])
        assert abs(t2.mean() - 1.0) <= 5 * np.sqrt(1.0 / n_draws)
        assert abs((t2**2).mean() - 2.0) <= 5 * np.sqrt(20.0 / n_draws)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            haar_unitary(0, np.random.default_rng(0))


class TestRectDiag:
    def test_wide_and_tall(self):
        np.testing.assert_array_equal(
            rect_diag([1, 2], 2, 3), np.array([[1, 0, 0], [0, 2, 0]], dtype=complex)
        )
        np.testing.assert_array_equal(
            rect_diag([1], 3, 2), np.array([[1, 0], [0, 0], [0, 0]], dtype=complex)
        )
        with pytest.raises(DimensionMismatch, match="3 diagonal values"):
            rect_diag([1, 2, 3], 2, 2)


class TestRealNullspaceDimension:
    def test_zero_matrix(self):
        assert real_nullspace_dimension(np.zeros((3, 3))) == 3

    def test_identity(self):
        assert real_nullspace_dimension(np.eye(3)) == 0

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert real_nullspace_dimension(np.outer(x, y)) == 3

    @pytest.mark.parametrize("n", range(1, 17))
    def test_identity_and_zero_all_sizes(self, n):
        assert real_nullspace_dimension(np.eye(n)) == 0
        assert real_nullspace_dimension(np.zeros((n, n))) == n

    @settings(deadline=None)
    @given(
        rows=st.integers(min_value=1, max_value=8),
        cols=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_rank_nullity_on_random_products(self, rows, cols, seed, data):
        # oracle: a product of full-rank factors with inner size k has rank k
        k = data.draw(st.integers(min_value=0, max_value=min(rows, cols)))
        rng = np.random.default_rng(seed)
        if k == 0:
            m = np.zeros((rows, cols))
        else:
            m = rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        assert real_nullspace_dimension(m) == cols - k

    def test_wide_full_rank(self):
        rng = np.random.default_rng(10)
        m = rng.standard_normal((3, 7))
        assert real_nullspace_dimension(m) == 4

    @pytest.mark.parametrize("coeffs, message", [
        (np.ones(3), "2-d"),
        (np.zeros((0, 3)), "non-empty"),
        (np.array([[1.0, np.nan]]), "non-finite"),
    ])
    def test_rejects_bad_coefficients(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            real_nullspace_dimension(coeffs)


@pytest.mark.parametrize("sigma, tol, rank", [
    ([1.0, 0.0], 0.0, 1),
    ([0.0, 0.0, 0.0], 0.0, 0),
    ([1.0, 0.5], 0.5, 1),  # a value on the cutoff counts as zero
    ([], 1e-10, 0),
])
def test_numerical_rank_counts_values_above_the_cutoff(sigma, tol, rank):
    assert numerical_rank(np.array(sigma), tol) == rank


def test_overflowing_unitarity_defect_is_inf_without_a_warning():
    # the suite turns numpy's overflow warning into an error
    assert unitarity_defect(np.full((2, 2), 1.7e308)) == np.inf


def _defect_with_eye(m):
    """The expression ``_unitarity_defect`` replaced: subtract a fresh identity."""
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def test_unitarity_defect_keeps_the_bits_of_subtracting_the_identity():
    rng = np.random.default_rng(23)
    cases = []
    for n in (1, 2, 3, 8, 17, 32):
        u = haar_unitary(n, rng)
        for scale in (0.0, 1e-15, 1e-9, 1e-3):
            cases.append(u + scale * random_complex(rng, n, n))
    signed = np.array([[-0.0 - 0.0j, 1.0 - 0.0j], [1.0 + 0.0j, 0.0 - 0.0j]])
    cases += [signed, -signed, np.diag([-0.0 + 1.0j, 1.0 - 0.0j])]
    for m in cases:
        assert unitarity_defect(m).hex() == _defect_with_eye(m).hex()
