"""Tests for the LAPACK-stand-in substrate: banded Cholesky, Householder
tridiagonalization, and the three tridiagonal eigensolvers, all validated
against numpy's dense reference routines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    BandedCholesky,
    band_from_dense,
    dense_from_band,
    eig_bisection,
    eig_divide_conquer,
    eig_qr,
    random_spd_band,
    sturm_count,
    tridiagonalize,
)

# The strictly diagonally dominant generator from repro.linalg: PD for
# every (order, bandwidth, seed), unlike the old fixed-shift generator.
random_spd_banded = random_spd_band


def random_tridiag(n, rng):
    return rng.standard_normal(n), rng.standard_normal(max(0, n - 1))


def check_eig(d, e, lam, Q, tol=1e-8):
    n = d.shape[0]
    T = np.diag(d)
    if n > 1:
        T += np.diag(e, -1) + np.diag(e, 1)
    expected = np.sort(np.linalg.eigvalsh(T))
    np.testing.assert_allclose(lam, expected, atol=tol, rtol=tol)
    residual = T @ Q - Q * lam[None, :]
    assert np.max(np.abs(residual)) < tol * max(1.0, np.max(np.abs(T)))
    ortho = Q.T @ Q - np.eye(n)
    assert np.max(np.abs(ortho)) < 1e-6


class TestBandStorage:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = random_spd_banded(9, 3, rng)
        band = band_from_dense(dense, 3)
        np.testing.assert_allclose(dense_from_band(band), dense)


class TestBandedCholesky:
    @pytest.mark.parametrize("order,bandwidth", [(1, 0), (5, 1), (8, 3), (20, 4), (17, 6)])
    def test_blocked_solve(self, order, bandwidth):
        rng = np.random.default_rng(order * 7 + bandwidth)
        dense = random_spd_banded(order, bandwidth, rng)
        rhs = rng.standard_normal(order)
        chol = BandedCholesky(band_from_dense(dense, bandwidth))
        x = chol.solve(rhs)
        np.testing.assert_allclose(dense @ x, rhs, atol=1e-8)

    @pytest.mark.parametrize("order,bandwidth", [(6, 2), (12, 3)])
    def test_reference_matches_blocked(self, order, bandwidth):
        rng = np.random.default_rng(99)
        dense = random_spd_banded(order, bandwidth, rng)
        rhs = rng.standard_normal(order)
        band = band_from_dense(dense, bandwidth)
        x_ref = BandedCholesky(band, reference=True).solve(rhs)
        x_blk = BandedCholesky(band).solve(rhs)
        np.testing.assert_allclose(x_ref, x_blk, atol=1e-9)

    def test_multiple_rhs_reuse_factorization(self):
        rng = np.random.default_rng(5)
        dense = random_spd_banded(10, 2, rng)
        chol = BandedCholesky(band_from_dense(dense, 2))
        for _ in range(3):
            rhs = rng.standard_normal(10)
            np.testing.assert_allclose(dense @ chol.solve(rhs), rhs, atol=1e-8)

    def test_not_positive_definite(self):
        band = band_from_dense(-np.eye(4), 0)
        with pytest.raises(np.linalg.LinAlgError):
            BandedCholesky(band)

    def test_work_accounting(self):
        rng = np.random.default_rng(1)
        dense = random_spd_banded(16, 3, rng)
        chol = BandedCholesky(band_from_dense(dense, 3))
        base = chol.work
        chol.solve(np.ones(16))
        assert chol.work > base

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 15), st.integers(0, 4), st.integers(0, 1000))
    def test_property_solve(self, order, bandwidth, seed):
        bandwidth = min(bandwidth, order - 1)
        rng = np.random.default_rng(seed)
        dense = random_spd_banded(order, bandwidth, rng)
        rhs = rng.standard_normal(order)
        x = BandedCholesky(band_from_dense(dense, bandwidth)).solve(rhs)
        np.testing.assert_allclose(dense @ x, rhs, atol=1e-7)

    def test_regression_order1_bandwidth0_seed856(self):
        """Regression: the old shift-based generator produced a matrix
        that was not positive definite at pivot 0 for this triple (a
        single N(0,1) diagonal draw below the fixed -2 shift)."""
        rng = np.random.default_rng(856)
        dense = random_spd_banded(1, 0, rng)
        assert dense[0, 0] > 0
        chol = BandedCholesky(band_from_dense(dense, 0))  # must not raise
        rhs = rng.standard_normal(1)
        np.testing.assert_allclose(dense @ chol.solve(rhs), rhs, atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 5), st.integers(0, 5000))
    def test_generator_always_positive_definite(self, order, bandwidth, seed):
        bandwidth = min(bandwidth, order - 1)
        dense = random_spd_band(order, bandwidth, np.random.default_rng(seed))
        assert np.linalg.eigvalsh(dense).min() > 0

    def test_generator_rejects_bad_bandwidth(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_spd_band(3, 3, rng)
        with pytest.raises(ValueError):
            random_spd_band(0, 0, rng)


class TestHouseholder:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_reduction(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        d, e, Q = tridiagonalize(A)
        T = np.diag(d)
        if n > 1:
            T += np.diag(e, -1) + np.diag(e, 1)
        np.testing.assert_allclose(Q @ T @ Q.T, A, atol=1e-10)
        np.testing.assert_allclose(Q @ Q.T, np.eye(n), atol=1e-10)

    def test_eigenvalues_preserved(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((12, 12))
        A = (A + A.T) / 2
        d, e, _ = tridiagonalize(A)
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(T), np.linalg.eigvalsh(A), atol=1e-9
        )

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            tridiagonalize(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSturmCount:
    def test_counts_bracket_spectrum(self):
        rng = np.random.default_rng(2)
        d, e = random_tridiag(15, rng)
        T = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        lam = np.linalg.eigvalsh(T)
        assert sturm_count(d, e, lam[0] - 1.0) == 0
        assert sturm_count(d, e, lam[-1] + 1.0) == 15
        mid = (lam[6] + lam[7]) / 2
        assert sturm_count(d, e, mid) == 7

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(8)
        d, e = random_tridiag(10, rng)
        xs = np.linspace(-4, 4, 9)
        vec = sturm_count(d, e, xs)
        assert list(vec) == [sturm_count(d, e, float(x)) for x in xs]


class TestEigQR:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 40])
    def test_random(self, n):
        rng = np.random.default_rng(n * 3 + 1)
        d, e = random_tridiag(n, rng)
        lam, Q = eig_qr(d, e)
        check_eig(d, e, lam, Q)

    def test_diagonal_input(self):
        d = np.array([3.0, 1.0, 2.0])
        e = np.zeros(2)
        lam, Q = eig_qr(d, e)
        np.testing.assert_allclose(lam, [1.0, 2.0, 3.0])


class TestEigBisection:
    @pytest.mark.parametrize("n", [1, 2, 5, 16, 40])
    def test_random(self, n):
        rng = np.random.default_rng(n * 5 + 2)
        d, e = random_tridiag(n, rng)
        lam, Q = eig_bisection(d, e)
        check_eig(d, e, lam, Q, tol=1e-7)

    def test_repeated_eigenvalues(self):
        # Two decoupled identical 2x2 blocks -> doubled spectrum.
        d = np.array([1.0, 2.0, 1.0, 2.0])
        e = np.array([0.5, 0.0, 0.5])
        lam, Q = eig_bisection(d, e)
        check_eig(d, e, lam, Q, tol=1e-7)


class TestEigDivideConquer:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16, 33, 64])
    def test_random(self, n):
        rng = np.random.default_rng(n * 11 + 3)
        d, e = random_tridiag(n, rng)
        lam, Q = eig_divide_conquer(d, e)
        check_eig(d, e, lam, Q, tol=1e-7)

    def test_zero_coupling_splits_cleanly(self):
        d = np.array([1.0, 2.0, 5.0, 6.0])
        e = np.array([0.3, 0.0, 0.2])
        lam, Q = eig_divide_conquer(d, e, base_size=1)
        check_eig(d, e, lam, Q, tol=1e-9)

    def test_custom_recursion_hook(self):
        calls = []

        def hook(dd, ee):
            calls.append(len(dd))
            return eig_qr(dd, ee)

        rng = np.random.default_rng(4)
        d, e = random_tridiag(12, rng)
        lam, Q = eig_divide_conquer(d, e, recurse=hook)
        check_eig(d, e, lam, Q, tol=1e-7)
        assert calls == [6, 6]

    def test_deflation_with_tiny_coupling(self):
        d = np.linspace(1, 10, 10)
        e = np.full(9, 1e-14)
        lam, Q = eig_divide_conquer(d, e)
        check_eig(d, e, lam, Q, tol=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 500))
    def test_property_matches_numpy(self, n, seed):
        rng = np.random.default_rng(seed)
        d, e = random_tridiag(n, rng)
        lam, Q = eig_divide_conquer(d, e)
        check_eig(d, e, lam, Q, tol=1e-6)


class TestCrossAlgorithmConsistency:
    """The three primitives must agree with each other (paper §3.5's
    consistency checking applied to the eigen benchmark)."""

    @pytest.mark.parametrize("n", [7, 24])
    def test_eigenvalues_agree(self, n):
        rng = np.random.default_rng(n)
        d, e = random_tridiag(n, rng)
        lam_qr, _ = eig_qr(d, e)
        lam_bi, _ = eig_bisection(d, e)
        lam_dc, _ = eig_divide_conquer(d, e)
        np.testing.assert_allclose(lam_qr, lam_bi, atol=1e-7)
        np.testing.assert_allclose(lam_qr, lam_dc, atol=1e-7)
