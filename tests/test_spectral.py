import numpy as np
import pytest
import scipy.sparse as sp

from graphssl.graph import GraphConfig, gaussian_weights, knn_sparsify, normalized_laplacian
from graphssl.spectral import (
    SpectralBasis,
    apply_b,
    build_basis,
    l1_smoothness,
    l2_smoothness,
    smoothness_report,
)

PATH_GRAPH_2 = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def random_laplacian(n, seed, k=None):
    rng = np.random.default_rng(seed)
    w = gaussian_weights(rng.standard_normal((n, 2)), sigma=1.0)
    if k is not None:
        w = knn_sparsify(w, GraphConfig(k=k))
    return w, normalized_laplacian(w)


def reconstruct_factor(basis):
    return (basis.sqrt_eigenvalues[:, None] * basis.vectors.T)


class TestBuildBasis:
    def test_two_node_graph(self):
        basis = build_basis(PATH_GRAPH_2, 2)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        expected_0 = np.array([1.0, 1.0]) / np.sqrt(2.0)
        expected_1 = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(basis.vectors[:, 0] - s * expected_0) for s in (1, -1)) < 1e-10
        assert min(np.linalg.norm(basis.vectors[:, 1] - s * expected_1) for s in (1, -1)) < 1e-10

    def test_single_vector_is_scaled_degree_root(self):
        w, lap = random_laplacian(10, seed=0)
        basis = build_basis(lap, 1)
        assert basis.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
        deg = np.asarray(w.sum(axis=1)).ravel()
        null = np.sqrt(deg) / np.linalg.norm(np.sqrt(deg))
        v = basis.vectors[:, 0]
        assert min(np.linalg.norm(v - s * null) for s in (1, -1)) < 1e-8

    def test_full_factor_reconstructs_laplacian(self):
        _, lap = random_laplacian(20, seed=1)
        basis = build_basis(lap, 20)
        b = reconstruct_factor(basis)
        assert np.allclose(b.T @ b, lap.toarray(), atol=1e-6)

    def test_truncate_flag(self):
        _, lap = random_laplacian(8, seed=2)
        basis = build_basis(lap, 8)
        assert basis.full
        cut = basis.truncate(3)
        assert not cut.full and cut.m == 3
        assert np.array_equal(cut.eigenvalues, basis.eigenvalues[:3])


class TestApplyFactor:
    def test_eigenvector_maps_to_single_coordinate(self):
        _, lap = random_laplacian(12, seed=3)
        basis = build_basis(lap, 12)
        for i in (0, 3, 11):
            out = apply_b(basis, basis.vectors[:, i])
            expected = np.zeros(12)
            expected[i] = basis.sqrt_eigenvalues[i]
            assert np.allclose(np.abs(out), np.abs(expected), atol=1e-8)
            assert np.allclose(out, expected, atol=1e-8)

    def test_zero_vector(self):
        _, lap = random_laplacian(6, seed=4)
        basis = build_basis(lap, 6)
        assert np.allclose(apply_b(basis, np.zeros(6)), 0.0)

    def test_squared_norm_equals_quadratic_form(self):
        rng = np.random.default_rng(5)
        _, lap = random_laplacian(10, seed=5)
        basis = build_basis(lap, 10)
        for _ in range(20):
            f = rng.standard_normal(10)
            bf = apply_b(basis, f)
            assert float(bf @ bf) == pytest.approx(l2_smoothness(lap, f), abs=1e-8)

    def test_requires_full_basis(self):
        _, lap = random_laplacian(9, seed=6)
        basis = build_basis(lap, 4)
        with pytest.raises(ValueError, match="full"):
            apply_b(basis, np.zeros(9))


class TestL1Smoothness:
    def test_eigenvector_value_is_sqrt_eigenvalue(self):
        _, lap = random_laplacian(14, seed=7)
        basis = build_basis(lap, 14)
        for i in range(14):
            got = l1_smoothness(basis, basis.vectors[:, i])
            assert got == pytest.approx(basis.sqrt_eigenvalues[i], abs=1e-8)

    def test_linear_combination_rule(self):
        rng = np.random.default_rng(8)
        _, lap = random_laplacian(11, seed=8)
        basis = build_basis(lap, 11)
        for _ in range(20):
            alpha = rng.standard_normal(11)
            f = basis.vectors @ alpha
            expected = float(np.abs(alpha) @ basis.sqrt_eigenvalues)
            assert l1_smoothness(basis, f) == pytest.approx(expected, abs=1e-8)

    def test_null_direction_is_free(self):
        _, lap = random_laplacian(9, seed=9)
        basis = build_basis(lap, 9)
        assert l1_smoothness(basis, basis.vectors[:, 0]) == pytest.approx(0.0, abs=1e-10)

    def test_bounds_quadratic_smoothness_under_unit_level(self):
        # When the L1 measure is at most one it dominates the quadratic one.
        rng = np.random.default_rng(10)
        _, lap = random_laplacian(16, seed=10)
        basis = build_basis(lap, 16)
        for _ in range(500):
            f = rng.standard_normal(16)
            level = l1_smoothness(basis, f)
            if level > 0:
                f = f / (level / rng.uniform(0.05, 1.0))
            assert l2_smoothness(lap, f) <= l1_smoothness(basis, f) + 1e-10


class TestL2Smoothness:
    def test_null_vector_is_zero(self):
        w, lap = random_laplacian(8, seed=11)
        deg = np.asarray(w.sum(axis=1)).ravel()
        assert l2_smoothness(lap, np.sqrt(deg)) == pytest.approx(0.0, abs=1e-10)

    def test_two_node_value(self):
        assert l2_smoothness(PATH_GRAPH_2, np.array([1.0, -1.0])) == pytest.approx(4.0)


class TestSmoothnessReport:
    def test_zero_fitting_error_when_solution_matches(self):
        _, lap = random_laplacian(7, seed=12)
        basis = build_basis(lap, 7)
        y = np.random.default_rng(12).standard_normal(7)
        report = smoothness_report(basis, lap, y, y)
        assert report.fitting_error == pytest.approx(0.0, abs=1e-12)

    def test_all_zero(self):
        _, lap = random_laplacian(5, seed=13)
        basis = build_basis(lap, 5)
        report = smoothness_report(basis, lap, np.zeros(5), np.zeros(5))
        assert report.fitting_error == 0.0
        assert report.l2_smoothness == 0.0
        assert report.l1_smoothness == 0.0

    def test_requires_full_basis(self):
        _, lap = random_laplacian(6, seed=14)
        basis = build_basis(lap, 2)
        with pytest.raises(ValueError, match="full"):
            smoothness_report(basis, lap, np.zeros(6), np.zeros(6))


class TestSpectralBasisInvariants:
    def test_rejects_descending_values(self):
        with pytest.raises(ValueError, match="ascending"):
            SpectralBasis(vectors=np.eye(2), eigenvalues=np.array([1.0, 0.0]), full=True)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            SpectralBasis(vectors=np.ones((2, 2)), eigenvalues=np.array([0.0, 1.0]), full=True)

    def test_rejects_out_of_range_eigenvalue(self):
        with pytest.raises(ValueError, match="range"):
            SpectralBasis(vectors=np.eye(2), eigenvalues=np.array([0.0, 2.5]), full=True)

    def test_rejects_inconsistent_full_flag(self):
        with pytest.raises(ValueError, match="full"):
            SpectralBasis(vectors=np.eye(3)[:, :2], eigenvalues=np.array([0.0, 1.0]), full=True)

    def test_clamps_small_negatives(self):
        # build_basis clamps PSD rounding noise to zero before the sqrt.
        _, lap = random_laplacian(10, seed=15)
        basis = build_basis(lap, 10)
        assert np.all(basis.eigenvalues >= 0.0)
        assert np.all(np.isfinite(basis.sqrt_eigenvalues))
