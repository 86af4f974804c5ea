import numpy as np
import pytest
import scipy.sparse as sp

from oracle_graph import gaussian_kernel
from oracle_grid import grid_minimum, random_instance

from graphssl import solver
from graphssl.errors import ConvergenceError
from graphssl.graph import normalized_laplacian
from graphssl.solver import (
    KKT_TOL,
    kkt_residual,
    l1_coefficients,
    l1_fit,
    objective,
    soft_threshold,
)
from graphssl.spectral import SpectralBasis, build_basis, l1_smoothness
from graphssl.ssl import l2_ssl_fit

PATH_GRAPH_2 = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def l2_objective(lap, y, lam, f):
    """The quadratic objective 0.5 ||f - y||^2 + (lam / 2) f' L f."""
    f = np.asarray(f, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = f - y
    return 0.5 * float(diff @ diff) + 0.5 * lam * float(f @ (lap @ f))


def random_basis(rng, n, m):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigenvalues = np.sort(rng.uniform(0.0, 2.0, size=m))
    eigenvalues[0] = 0.0
    return SpectralBasis(vectors=q[:, :m], eigenvalues=eigenvalues)


class TestSoftThreshold:
    def test_basic_values(self):
        assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        assert np.array_equal(soft_threshold(x, 0.0), x)

    def test_elementwise_thresholds(self):
        out = soft_threshold(np.array([2.0, -2.0]), np.array([0.5, 3.0]))
        assert np.allclose(out, [1.5, 0.0])

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_threshold(1.0, -0.1)


class TestObjective:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(1)
        basis = random_basis(rng, 8, 3)
        y = rng.standard_normal(8)
        assert objective(basis, y, 0.7, np.zeros(3)) == pytest.approx(0.5 * y @ y)

    def test_projection_value_without_penalty(self):
        rng = np.random.default_rng(2)
        basis = random_basis(rng, 9, 4)
        y = rng.standard_normal(9)
        c = basis.vectors.T @ y
        expected = 0.5 * float(y @ y) - 0.5 * float(c @ c)
        assert objective(basis, y, 0.0, c) == pytest.approx(expected, abs=1e-12)

    def test_full_basis_matches_vector_objective(self):
        # With every eigenvector retained, the coefficient objective equals
        # the original vector objective evaluated at the basis expansion.
        rng = np.random.default_rng(3)
        w = gaussian_kernel(rng.standard_normal((10, 2)), 1.0)
        lap = normalized_laplacian(w)
        basis = build_basis(lap, 10)
        lam = 0.3
        for _ in range(10):
            alpha = rng.standard_normal(10)
            y = rng.standard_normal(10)
            f = basis.vectors @ alpha
            via_alpha = objective(basis, y, lam, alpha)
            via_vector = 0.5 * float((f - y) @ (f - y)) + lam * l1_smoothness(basis, f)
            assert via_alpha == pytest.approx(via_vector, abs=1e-10)


class TestFista:
    """The closed-form weighted-L1 coefficient solve, solver.l1_coefficients."""

    def test_zero_penalty_returns_projection_coefficients(self):
        rng = np.random.default_rng(4)
        basis = random_basis(rng, 12, 5)
        y = rng.standard_normal(12)
        alpha = l1_coefficients(basis, y, 0.0)
        assert np.allclose(alpha, basis.vectors.T @ y, atol=1e-10)

    def test_large_penalty_keeps_only_null_direction(self):
        rng = np.random.default_rng(5)
        basis = random_basis(rng, 12, 5)
        y = rng.standard_normal(12)
        alpha = l1_coefficients(basis, y, 1e6)
        c = basis.vectors.T @ y
        assert alpha[0] == pytest.approx(c[0], abs=1e-10)  # unpenalized null direction
        assert np.all(alpha[1:] == 0.0)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            basis, y, lam = random_instance(rng)
            best_val, _ = grid_minimum(basis, y, lam, check_points=10, rng=rng)
            alpha = l1_coefficients(basis, y, lam)
            assert objective(basis, y, lam, alpha) <= best_val + 1e-4

    def test_kkt_residual_small_on_converged_runs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            basis = random_basis(rng, 15, 6)
            y = rng.standard_normal(15)
            lam = float(rng.uniform(0.0, 2.0))
            alpha = l1_coefficients(basis, y, lam)
            assert kkt_residual(basis, y, lam, alpha) <= 1e-6

    def test_objective_bounded_by_zero_and_projection(self):
        rng = np.random.default_rng(8)
        basis = random_basis(rng, 20, 8)
        y = rng.standard_normal(20)
        best = objective(basis, y, 0.5, l1_coefficients(basis, y, 0.5))
        assert best <= objective(basis, y, 0.5, np.zeros(8))
        assert best <= objective(basis, y, 0.5, basis.vectors.T @ y)

    def test_unit_spectral_norm_of_basis(self):
        # Power iteration on the Gram matrix confirms the orthonormality the
        # closed form rests on.
        rng = np.random.default_rng(10)
        basis = random_basis(rng, 30, 10)
        gram = basis.vectors.T @ basis.vectors
        v = rng.standard_normal(10)
        v /= np.linalg.norm(v)
        for _ in range(200):
            v = gram @ v
            v /= np.linalg.norm(v)
        assert float(v @ gram @ v) == pytest.approx(1.0, abs=1e-10)

    def test_penalty_path_is_monotone(self):
        rng = np.random.default_rng(11)
        basis = random_basis(rng, 16, 6)
        y = rng.standard_normal(16)
        weights = basis.sqrt_eigenvalues
        previous = None
        for lam in (0.01, 0.1, 0.5, 1.0, 5.0):
            alpha = l1_coefficients(basis, y, lam)
            weighted = float(weights @ np.abs(alpha))
            if previous is not None:
                assert weighted <= previous + 1e-8
            previous = weighted

    def test_zero_target(self):
        rng = np.random.default_rng(13)
        basis = random_basis(rng, 8, 3)
        alpha = l1_coefficients(basis, np.zeros(8), 0.2)
        assert np.all(alpha == 0.0)

    def test_block_matches_column_calls_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for n, m, c in ((12, 5, 3), (60, 12, 2), (300, 30, 40)):
            basis = random_basis(rng, n, m)
            y = rng.standard_normal((n, c))
            y[rng.random((n, c)) < 0.5] = 0.0
            block = l1_coefficients(basis, y, 0.3)
            assert block.shape == (m, c)
            for j in range(c):
                assert np.array_equal(block[:, j], l1_coefficients(basis, y[:, j], 0.3))
                assert np.array_equal(block[:, [j]], l1_coefficients(basis, y[:, [j]], 0.3))

    def test_block_checks_sum_and_maximize_over_columns(self):
        rng = np.random.default_rng(18)
        basis = random_basis(rng, 10, 4)
        y = rng.standard_normal((10, 3))
        alpha = rng.standard_normal((4, 3))
        columns = [(y[:, j], alpha[:, j]) for j in range(3)]
        assert objective(basis, y, 0.4, alpha) == pytest.approx(
            sum(objective(basis, t, 0.4, a) for t, a in columns), rel=1e-12)
        assert kkt_residual(basis, y, 0.4, alpha) == pytest.approx(
            max(kkt_residual(basis, t, 0.4, a) for t, a in columns), rel=1e-12)

    def test_rejects_negative_lam_and_wrong_shape(self):
        rng = np.random.default_rng(19)
        basis = random_basis(rng, 8, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            l1_coefficients(basis, np.zeros(8), -0.1)
        with pytest.raises(ValueError, match="shape"):
            l1_coefficients(basis, np.zeros(7), 0.1)


class TestL1Fit:
    """solver.l1_fit checks the residual against KKT_TOL * max|y|, so y's scale is moot."""

    @pytest.mark.parametrize("scale", [1e6, 1e-6])
    def test_scaling_y_keeps_the_verdict_and_the_labels(self, monkeypatch, scale):
        # lam scales with y, so the minimizer scales with it.
        basis = random_basis(np.random.default_rng(20), 30, 8)
        y = np.zeros((30, 3))
        y[[0, 5, 9, 14, 22, 27], [0, 1, 2, 0, 1, 2]] = 1.0
        labels = np.argmax(basis.expand(l1_fit(basis, y, 0.2)[0]), axis=1)
        alpha, kkt = l1_fit(basis, scale * y, scale * 0.2)
        assert kkt <= KKT_TOL * scale
        assert np.array_equal(np.argmax(basis.expand(alpha), axis=1), labels)
        original = solver.l1_coefficients
        monkeypatch.setattr(solver, "l1_coefficients",
                            lambda *args: original(*args) + 1e-6 * scale)
        with pytest.raises(ConvergenceError, match="KKT residual .* exceeds"):
            l1_fit(basis, scale * y, scale * 0.2)


def l2_solve(lap, y, lam):
    """The quadratic baseline's solution for one target vector."""
    return l2_ssl_fit(lap, np.asarray(y)[:, None], lam).scores[:, 0]


class TestQuadraticBaseline:
    def test_no_regularization_returns_target(self):
        rng = np.random.default_rng(14)
        w = gaussian_kernel(rng.standard_normal((8, 2)), 1.0)
        lap = normalized_laplacian(w)
        y = rng.standard_normal(8)
        assert np.allclose(l2_solve(lap, y, 0.0), y, atol=1e-10)

    def test_two_node_hand_instance(self):
        # (I + 2 L) f = [1, 0] has the exact solution [0.6, 0.4].
        f = l2_solve(PATH_GRAPH_2, np.array([1.0, 0.0]), 2.0)
        assert np.allclose(f, [0.6, 0.4], atol=1e-10)

    def test_residual_contract(self):
        rng = np.random.default_rng(15)
        w = gaussian_kernel(rng.standard_normal((12, 3)), 0.8)
        lap = normalized_laplacian(w)
        y = rng.standard_normal(12)
        lam = 3.0
        f = l2_solve(lap, y, lam)
        residual = np.linalg.norm(f + lam * (lap @ f) - y)
        assert residual <= 1e-8 * np.linalg.norm(y)

    def test_minimizer_dominates_probe_points(self):
        rng = np.random.default_rng(16)
        w = gaussian_kernel(rng.standard_normal((10, 2)), 1.0)
        lap = normalized_laplacian(w)
        for _ in range(5):
            y = rng.standard_normal(10)
            lam = float(rng.uniform(0.1, 5.0))
            f = l2_solve(lap, y, lam)
            best = l2_objective(lap, y, lam, f)
            assert best <= l2_objective(lap, y, lam, y) + 1e-10
            assert best <= l2_objective(lap, y, lam, np.zeros(10)) + 1e-10

    def test_rejects_negative_lam(self):
        with pytest.raises(ValueError):
            l2_solve(PATH_GRAPH_2, np.array([1.0, 0.0]), -1.0)
