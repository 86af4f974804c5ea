import numpy as np
import pytest
import scipy.sparse as sp

from graphssl.datasets import gaussian_blobs
from graphssl.errors import ConvergenceError
from graphssl.graph import GraphConfig, gaussian_knn_graph, gaussian_weights, normalized_laplacian
from graphssl.harness import run_moons_benchmark, run_moons_trial
from graphssl.solver import l2_ssl_solve, soft_threshold
from graphssl.spectral import build_basis
from graphssl.ssl import (
    NoiseSpec,
    encode_labels,
    evaluate,
    inject_label_noise,
    l1_ssl_fit,
    l2_ssl_fit,
    select_labeled,
    two_moons,
    validate_label_matrix,
)

PATH_GRAPH_2 = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def moons_setup(seed, n=200, m=20, sigma=0.1, k=10):
    x, truth = two_moons(n, 0.1, seed)
    lap = normalized_laplacian(gaussian_knn_graph(x, GraphConfig(sigma=sigma, k=k)))
    basis = build_basis(lap, m, seed=seed)
    return x, truth, lap, basis


class TestEncodeLabels:
    def test_empty(self):
        assert np.array_equal(encode_labels([], 3, 2), np.zeros((3, 2)))

    def test_single_assignment(self):
        y = encode_labels([(0, 1)], 3, 2)
        assert np.array_equal(y, [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])

    def test_full_labeling(self):
        y = encode_labels([(i, i % 3) for i in range(6)], 6, 3)
        assert np.array_equal(y.sum(axis=1), np.ones(6))
        validate_label_matrix(y)

    def test_duplicate_index(self):
        with pytest.raises(ValueError, match="duplicate"):
            encode_labels([(1, 0), (1, 1)], 3, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            encode_labels([(5, 0)], 3, 2)
        with pytest.raises(ValueError, match="out of range"):
            encode_labels([(0, 2)], 3, 2)


class TestL1Fit:
    def test_zero_labels_give_zero_scores(self):
        _, _, _, basis = moons_setup(seed=0, n=40, m=10)
        solution = l1_ssl_fit(basis, np.zeros((40, 3)), 0.5)
        assert np.all(solution.scores == 0.0)
        assert np.all(solution.labels == 0)  # ties break to the lowest class

    def test_two_node_graph_reproduces_labels(self):
        basis = build_basis(PATH_GRAPH_2, 2)
        y = encode_labels([(0, 0), (1, 1)], 2, 2)
        solution = l1_ssl_fit(basis, y, 1e-4)
        assert solution.labels.tolist() == [0, 1]

    def test_clean_moons_accuracy(self):
        x, truth, lap, basis = moons_setup(seed=1)
        assignments = select_labeled(truth, 5, seed=2)
        y = encode_labels(assignments, 200, 2)
        solution = l1_ssl_fit(basis, y, 5.0)
        labeled = np.zeros(200, dtype=bool)
        for i, _ in assignments:
            labeled[i] = True
        assert evaluate(solution, truth, ~labeled) >= 0.98

    def test_per_class_decomposition_is_exact(self):
        _, truth, _, basis = moons_setup(seed=3, n=60, m=12)
        y = encode_labels(select_labeled(truth[:60], 4, seed=4), 60, 2)
        lam = 1.2
        joint = l1_ssl_fit(basis, y, lam)
        for j in range(2):
            single = l1_ssl_fit(basis, y[:, [j]], lam)
            assert np.array_equal(joint.scores[:, j], single.scores[:, 0])

    def test_class_permutation_equivariance(self):
        _, truth, _, basis = moons_setup(seed=5, n=60, m=12)
        y = encode_labels(select_labeled(truth[:60], 4, seed=6), 60, 2)
        perm = [1, 0]
        lam = 0.8
        direct = l1_ssl_fit(basis, y, lam)
        permuted = l1_ssl_fit(basis, y[:, perm], lam)
        assert np.array_equal(permuted.scores, direct.scores[:, perm])
        assert np.array_equal(permuted.labels, np.argsort(perm)[direct.labels])

    def test_scores_are_expansion_of_soft_thresholded_projection(self):
        _, truth, _, basis = moons_setup(seed=14, n=80, m=15)
        y = encode_labels(select_labeled(truth[:80], 5, seed=15), 80, 2)
        lam = 0.3
        v = basis.vectors
        expected = v @ soft_threshold(v.T @ y, lam * basis.sqrt_eigenvalues[:, None])
        scores = l1_ssl_fit(basis, y, lam).scores
        assert np.allclose(scores, expected, rtol=0.0, atol=1e-12)

    def test_sample_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((30, 2))
        w = gaussian_weights(x, sigma=1.0)
        y = encode_labels([(0, 0), (7, 1), (15, 0), (22, 1)], 30, 2)
        perm = rng.permutation(30)

        lap = normalized_laplacian(w)
        basis = build_basis(lap, 8)
        scores = l1_ssl_fit(basis, y, 0.5).scores

        w_perm = gaussian_weights(x[perm], sigma=1.0)
        basis_perm = build_basis(normalized_laplacian(w_perm), 8)
        scores_perm = l1_ssl_fit(basis_perm, y[perm], 0.5).scores
        assert np.allclose(scores_perm, scores[perm], atol=1e-8)


class TestL2Fit:
    def test_zero_lam_returns_labels(self):
        _, truth, lap, _ = moons_setup(seed=8, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=9), 60, 2)
        solution = l2_ssl_fit(lap, y, 0.0)
        assert np.allclose(solution.scores, y, atol=1e-10)

    def test_clean_moons_accuracy(self):
        x, truth, lap, _ = moons_setup(seed=10)
        assignments = select_labeled(truth, 5, seed=11)
        y = encode_labels(assignments, 200, 2)
        solution = l2_ssl_fit(lap, y, 5.0)
        labeled = np.zeros(200, dtype=bool)
        for i, _ in assignments:
            labeled[i] = True
        assert evaluate(solution, truth, ~labeled) >= 0.98

    def test_noisy_labels_hurt_quadratic_more(self):
        # Paired run on one noisy instance: the sparse solver wins.
        trial = run_moons_trial(0, 0, flip_fraction=0.2)
        assert trial.l2_accuracy < trial.l1_accuracy

    def test_reports_carry_residuals(self):
        # Each score column meets the CG residual contract of its class solve.
        _, truth, lap, _ = moons_setup(seed=12, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=13), 60, 2)
        lam = 2.0
        solution = l2_ssl_fit(lap, y, lam)
        for j in range(2):
            f = solution.scores[:, j]
            residual = np.linalg.norm(f + lam * (lap @ f) - y[:, j])
            assert residual <= 1e-8 * np.linalg.norm(y[:, j])

    def test_columns_equal_single_class_solves(self):
        x, truth = gaussian_blobs(90, classes=3, spread=0.1, seed=14)
        lap = normalized_laplacian(gaussian_knn_graph(x, GraphConfig(sigma=0.5, k=6)))
        y = encode_labels(select_labeled(truth, 3, seed=15), 90, 3)
        lam = 3.0
        solution = l2_ssl_fit(lap, y, lam)
        for j in range(3):
            assert np.array_equal(solution.scores[:, j], l2_ssl_solve(lap, y[:, j], lam))

    def test_negative_lam_rejected(self):
        _, truth, lap, _ = moons_setup(seed=8, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=9), 60, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            l2_ssl_fit(lap, y, -1.0)

    def test_failed_class_solve_names_the_class(self):
        _, truth, lap, _ = moons_setup(seed=8, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=9), 60, 2)
        with pytest.raises(ConvergenceError, match="^class 0: "):
            l2_ssl_fit(lap, y, 5.0, tol=1e-300)


class TestInjectLabelNoise:
    def test_zero_fraction_unchanged(self):
        assignments = [(0, 0), (1, 1), (2, 0)]
        spec = NoiseSpec(labeled_per_class=1, noise_fraction=0.0, seed=0)
        assert inject_label_noise(assignments, spec, 2) == assignments

    def test_full_fraction_two_classes_flips_everything(self):
        assignments = [(i, i % 2) for i in range(8)]
        spec = NoiseSpec(labeled_per_class=4, noise_fraction=1.0, seed=1)
        flipped = inject_label_noise(assignments, spec, 2)
        assert all(new != old for (_, new), (_, old) in zip(flipped, assignments))

    def test_exact_count_and_wrong_class(self):
        assignments = [(i, i % 5) for i in range(10)]
        for seed in range(20):
            spec = NoiseSpec(labeled_per_class=2, noise_fraction=0.2, seed=seed)
            noisy = inject_label_noise(assignments, spec, 5)
            changed = [
                (old, new)
                for (_, old), (_, new) in zip(assignments, noisy)
                if old != new
            ]
            assert len(changed) == 2
            assert all(0 <= new < 5 and new != old for old, new in changed)

    def test_indices_never_touched(self):
        assignments = [(3, 0), (9, 1), (14, 0), (20, 1)]
        spec = NoiseSpec(labeled_per_class=2, noise_fraction=0.5, seed=3)
        noisy = inject_label_noise(assignments, spec, 2)
        assert [i for i, _ in noisy] == [i for i, _ in assignments]

    def test_rejects_single_class_with_noise(self):
        spec = NoiseSpec(labeled_per_class=1, noise_fraction=0.5, seed=0)
        with pytest.raises(ValueError, match="two classes"):
            inject_label_noise([(0, 0), (1, 0)], spec, 1)

    def test_floor_semantics(self):
        assignments = [(i, i % 2) for i in range(10)]
        spec = NoiseSpec(labeled_per_class=5, noise_fraction=0.3, seed=4)
        noisy = inject_label_noise(assignments, spec, 2)
        changed = sum(1 for (_, a), (_, b) in zip(assignments, noisy) if a != b)
        assert changed == 3


class TestEvaluate:
    def test_perfect(self):
        truth = np.array([0, 1, 1, 0])
        assert evaluate(truth.copy(), truth, np.ones(4, dtype=bool)) == 1.0

    def test_all_wrong(self):
        truth = np.array([0, 1, 1, 0])
        assert evaluate(1 - truth, truth, np.ones(4, dtype=bool)) == 0.0

    def test_half_right(self):
        predicted = np.array([0, 1, 0, 1])
        truth = np.array([0, 1, 1, 0])
        assert evaluate(predicted, truth, np.ones(4, dtype=bool)) == 0.5

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(np.array([0]), np.array([0]), np.array([False]))


class TestTwoMoons:
    def test_noiseless_points_on_arcs(self):
        x, labels = two_moons(100, 0.0, seed=0)
        upper = x[labels == 0]
        lower = x[labels == 1]
        assert np.allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-12)
        shifted = lower - np.array([1.0, 0.5])
        assert np.allclose(np.linalg.norm(shifted, axis=1), 1.0, atol=1e-12)
        assert np.all(upper[:, 1] >= -1e-12)
        assert np.all(lower[:, 1] <= 0.5 + 1e-12)

    def test_balanced_classes(self):
        _, labels = two_moons(50 * 2, 0.1, seed=1)
        assert np.bincount(labels).tolist() == [50, 50]

    def test_deterministic(self):
        a, _ = two_moons(40, 0.1, seed=2)
        b, _ = two_moons(40, 0.1, seed=2)
        assert np.array_equal(a, b)

    def test_classes_separable_by_nearest_neighbor(self):
        x, labels = two_moons(200, 0.1, seed=3)
        d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        nearest = np.argmin(d2, axis=1)
        accuracy = np.mean(labels[nearest] == labels)
        assert accuracy >= 0.99

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            two_moons(7, 0.1, seed=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            two_moons(10, -0.1, seed=0)


class TestNoiseRobustness:
    def test_sparse_solver_resists_flipped_labels(self):
        trials = run_moons_benchmark(0, 5, flip_fraction=0.2)
        l1 = np.median([t.l1_accuracy for t in trials])
        l2 = np.median([t.l2_accuracy for t in trials])
        assert l1 >= 0.95
        assert l1 >= l2

    def test_sparse_solution_is_smoother_in_l1_measure(self):
        trial = run_moons_trial(0, 0, flip_fraction=0.2)
        assert trial.l1_smoothness.l1_smoothness < trial.l2_smoothness.l1_smoothness
