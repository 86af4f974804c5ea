from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from oracle_graph import gaussian_kernel
from graphssl import ssl
from graphssl.datasets import gaussian_blobs
from graphssl.errors import ConvergenceError
from graphssl.graph import gaussian_knn_graph, normalized_laplacian
from graphssl.harness import run_moons_demo
from graphssl.solver import soft_threshold
from graphssl.spectral import build_basis
from graphssl.ssl import (
    encode_labels,
    evaluate,
    inject_label_noise,
    l1_ssl_fit,
    l2_ssl_fit,
    select_labeled,
    two_moons,
)

MOONS_GRAPH = {"sigma": 0.1, "k": 10, "lam": 5.0, "m": 20}
PATH_GRAPH_2 = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def zero_solve_factor(system):
    """Stands in for spd_factor with a factor whose every solve returns zero."""
    return SimpleNamespace(solve=np.zeros_like)


def moons_setup(seed, n=200, m=20, sigma=0.1, k=10):
    x, truth = two_moons(n, 0.1, seed)
    lap = normalized_laplacian(gaussian_knn_graph(x, sigma=sigma, k=k))
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
        assert np.all((y == 0.0) | (y == 1.0))

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
        w = gaussian_kernel(x, 1.0)
        y = encode_labels([(0, 0), (7, 1), (15, 0), (22, 1)], 30, 2)
        perm = rng.permutation(30)

        lap = normalized_laplacian(w)
        basis = build_basis(lap, 8)
        scores = l1_ssl_fit(basis, y, 0.5).scores

        w_perm = gaussian_kernel(x[perm], 1.0)
        basis_perm = build_basis(normalized_laplacian(w_perm), 8)
        scores_perm = l1_ssl_fit(basis_perm, y[perm], 0.5).scores
        assert np.allclose(scores_perm, scores[perm], atol=1e-8)


def nan_entry(y):
    y = y.copy()
    y[3, 1] = np.nan
    return y


@pytest.mark.parametrize("fit", ["l1", "l2"])
@pytest.mark.parametrize("bad, message", [
    (nan_entry, "label matrix must be finite"),
    (lambda y: y[:, 0], "label matrix rows must match"),
    (lambda y: y[:-1], "label matrix rows must match"),
], ids=["nan-entry", "one-dimensional", "wrong-rows"])
def test_both_fits_reject_a_bad_label_matrix(fit, bad, message):
    _, _, lap, basis = moons_setup(seed=0, n=10, m=4, k=3)
    y = encode_labels([(0, 0), (9, 1)], 10, 2)
    with pytest.raises(ValueError, match=message):
        if fit == "l1":
            l1_ssl_fit(basis, bad(y), 0.5)
        else:
            l2_ssl_fit(lap, bad(y), 0.5)


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
        (trial, _), = run_moons_demo(0, 0.2, 1, 5, **MOONS_GRAPH)
        l1, l2 = trial.accuracies()[0]
        assert l2 < l1

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
        lap = normalized_laplacian(gaussian_knn_graph(x, sigma=0.5, k=6))
        y = encode_labels(select_labeled(truth, 3, seed=15), 90, 3)
        lam = 3.0
        solution = l2_ssl_fit(lap, y, lam)
        for j in range(3):
            alone = l2_ssl_fit(lap, y[:, j:j + 1], lam).scores
            assert np.array_equal(solution.scores[:, j:j + 1], alone)

    def test_block_is_factored_once(self, monkeypatch):
        calls = []
        original = spla.splu

        def counting(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        x, truth = gaussian_blobs(90, classes=10, spread=0.1, seed=14)
        lap = normalized_laplacian(gaussian_knn_graph(x, sigma=0.5, k=6))
        y = encode_labels(select_labeled(truth, 3, seed=15), 90, 10)
        l2_ssl_fit(lap, y, 3.0)
        assert len(calls) == 1

    def test_negative_lam_rejected(self):
        _, truth, lap, _ = moons_setup(seed=8, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=9), 60, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            l2_ssl_fit(lap, y, -1.0)

    def test_failed_class_solve_names_the_class(self, monkeypatch):
        _, truth, lap, _ = moons_setup(seed=8, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=9), 60, 2)
        monkeypatch.setattr(ssl, "spd_factor", zero_solve_factor)
        with pytest.raises(ConvergenceError, match="^class 0: "):
            l2_ssl_fit(lap, y, 5.0)

    def test_failed_solve_uses_the_given_column_name(self, monkeypatch):
        _, truth, lap, _ = moons_setup(seed=8, n=60, m=5)
        y = encode_labels(select_labeled(truth[:60], 4, seed=9), 60, 2)
        monkeypatch.setattr(ssl, "spd_factor", zero_solve_factor)
        with pytest.raises(ConvergenceError, match="^first: "):
            l2_ssl_fit(lap, y, 5.0, names=["first", "second"])
        with pytest.raises(ValueError, match="1 column names for 2 label columns"):
            l2_ssl_fit(lap, y, 5.0, names=["first"])


class TestInjectLabelNoise:
    def test_zero_fraction_unchanged(self):
        assignments = [(0, 0), (1, 1), (2, 0)]
        assert inject_label_noise(assignments, 0.0, 2, 0) == assignments

    def test_full_fraction_two_classes_flips_everything(self):
        assignments = [(i, i % 2) for i in range(8)]
        flipped = inject_label_noise(assignments, 1.0, 2, 1)
        assert all(new != old for (_, new), (_, old) in zip(flipped, assignments))

    def test_exact_count_and_wrong_class(self):
        # Five labels per class at 0.2: exactly one flip inside each class pool.
        assignments = [(i, i % 5) for i in range(25)]
        for seed in range(20):
            noisy = inject_label_noise(assignments, 0.2, 5, seed)
            changed = [
                (old, new)
                for (_, old), (_, new) in zip(assignments, noisy)
                if old != new
            ]
            assert sorted(old for old, _ in changed) == [0, 1, 2, 3, 4]
            assert all(0 <= new < 5 and new != old for old, new in changed)

    def test_indices_never_touched(self):
        assignments = [(3, 0), (9, 1), (14, 0), (20, 1)]
        noisy = inject_label_noise(assignments, 0.5, 2, 3)
        assert [i for i, _ in noisy] == [i for i, _ in assignments]

    def test_rejects_single_class_with_noise(self):
        with pytest.raises(ValueError, match="two classes"):
            inject_label_noise([(0, 0), (1, 0)], 0.5, 1, 0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_rejects_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            inject_label_noise([(0, 0), (1, 1)], fraction, 2, 0)

    def test_floor_semantics(self):
        # floor(0.3 * 5) = 1 flip in each of the two pools of five.
        assignments = [(i, i % 2) for i in range(10)]
        noisy = inject_label_noise(assignments, 0.3, 2, 4)
        changed = sum(1 for (_, a), (_, b) in zip(assignments, noisy) if a != b)
        assert changed == 2

    @staticmethod
    def flips_by_class(assignments, noisy, classes):
        counts = [0] * classes
        for (_, old), (_, new) in zip(assignments, noisy):
            counts[old] += old != new
        return counts

    def test_floor_per_pool(self):
        # 0.29 * 100 is 28.999999999999996 in floating point; the count is 29.
        assignments = [(i, 0) for i in range(100)] + [(100 + i, 1) for i in range(7)]
        assignments += [(200 + i, 2) for i in range(3)]
        for seed in range(5):
            noisy = inject_label_noise(assignments, 0.29, 3, seed)
            assert self.flips_by_class(assignments, noisy, 3) == [29, 2, 0]

    def test_class_with_empty_pool(self):
        # No label of class 1: its pool flips nothing, but it is a wrong class
        # the other pools may flip into.
        assignments = [(i, 0) for i in range(4)] + [(10 + i, 2) for i in range(4)]
        targets = set()
        for seed in range(20):
            noisy = inject_label_noise(assignments, 0.5, 3, seed)
            assert self.flips_by_class(assignments, noisy, 3) == [2, 0, 2]
            targets |= {new for (_, old), (_, new) in zip(assignments, noisy) if old != new}
        assert targets == {0, 1, 2}

    def test_same_seed_same_output(self):
        assignments = [(i, i % 3) for i in range(30)]
        draws = [inject_label_noise(assignments, 0.4, 3, seed) for seed in (7, 7, 8)]
        assert draws[0] == draws[1]
        assert draws[0] != draws[2]


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
        runs = run_moons_demo(0, 0.2, 5, 5, **MOONS_GRAPH)
        l1, l2 = np.median([trial.accuracies()[0] for trial, _ in runs], axis=0)
        assert l1 >= 0.95
        assert l1 >= l2

    def test_sparse_solution_is_smoother_in_l1_measure(self):
        (_, (l1, l2)), = run_moons_demo(0, 0.2, 1, 5, **MOONS_GRAPH)
        assert l1.l1_smoothness < l2.l1_smoothness
