import numpy as np
import pytest

from graphssl import graph
from graphssl.errors import IsolatedVertexError
from graphssl.graph import (
    GraphConfig,
    WeightMatrix,
    gaussian_knn_graph,
    gaussian_weights,
    knn_sparsify,
    linear_kernel,
    linear_knn_graph,
    normalized_laplacian,
)
from graphssl.linalg import SparseSymMatrix, spmv


def weights_from_dense(w, kind="precomputed"):
    return WeightMatrix(SparseSymMatrix.from_dense(w), kind=kind)


def same_graph(a, b):
    return (a.kind == b.kind and a.n == b.n
            and np.array_equal(a.inner.rows, b.inner.rows)
            and np.array_equal(a.inner.cols, b.inner.cols)
            and np.array_equal(a.inner.vals, b.inner.vals))


def edges(w):
    return set(zip(w.inner.rows.tolist(), w.inner.cols.tolist()))


def tied_counts():
    """Small integer counts whose linear kernel ties at the k-th place in many rows."""
    return np.random.default_rng(0).integers(0, 3, size=(60, 5)).astype(np.float64)


def knn_reference(dense, k, symmetrization):
    """Row-by-row top k (largest weight, then lowest column), then symmetrization."""
    picked = set()
    for i, row in enumerate(dense):
        ranked = sorted((-w, j) for j, w in enumerate(row) if j != i and w > 0.0)
        picked.update((i, j) for _, j in ranked[:k])
    if symmetrization == "mutual":
        return {(i, j) for i, j in picked if i < j and (j, i) in picked}
    return {(min(i, j), max(i, j)) for i, j in picked}


def degrees(w):
    d = np.zeros(w.n)
    np.add.at(d, w.inner.rows, w.inner.vals)
    np.add.at(d, w.inner.cols, w.inner.vals)
    return d


class TestGraphConfig:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            GraphConfig(sigma=0.0)

    def test_rejects_bad_symmetrization(self):
        with pytest.raises(ValueError):
            GraphConfig(symmetrization="max")


class TestWeightMatrixInvariants:
    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            WeightMatrix(SparseSymMatrix(2, [0], [1], [-1.0]))

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            WeightMatrix(SparseSymMatrix(2, [0, 0], [0, 1], [1.0, 1.0]))


class TestGaussianWeights:
    def test_identical_points_weight_one(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        w = gaussian_weights(x, sigma=0.7).inner.to_dense()
        assert w[0, 1] == pytest.approx(1.0)

    def test_scalar_value(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])  # distance sqrt(2)
        w = gaussian_weights(x, sigma=1.0).inner.to_dense()
        assert w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_wide_bandwidth_limit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        w = gaussian_weights(x, sigma=1e8).inner.to_dense()
        off = w[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(1)
        w = gaussian_weights(rng.standard_normal((5, 2)), sigma=1.0)
        assert np.all(w.inner.rows != w.inner.cols)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_weights(np.zeros((3, 2)), sigma=-1.0)


class TestLinearKernel:
    def test_orthogonal_rows_not_stored(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = linear_kernel(x)
        dense = w.inner.to_dense()
        assert dense[0, 1] == 0.0
        assert w.inner.nnz == 2  # (0,2) and (1,2)

    def test_dot_product_value(self):
        x = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert linear_kernel(x).inner.to_dense()[0, 1] == pytest.approx(5.0)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.random((6, 4))
        w = linear_kernel(x).inner.to_dense()
        gram = x @ x.T
        np.fill_diagonal(gram, 0.0)
        assert np.allclose(w, gram, atol=1e-12)

    def test_rejects_negative_features(self):
        with pytest.raises(ValueError, match="nonnegative"):
            linear_kernel(np.array([[1.0, -0.1], [0.5, 0.2]]))


class TestKnnSparsify:
    def test_full_k_is_identity(self):
        rng = np.random.default_rng(3)
        w = gaussian_weights(rng.standard_normal((7, 2)), sigma=1.0)
        out = knn_sparsify(w, GraphConfig(k=6))
        assert np.array_equal(out.inner.rows, w.inner.rows)
        assert np.array_equal(out.inner.cols, w.inner.cols)
        assert np.array_equal(out.inner.vals, w.inner.vals)

    def test_three_node_chain_union(self):
        dense = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.8], [0.1, 0.8, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1, symmetrization="union"))
        kept = set(zip(out.inner.rows.tolist(), out.inner.cols.tolist()))
        assert kept == {(0, 1), (1, 2)}

    def test_three_node_chain_mutual(self):
        dense = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.8], [0.1, 0.8, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1, symmetrization="mutual"))
        kept = set(zip(out.inner.rows.tolist(), out.inner.cols.tolist()))
        assert kept == {(0, 1)}

    def test_weights_unchanged(self):
        rng = np.random.default_rng(4)
        w = gaussian_weights(rng.standard_normal((20, 3)), sigma=1.0)
        out = knn_sparsify(w, GraphConfig(k=4))
        full = w.inner.to_dense()
        sparse = out.inner.to_dense()
        mask = sparse != 0.0
        assert np.allclose(sparse[mask], full[mask])

    def test_idempotent_when_degree_bound_holds(self):
        rng = np.random.default_rng(5)
        w = gaussian_weights(rng.standard_normal((15, 2)), sigma=1.0)
        # Mutual selection caps every degree at k, so a second pass with the
        # same config keeps everything.
        cfg = GraphConfig(k=3, symmetrization="mutual")
        once = knn_sparsify(w, cfg)
        twice = knn_sparsify(once, cfg)
        assert np.array_equal(once.inner.rows, twice.inner.rows)
        assert np.array_equal(once.inner.cols, twice.inner.cols)
        assert np.array_equal(once.inner.vals, twice.inner.vals)
        # Union mode: once the degree bound holds, any k at or above the
        # maximum degree is a fixed point.
        sparse = knn_sparsify(w, GraphConfig(k=3))
        again = knn_sparsify(sparse, GraphConfig(k=15 - 1))
        assert np.array_equal(sparse.inner.vals, again.inner.vals)
        assert np.array_equal(sparse.inner.rows, again.inner.rows)

    def test_rejects_k_too_large(self):
        rng = np.random.default_rng(6)
        w = gaussian_weights(rng.standard_normal((5, 2)), sigma=1.0)
        with pytest.raises(ValueError, match="smaller"):
            knn_sparsify(w, GraphConfig(k=5))


    @pytest.mark.parametrize("symmetrization", ["union", "mutual"])
    def test_matches_row_loop_on_heavy_ties(self, symmetrization):
        kernel = linear_kernel(tied_counts())
        out = knn_sparsify(kernel, GraphConfig(k=4, symmetrization=symmetrization))
        dense = kernel.inner.to_dense()
        kth = -np.sort(-dense, axis=1)[:, 3]
        assert np.sum(np.sum(dense == kth[:, None], axis=1) > 1) > 10  # ties at the k-th place
        assert edges(out) == knn_reference(dense, 4, symmetrization)
        assert np.array_equal(out.inner.vals, dense[out.inner.rows, out.inner.cols])

    def test_ties_go_to_lowest_column(self):
        # Vertex 0 weighs its three neighbors equally; k=1 keeps column 1.
        dense = np.array([[0.0, 1.0, 1.0, 1.0],
                          [1.0, 0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1, symmetrization="mutual"))
        assert edges(out) == {(0, 1)}

    def test_larger_weight_beats_lower_column(self):
        dense = np.array([[0.0, 1.0, 1.0, 2.0],
                          [1.0, 0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0],
                          [2.0, 0.0, 0.0, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1, symmetrization="mutual"))
        assert edges(out) == {(0, 3)}


class TestLinearKnnGraph:
    @pytest.mark.parametrize("symmetrization", ["union", "mutual"])
    def test_matches_dense_route_on_heavy_ties(self, symmetrization):
        x = tied_counts()
        cfg = GraphConfig(k=4, symmetrization=symmetrization)
        assert same_graph(linear_knn_graph(x, cfg), knn_sparsify(linear_kernel(x), cfg))

    @pytest.mark.parametrize("symmetrization", ["union", "mutual"])
    @pytest.mark.parametrize("block_rows", [1, 7, 59, 1000])
    def test_block_size_does_not_change_graph(self, monkeypatch, block_rows, symmetrization):
        x = tied_counts()
        cfg = GraphConfig(k=4, symmetrization=symmetrization)
        reference = linear_knn_graph(x, cfg)
        monkeypatch.setattr(graph, "LINEAR_BLOCK_ROWS", block_rows)
        assert same_graph(linear_knn_graph(x, cfg), reference)

    def test_ties_go_to_lowest_column(self):
        x = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert edges(linear_knn_graph(x, GraphConfig(k=1, symmetrization="mutual"))) == {(0, 1)}
        assert edges(linear_knn_graph(x, GraphConfig(k=1))) == {(0, 1), (0, 2), (0, 3)}

    def test_orthogonal_rows_are_not_neighbors(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [0.0, 5.0]])
        out = linear_knn_graph(x, GraphConfig(k=3))
        assert edges(out) == {(0, 1), (0, 2), (1, 2), (3, 4)}
        assert same_graph(out, knn_sparsify(linear_kernel(x), GraphConfig(k=3)))

    def test_rejects_negative_features(self):
        with pytest.raises(ValueError, match="nonnegative"):
            linear_knn_graph(np.array([[1.0, -0.1], [0.5, 0.2]]), GraphConfig(k=1))

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError, match="smaller"):
            linear_knn_graph(np.ones((3, 2)), GraphConfig(k=3))


class TestGaussianKnnGraph:
    @pytest.mark.parametrize("symmetrization", ["union", "mutual"])
    def test_matches_dense_route(self, symmetrization):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((80, 3))
        cfg = GraphConfig(sigma=0.8, k=5, symmetrization=symmetrization)
        fast = gaussian_knn_graph(x, cfg)
        slow = knn_sparsify(gaussian_weights(x, cfg.sigma), cfg)
        assert np.array_equal(fast.inner.rows, slow.inner.rows)
        assert np.array_equal(fast.inner.cols, slow.inner.cols)
        assert np.allclose(fast.inner.vals, slow.inner.vals, atol=1e-12, rtol=0.0)

    def test_duplicate_points(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        g = gaussian_knn_graph(x, GraphConfig(sigma=1.0, k=2))
        dense = g.inner.to_dense()
        assert dense[0, 1] == pytest.approx(1.0)
        assert np.all(np.diag(dense) == 0.0)

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError, match="smaller"):
            gaussian_knn_graph(np.zeros((3, 2)), GraphConfig(k=3))


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        w = weights_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(
            normalized_laplacian(w).to_dense(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15
        )

    def test_triangle_graph(self):
        w = weights_from_dense(np.ones((3, 3)) - np.eye(3))
        lap = normalized_laplacian(w).to_dense()
        assert np.allclose(np.diag(lap), 1.0)
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5)

    def test_scaled_constant_vector_in_null_space(self):
        rng = np.random.default_rng(8)
        w = gaussian_weights(rng.standard_normal((12, 2)), sigma=1.0)
        lap = normalized_laplacian(w)
        null = np.sqrt(degrees(w))
        assert np.linalg.norm(spmv(lap, null)) <= 1e-10 * np.linalg.norm(null)

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(9)
        w = gaussian_weights(rng.standard_normal((15, 3)), sigma=0.9)
        lap = normalized_laplacian(w)
        for _ in range(100):
            x = rng.standard_normal(15)
            assert x @ spmv(lap, x) >= -1e-10

    def test_spectrum_in_range(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            x = rng.standard_normal((12, 2))
            w = knn_sparsify(gaussian_weights(x, 0.8), GraphConfig(k=4))
            vals = np.linalg.eigvalsh(normalized_laplacian(w).to_dense())
            assert vals.max() <= 2.0 + 1e-8
            assert vals.min() >= -1e-10

    def test_connected_graph_has_zero_eigenvalue(self):
        rng = np.random.default_rng(11)
        w = gaussian_weights(rng.standard_normal((10, 2)), sigma=1.0)
        vals = np.linalg.eigvalsh(normalized_laplacian(w).to_dense())
        assert abs(vals[0]) <= 1e-8

    def test_isolated_vertex_identified(self):
        w = WeightMatrix(SparseSymMatrix(3, [0], [1], [1.0]))
        with pytest.raises(IsolatedVertexError) as info:
            normalized_laplacian(w)
        assert info.value.vertex == 2
        assert "vertex 2" in str(info.value)
