import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from graphssl import graph
from graphssl.errors import IsolatedVertexError
from graphssl.graph import (
    GraphConfig,
    gaussian_knn_graph,
    gaussian_weights,
    knn_sparsify,
    linear_kernel,
    linear_knn_graph,
    normalized_laplacian,
)


def weights_from_dense(w):
    return sp.csr_matrix(w)


def same_graph(a, b):
    return (a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def upper(w):
    """Rows, columns and weights of the strict upper triangle, sorted by (row, col)."""
    coo = sp.triu(w, k=1).tocoo()
    order = np.lexsort((coo.col, coo.row))
    return coo.row[order], coo.col[order], coo.data[order]


def edges(w):
    rows, cols, _ = upper(w)
    return set(zip(rows.tolist(), cols.tolist()))


def tied_counts():
    """Small integer counts whose linear kernel ties at the k-th place in many rows."""
    return np.random.default_rng(0).integers(0, 3, size=(60, 5)).astype(np.float64)


def knn_reference(dense, k):
    """Row-by-row top k (largest weight, then lowest column), then the union."""
    picked = set()
    for i, row in enumerate(dense):
        ranked = sorted((-w, j) for j, w in enumerate(row) if j != i and w > 0.0)
        picked.update((i, j) for _, j in ranked[:k])
    return {(min(i, j), max(i, j)) for i, j in picked}


def degrees(w):
    """np.add.at over the upper-triangle edges, then over their mirrors."""
    rows, cols, vals = upper(w)
    d = np.zeros(w.shape[0])
    np.add.at(d, rows, vals)
    np.add.at(d, cols, vals)
    return d


class TestGraphConfig:
    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            GraphConfig(sigma=0.0)


class TestWeightMatrixInvariants:
    """Affinity matrices are checked where they enter normalized_laplacian and knn_sparsify."""

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            normalized_laplacian(weights_from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]])))

    def test_rejects_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            normalized_laplacian(weights_from_dense(np.array([[1.0, 1.0], [1.0, 0.0]])))

    def test_rejects_asymmetric_weights(self):
        with pytest.raises(ValueError, match="not symmetric"):
            normalized_laplacian(weights_from_dense(np.array([[0.0, 1.0], [2.0, 0.0]])))

    def test_knn_sparsify_checks_its_input(self):
        with pytest.raises(ValueError, match="positive"):
            knn_sparsify(weights_from_dense(np.array([[0.0, -1.0], [-1.0, 0.0]])),
                         GraphConfig(k=1))


class TestGaussianWeights:
    def test_identical_points_weight_one(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        w = gaussian_weights(x, sigma=0.7).toarray()
        assert w[0, 1] == pytest.approx(1.0)

    def test_identical_points_keep_weight_one_when_the_bandwidth_underflows(self):
        # 2 * sigma * sigma underflows to 0, as in gaussian_knn_graph's test.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = gaussian_weights([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], sigma=1e-200)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(w.toarray(), expected) and w.nnz == 2

    def test_scalar_value(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])  # distance sqrt(2)
        w = gaussian_weights(x, sigma=1.0).toarray()
        assert w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_wide_bandwidth_limit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        w = gaussian_weights(x, sigma=1e8).toarray()
        off = w[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(1)
        w = gaussian_weights(rng.standard_normal((5, 2)), sigma=1.0)
        assert np.all(w.diagonal() == 0.0) and w.nnz == 5 * 4

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_weights(np.zeros((3, 2)), sigma=-1.0)


class TestLinearKernel:
    def test_orthogonal_rows_not_stored(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = linear_kernel(x)
        dense = w.toarray()
        assert dense[0, 1] == 0.0
        assert w.nnz == 4  # (0,2) and (1,2), each stored in both triangles

    def test_dot_product_value(self):
        x = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert linear_kernel(x).toarray()[0, 1] == pytest.approx(5.0)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.random((6, 4))
        w = linear_kernel(x).toarray()
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
        assert same_graph(out, w)

    def test_three_node_chain_union(self):
        dense = np.array([[0.0, 0.9, 0.1], [0.9, 0.0, 0.8], [0.1, 0.8, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1))
        kept = edges(out)
        assert kept == {(0, 1), (1, 2)}

    def test_weights_unchanged(self):
        rng = np.random.default_rng(4)
        w = gaussian_weights(rng.standard_normal((20, 3)), sigma=1.0)
        out = knn_sparsify(w, GraphConfig(k=4))
        full = w.toarray()
        sparse = out.toarray()
        mask = sparse != 0.0
        assert np.allclose(sparse[mask], full[mask])

    def test_idempotent_when_degree_bound_holds(self):
        rng = np.random.default_rng(5)
        w = gaussian_weights(rng.standard_normal((15, 2)), sigma=1.0)
        # Once the degree bound holds, any k at or above the maximum degree
        # is a fixed point.
        sparse = knn_sparsify(w, GraphConfig(k=3))
        again = knn_sparsify(sparse, GraphConfig(k=15 - 1))
        assert same_graph(sparse, again)

    def test_rejects_k_too_large(self):
        rng = np.random.default_rng(6)
        w = gaussian_weights(rng.standard_normal((5, 2)), sigma=1.0)
        with pytest.raises(ValueError, match="smaller"):
            knn_sparsify(w, GraphConfig(k=5))


    def test_matches_row_loop_on_heavy_ties(self):
        kernel = linear_kernel(tied_counts())
        out = knn_sparsify(kernel, GraphConfig(k=4))
        dense = kernel.toarray()
        kth = -np.sort(-dense, axis=1)[:, 3]
        assert np.sum(np.sum(dense == kth[:, None], axis=1) > 1) > 10  # ties at the k-th place
        assert edges(out) == knn_reference(dense, 4)
        rows, cols, vals = upper(out)
        assert np.array_equal(vals, dense[rows, cols])

    def test_ties_go_to_lowest_column(self):
        # Vertex 0 weighs 1, 2 and 3 equally; k=1 keeps column 1. Vertices
        # 1-3 pick vertex 4, and 4 weighs them equally, keeping column 1.
        dense = np.array([[0.0, 1.0, 1.0, 1.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0, 2.0],
                          [1.0, 0.0, 0.0, 0.0, 2.0],
                          [1.0, 0.0, 0.0, 0.0, 2.0],
                          [0.0, 2.0, 2.0, 2.0, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1))
        assert edges(out) == {(0, 1), (1, 4), (2, 4), (3, 4)}

    def test_larger_weight_beats_lower_column(self):
        # Vertex 0 keeps 3, its heaviest edge; 1-3 pick vertex 4 instead of 0.
        dense = np.array([[0.0, 1.0, 1.0, 2.0, 0.0],
                          [1.0, 0.0, 0.0, 0.0, 3.0],
                          [1.0, 0.0, 0.0, 0.0, 3.0],
                          [2.0, 0.0, 0.0, 0.0, 3.0],
                          [0.0, 3.0, 3.0, 3.0, 0.0]])
        out = knn_sparsify(weights_from_dense(dense), GraphConfig(k=1))
        assert edges(out) == {(0, 3), (1, 4), (2, 4), (3, 4)}


class TestLinearKnnGraph:
    def test_matches_dense_route_on_heavy_ties(self):
        x = tied_counts()
        cfg = GraphConfig(k=4)
        assert same_graph(linear_knn_graph(x, cfg), knn_sparsify(linear_kernel(x), cfg))

    @pytest.mark.parametrize("block_rows", [1, 7, 59, 1000])
    def test_block_size_does_not_change_graph(self, monkeypatch, block_rows):
        x = tied_counts()
        cfg = GraphConfig(k=4)
        reference = linear_knn_graph(x, cfg)
        monkeypatch.setattr(graph, "LINEAR_BLOCK_ROWS", block_rows)
        assert same_graph(linear_knn_graph(x, cfg), reference)

    def test_ties_go_to_lowest_column(self):
        x = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert edges(linear_knn_graph(x, GraphConfig(k=1))) == {(0, 1), (0, 2), (0, 3)}
        # Row 0 ties 1, 2 and 3 at 1; each of 1-3 ties the other two at 25.
        x = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 5.0],
                      [0.0, 1.0, 0.0, 5.0], [0.0, 0.0, 1.0, 5.0]])
        assert edges(linear_knn_graph(x, GraphConfig(k=1))) == {(0, 1), (1, 2), (1, 3)}

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
    def test_matches_dense_route(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((80, 3))
        cfg = GraphConfig(sigma=0.8, k=5)
        fast = gaussian_knn_graph(x, cfg)
        slow = knn_sparsify(gaussian_weights(x, cfg.sigma), cfg)
        assert np.array_equal(fast.indptr, slow.indptr)
        assert np.array_equal(fast.indices, slow.indices)
        assert np.allclose(fast.data, slow.data, atol=1e-12, rtol=0.0)

    def test_duplicate_points(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        g = gaussian_knn_graph(x, GraphConfig(sigma=1.0, k=2))
        dense = g.toarray()
        assert dense[0, 1] == pytest.approx(1.0)
        assert np.all(np.diag(dense) == 0.0)

    def test_duplicate_points_keep_their_edge_when_the_bandwidth_underflows(self):
        # 2 * sigma * sigma underflows to 0, and the kernel at distance 0 is still 1.
        x = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = gaussian_knn_graph(x, GraphConfig(sigma=1e-200, k=1))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(g.toarray(), expected)

    def test_rejects_k_too_large(self):
        with pytest.raises(ValueError, match="smaller"):
            gaussian_knn_graph(np.zeros((3, 2)), GraphConfig(k=3))


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        w = weights_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(
            normalized_laplacian(w).toarray(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15
        )

    def test_triangle_graph(self):
        w = weights_from_dense(np.ones((3, 3)) - np.eye(3))
        lap = normalized_laplacian(w).toarray()
        assert np.allclose(np.diag(lap), 1.0)
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5)

    def test_scaled_constant_vector_in_null_space(self):
        rng = np.random.default_rng(8)
        w = gaussian_weights(rng.standard_normal((12, 2)), sigma=1.0)
        lap = normalized_laplacian(w)
        null = np.sqrt(degrees(w))
        assert np.linalg.norm(lap @ null) <= 1e-10 * np.linalg.norm(null)

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(9)
        w = gaussian_weights(rng.standard_normal((15, 3)), sigma=0.9)
        lap = normalized_laplacian(w)
        for _ in range(100):
            x = rng.standard_normal(15)
            assert x @ (lap @ x) >= -1e-10

    def test_spectrum_in_range(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            x = rng.standard_normal((12, 2))
            w = knn_sparsify(gaussian_weights(x, 0.8), GraphConfig(k=4))
            vals = np.linalg.eigvalsh(normalized_laplacian(w).toarray())
            assert vals.max() <= 2.0 + 1e-8
            assert vals.min() >= -1e-10

    def test_connected_graph_has_zero_eigenvalue(self):
        rng = np.random.default_rng(11)
        w = gaussian_weights(rng.standard_normal((10, 2)), sigma=1.0)
        vals = np.linalg.eigvalsh(normalized_laplacian(w).toarray())
        assert abs(vals[0]) <= 1e-8

    def test_isolated_vertex_identified(self):
        w = weights_from_dense(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(IsolatedVertexError) as info:
            normalized_laplacian(w)
        assert info.value.vertex == 2
        assert "vertex 2" in str(info.value)

    def irregular_graph(self):
        # Blobs of different spread give a wide range of degrees.
        rng = np.random.default_rng(12)
        x = np.vstack([rng.normal(scale=s, size=(100, 2)) + 4.0 * i
                       for i, s in enumerate((0.2, 0.7, 1.5))])
        w = gaussian_knn_graph(x, GraphConfig(sigma=0.6, k=6))
        assert np.ptp(degrees(w)) > 1.0
        return w

    def test_bit_symmetric_on_irregular_degrees(self):
        lap = normalized_laplacian(self.irregular_graph())
        mirror = lap.T.tocsr()
        assert np.array_equal(lap.indptr, mirror.indptr)
        assert np.array_equal(lap.indices, mirror.indices)
        assert np.array_equal(lap.data, mirror.data)

    def test_entries_match_upper_triangle_reference(self):
        # -w_ij / sqrt(d_i d_j), scaled lower index first, with degrees summed
        # over the upper triangle and then its mirror.
        w = self.irregular_graph()
        lap = normalized_laplacian(w)
        rows, cols, vals = upper(w)
        inv_sqrt = 1.0 / np.sqrt(degrees(w))
        lap_rows, lap_cols, lap_vals = upper(lap)
        assert np.array_equal(lap_rows, rows) and np.array_equal(lap_cols, cols)
        assert np.array_equal(lap_vals, -vals * inv_sqrt[rows] * inv_sqrt[cols])
        assert np.array_equal(lap.diagonal(), np.ones(w.shape[0]))
        assert lap.nnz == w.nnz + w.shape[0]
