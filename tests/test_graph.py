import pickle
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from scipy.spatial import cKDTree

import oracle_graph
from graphssl import cli, graph, linalg, parallel
from graphssl.datasets import gaussian_blobs, two_block_corpus
from graphssl.errors import IsolatedVertexError
from graphssl.graph import gaussian_knn_graph, linear_knn_graph, normalized_laplacian
from graphssl.linalg import SymmetricCSR, _row_sums


def same_graph(a, b):
    return (a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def same_csr_arrays(a, b):
    """same_graph, with the index and value dtypes equal too."""
    return same_graph(a, b) and all(getattr(a, name).dtype == getattr(b, name).dtype
                                    for name in ("indptr", "indices", "data"))


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


def linear_reference(x, k):
    return oracle_graph.knn(oracle_graph.linear_kernel(x), k)


def degrees(w):
    """np.add.at over the upper-triangle edges, then over their mirrors."""
    rows, cols, vals = upper(w)
    d = np.zeros(w.shape[0])
    np.add.at(d, rows, vals)
    np.add.at(d, cols, vals)
    return d


# Calls that differ only in their input: (id, call, message), each a ValueError.
REJECTED = [
    ("sigma-zero", lambda: gaussian_knn_graph(np.eye(3), sigma=0, k=1), "sigma must be positive"),
    ("gaussian-k-zero", lambda: gaussian_knn_graph(np.eye(3), 1.0, 0), "k must be at least 1"),
    ("linear-k-zero", lambda: linear_knn_graph(np.eye(3), 0), "k must be at least 1"),
    ("gaussian-k-too-large", lambda: gaussian_knn_graph(np.zeros((3, 2)), sigma=1.0, k=3),
     "smaller"),
    ("linear-k-too-large", lambda: linear_knn_graph(np.ones((3, 2)), k=3), "smaller"),
    ("linear-negative-features",
     lambda: linear_knn_graph(np.array([[1.0, -0.1], [0.5, 0.2]]), k=1), "nonnegative"),
    # Affinity matrices are checked where they enter normalized_laplacian.
    ("nonpositive-weight",
     lambda: normalized_laplacian(sp.csr_matrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))),
     "positive"),
    ("diagonal-weight",
     lambda: normalized_laplacian(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 0.0]]))),
     "diagonal"),
    ("asymmetric-weights",
     lambda: normalized_laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))),
     "not symmetric"),
]


@pytest.mark.parametrize("call, message", [pytest.param(*case, id=name)
                                           for name, *case in REJECTED])
def test_rejects(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestGaussianWeights:
    """The weights of gaussian_knn_graph, on full graphs (k = n - 1)."""

    def test_identical_points_weight_one(self):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]])
        w = gaussian_knn_graph(x, sigma=0.7, k=2).toarray()
        assert w[0, 1] == pytest.approx(1.0)

    def test_identical_points_keep_weight_one_when_the_bandwidth_underflows(self):
        # 2 * sigma * sigma underflows to 0, and the other pairs' weights to 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            w = gaussian_knn_graph([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                                   sigma=1e-200, k=2)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(w.toarray(), expected) and w.nnz == 2

    def test_scalar_value(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]])  # distance sqrt(2)
        w = gaussian_knn_graph(x, sigma=1.0, k=1).toarray()
        assert w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_wide_bandwidth_limit(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        w = gaussian_knn_graph(x, sigma=1e8, k=5).toarray()
        off = w[~np.eye(6, dtype=bool)]
        assert np.allclose(off, 1.0, atol=1e-12)

    def test_zero_diagonal(self):
        rng = np.random.default_rng(1)
        w = gaussian_knn_graph(rng.standard_normal((5, 2)), sigma=1.0, k=4)
        assert np.all(w.diagonal() == 0.0) and w.nnz == 5 * 4


class TestLinearKernel:
    """The weights of linear_knn_graph, on full graphs (k = n - 1)."""

    def test_orthogonal_rows_not_stored(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        w = linear_knn_graph(x, k=2)
        dense = w.toarray()
        assert dense[0, 1] == 0.0
        assert w.nnz == 4  # (0,2) and (1,2), each stored in both triangles

    def test_dot_product_value(self):
        x = np.array([[1.0, 2.0], [3.0, 1.0]])
        assert linear_knn_graph(x, k=1).toarray()[0, 1] == pytest.approx(5.0)

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.random((6, 4))
        w = linear_knn_graph(x, k=5).toarray()
        gram = x @ x.T
        np.fill_diagonal(gram, 0.0)
        assert np.allclose(w, gram, atol=1e-12)


class TestKnnSparsify:
    """Top k edges per vertex, ties to the lowest column; either endpoint's pick keeps an edge."""

    def test_full_k_is_identity(self):
        x = np.random.default_rng(3).integers(0, 3, size=(7, 3)).astype(np.float64)
        assert same_graph(linear_knn_graph(x, k=6), oracle_graph.linear_kernel(x))

    def test_three_node_chain_union(self):
        # 0 and 2 both pick 1; 1 picks only 0, and keeps (1, 2) through 2's pick.
        out = gaussian_knn_graph(np.array([[0.0], [1.0], [2.2]]), sigma=1.0, k=1)
        assert edges(out) == {(0, 1), (1, 2)}

    def test_weights_unchanged(self):
        x = np.random.default_rng(4).standard_normal((20, 3))
        sparse = gaussian_knn_graph(x, sigma=1.0, k=4).toarray()
        full = oracle_graph.gaussian_kernel(x, 1.0).toarray()
        mask = sparse != 0.0
        assert np.allclose(sparse[mask], full[mask], atol=1e-12, rtol=0.0)

    def test_matches_row_loop_on_heavy_ties(self):
        x = tied_counts()
        out = linear_knn_graph(x, k=4)
        dense = oracle_graph.linear_kernel(x).toarray()
        kth = -np.sort(-dense, axis=1)[:, 3]
        assert np.sum(np.sum(dense == kth[:, None], axis=1) > 1) > 10  # ties at the k-th place
        assert same_graph(out, linear_reference(x, 4))  # weights included, bit for bit

    def test_ties_go_to_lowest_column(self):
        # Vertex 0 weighs 1, 2 and 3 equally (1); k=1 keeps column 1. Vertices
        # 1-3 pick vertex 4 (2), and 4 weighs them equally, keeping column 1.
        x = np.array([[1, 1, 1, 0, 0, 0], [1, 0, 0, 2, 0, 0], [0, 1, 0, 0, 2, 0],
                      [0, 0, 1, 0, 0, 2], [0, 0, 0, 1, 1, 1]], dtype=np.float64)
        out = linear_knn_graph(x, k=1)
        assert edges(out) == {(0, 1), (1, 4), (2, 4), (3, 4)}
        assert same_graph(out, linear_reference(x, 1))

    def test_larger_weight_beats_lower_column(self):
        # Vertex 0 keeps 3, its heaviest edge (2); 1-3 pick vertex 4 (3) instead of 0.
        x = np.array([[1, 1, 2, 0, 0, 0], [1, 0, 0, 3, 0, 0], [0, 1, 0, 0, 3, 0],
                      [0, 0, 1, 0, 0, 3], [0, 0, 0, 1, 1, 1]], dtype=np.float64)
        out = linear_knn_graph(x, k=1)
        assert edges(out) == {(0, 3), (1, 4), (2, 4), (3, 4)}
        assert same_graph(out, linear_reference(x, 1))


class TestLinearKnnGraph:
    def test_matches_dense_route_on_heavy_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(120):  # integer counts: exact products, many ties
            n = int(rng.integers(3, 71))
            x = rng.integers(0, 3, size=(n, int(rng.integers(2, 7)))).astype(np.float64)
            k = int(rng.integers(1, n))
            assert same_graph(linear_knn_graph(x, k=k), linear_reference(x, k))

    @pytest.mark.parametrize("block_rows", [1, 7, 59, 1000])
    def test_block_size_does_not_change_graph(self, monkeypatch, block_rows):
        x = tied_counts()
        reference = linear_knn_graph(x, k=4)
        monkeypatch.setattr(graph, "LINEAR_BLOCK_ROWS", block_rows)
        assert same_graph(linear_knn_graph(x, k=4), reference)

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    @pytest.mark.parametrize("kind", ["tied counts", "few positive products", "subnormal"])
    def test_selection_matches_the_three_pass_selection(self, monkeypatch, block_rows, kind):
        # The one comparison against max(kth, least positive double) and its flat
        # indices must pick what (block >= kth) & (block > 0) and np.nonzero picked,
        # in the same order, so that the symmetrized weights are the same too.
        rng = np.random.default_rng(21)
        k = 4
        if kind == "tied counts":
            x = rng.integers(0, 3, size=(300, 5)).astype(np.float64)
        elif kind == "few positive products":
            # One word per document, 200 words: most rows have fewer than k
            # positive products, so their k-th largest is 0.
            x = np.zeros((300, 200))
            x[np.arange(300), rng.integers(0, 200, 300)] = rng.integers(1, 3, 300)
            x[:: 7, 0] = 1.0
        else:
            # Products of 2**-537 and 2**-538 words are the least positive double,
            # half of it (rounded to zero) and a quarter of it (zero).
            x = rng.integers(0, 2, size=(300, 6)) * 2.0 ** rng.choice([-537, -538, -520], 6)
            x[:, 0] += 1.0 - np.sign(x.sum(axis=1))
        picks = []
        real_symmetrize = graph._symmetrize

        def recording(n, src, dst, vals):
            picks.append((src, dst, vals))
            return real_symmetrize(n, src, dst, vals)

        monkeypatch.setattr(graph, "_symmetrize", recording)
        monkeypatch.setattr(graph, "LINEAR_BLOCK_ROWS", block_rows)
        out = linear_knn_graph(x, k=k)
        src, dst, vals = oracle_graph.linear_picks(x, k, block_rows)
        (got_src, got_dst, got_vals), = picks
        assert np.array_equal(got_src, src) and np.array_equal(got_dst, dst)
        assert np.array_equal(got_vals.view(np.int64), vals.view(np.int64))
        n = x.shape[0]
        assert same_csr_arrays(out, oracle_graph.mirror(n, *oracle_graph.symmetrize(n, src, dst,
                                                                                      vals)))
        if kind == "few positive products":
            assert np.sum(np.bincount(src, minlength=n) < k) > 100
        if kind == "subnormal":
            assert np.any(vals == np.nextafter(0.0, 1.0))

    def test_ties_go_to_lowest_column(self):
        x = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert edges(linear_knn_graph(x, k=1)) == {(0, 1), (0, 2), (0, 3)}
        # Row 0 ties 1, 2 and 3 at 1; each of 1-3 ties the other two at 25.
        x = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 5.0],
                      [0.0, 1.0, 0.0, 5.0], [0.0, 0.0, 1.0, 5.0]])
        assert edges(linear_knn_graph(x, k=1)) == {(0, 1), (1, 2), (1, 3)}

    def test_orthogonal_rows_are_not_neighbors(self):
        x = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [0.0, 1.0], [0.0, 5.0]])
        out = linear_knn_graph(x, k=3)
        assert edges(out) == {(0, 1), (0, 2), (1, 2), (3, 4)}
        assert same_graph(out, linear_reference(x, 3))


class TestGaussianKnnGraph:
    def test_matches_dense_route(self):
        # The KD-tree's distances round differently from the dense formula's.
        rng = np.random.default_rng(7)
        for _ in range(120):
            n = int(rng.integers(3, 71))
            x = rng.standard_normal((n, int(rng.integers(1, 5))))
            sigma, k = float(rng.uniform(0.3, 2.0)), int(rng.integers(1, n))
            fast = gaussian_knn_graph(x, sigma, k)
            slow = oracle_graph.knn(oracle_graph.gaussian_kernel(x, sigma), k)
            assert np.array_equal(fast.indptr, slow.indptr)
            assert np.array_equal(fast.indices, slow.indices)
            assert np.allclose(fast.data, slow.data, atol=1e-12, rtol=0.0)

    def test_weights_are_the_kernel_of_the_tree_distances_bit_for_bit(self):
        # Each edge weighs np.exp(-(d ** 2) / (2 sigma^2)) of its first pick's
        # KD-tree distance, exactly 1 at d = 0; an underflowed weight leaves no
        # edge. Steps of 1e-3 to 3 over sigma = 0.05 give weights near 1,
        # subnormal ones (the far pair at 1.9) and underflows.
        rng = np.random.default_rng(31)
        sigma, k = 0.05, 4
        walk = np.cumsum(rng.standard_normal((300, 2))
                         * 10.0 ** rng.uniform(-3.0, 0.5, size=(300, 1)), axis=0)
        walk[::25] = walk[1::25]
        x = np.vstack([walk, [[1e3, 1e3], [1e3 + 1.9, 1e3]]])
        dist, idx = cKDTree(x).query(x, k=k + 1)
        with np.errstate(under="ignore"):
            kernel = np.exp(-(dist ** 2) / (2.0 * sigma * sigma))
        kernel[dist == 0.0] = 1.0
        assert np.any(kernel == 0.0) and np.any((kernel > 0.0) & (kernel < 2.0 ** -1022))
        expected = {}
        for i, (row_idx, row_kernel) in enumerate(zip(idx.tolist(), kernel)):
            picks = [(j, weight) for j, weight in zip(row_idx, row_kernel) if j != i][:k]
            for j, weight in picks:
                expected.setdefault((min(i, j), max(i, j)), weight)
        rows, cols, vals = upper(gaussian_knn_graph(x, sigma, k))
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(
            edge for edge, weight in expected.items() if weight > 0.0)
        want = np.array([expected[edge] for edge in zip(rows.tolist(), cols.tolist())])
        assert np.array_equal(vals.view(np.int64), want.view(np.int64))

    def test_duplicate_points(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        g = gaussian_knn_graph(x, sigma=1.0, k=2)
        dense = g.toarray()
        assert dense[0, 1] == pytest.approx(1.0)
        assert np.all(np.diag(dense) == 0.0)

    def test_duplicate_points_keep_their_edge_when_the_bandwidth_underflows(self):
        # 2 * sigma * sigma underflows to 0, and the kernel at distance 0 is still 1.
        x = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = gaussian_knn_graph(x, sigma=1e-200, k=1)
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = expected[2, 3] = expected[3, 2] = 1.0
        assert np.array_equal(g.toarray(), expected)


def directed_picks(rng, n, count):
    """count distinct (src, dst) pairs with src != dst, in random order, and random weights."""
    flat = rng.choice(n * (n - 1), size=count, replace=False)
    src, offset = np.divmod(flat, n - 1)
    dst = offset + (offset >= src)
    return src.astype(np.int64), dst.astype(np.int64), rng.uniform(0.1, 1.0, count)


class TestEdgeKernels:
    """_symmetrize and _mirror against the stable-sort and row-sorting kernels of oracle_graph."""

    def check(self, n, src, dst, vals):
        edges = graph._symmetrize(n, src, dst, vals)
        expected = oracle_graph.symmetrize(n, src, dst, vals)
        for got, want in zip(edges, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert same_csr_arrays(graph._mirror(n, *edges), oracle_graph.mirror(n, *expected))

    def test_random_directed_picks(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            self.check(n, *directed_picks(rng, n, int(rng.integers(1, n * (n - 1) + 1))))

    def test_pairs_picked_from_both_ends_keep_the_first_weight(self):
        # Every edge is picked from both ends, with weights that differ in
        # the last bit, in random order: the first pick's weight must win.
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            a, b = np.triu_indices(n, k=1)
            pick = rng.choice(a.size, size=int(rng.integers(1, a.size + 1)), replace=False)
            src, dst = np.concatenate([a[pick], b[pick]]), np.concatenate([b[pick], a[pick]])
            w = rng.uniform(0.1, 1.0, pick.size)
            vals = np.concatenate([w, np.nextafter(w, 2.0)])
            order = rng.permutation(src.size)
            self.check(n, src[order], dst[order], vals[order])

    def test_pair_keys_beyond_32_bits(self):
        rng = np.random.default_rng(23)
        n = 100_000
        src, dst, vals = directed_picks(rng, 50, 1000)
        src, dst = src + (n - 50), dst + (n - 50)
        assert (np.minimum(src, dst) * n + np.maximum(src, dst)).max() > 2 ** 31
        self.check(n, src, dst, vals)

    def test_zero_edges(self):
        empty = np.empty(0, dtype=np.int64)
        self.check(5, empty, empty, np.empty(0))

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_mirror_rejects_zero_and_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite and nonzero"):
            graph._mirror(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, bad]))


class TestThreadedQuery:
    """The KD-tree query runs on usable_cpus() threads: one inside a fork_map worker."""

    def test_query_threads_follow_usable_cpus(self, monkeypatch):
        calls = []

        class RecordingTree:
            def __init__(self, data):
                self.tree = cKDTree(data)

            def query(self, *args, **kwargs):
                calls.append(kwargs.get("workers", 1))
                return self.tree.query(*args, **kwargs)

        monkeypatch.setattr(graph, "cKDTree", RecordingTree)
        x = np.random.default_rng(24).standard_normal((50, 2))

        def build(_):
            calls.clear()
            gaussian_knn_graph(x, sigma=1.0, k=3)
            return list(calls)

        assert build(None) == [parallel.usable_cpus()]
        assert list(parallel.fork_map(build, range(2), 2)) == [[1], [1]]


class TestNormalizedLaplacian:
    def test_two_node_graph(self):
        w = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(
            normalized_laplacian(w).toarray(), [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15
        )

    def test_triangle_graph(self):
        w = sp.csr_matrix(np.ones((3, 3)) - np.eye(3))
        lap = normalized_laplacian(w).toarray()
        assert np.allclose(np.diag(lap), 1.0)
        off = lap[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5)

    def test_scaled_constant_vector_in_null_space(self):
        rng = np.random.default_rng(8)
        w = oracle_graph.gaussian_kernel(rng.standard_normal((12, 2)), 1.0)
        lap = normalized_laplacian(w)
        null = np.sqrt(degrees(w))
        assert np.linalg.norm(lap @ null) <= 1e-10 * np.linalg.norm(null)

    def test_psd_quadratic_form(self):
        rng = np.random.default_rng(9)
        w = oracle_graph.gaussian_kernel(rng.standard_normal((15, 3)), 0.9)
        lap = normalized_laplacian(w)
        for _ in range(100):
            x = rng.standard_normal(15)
            assert x @ (lap @ x) >= -1e-10

    def test_spectrum_in_range(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            x = rng.standard_normal((12, 2))
            w = oracle_graph.knn(oracle_graph.gaussian_kernel(x, 0.8), 4)
            vals = np.linalg.eigvalsh(normalized_laplacian(w).toarray())
            assert vals.max() <= 2.0 + 1e-8
            assert vals.min() >= -1e-10

    def test_connected_graph_has_zero_eigenvalue(self):
        rng = np.random.default_rng(11)
        w = oracle_graph.gaussian_kernel(rng.standard_normal((10, 2)), 1.0)
        vals = np.linalg.eigvalsh(normalized_laplacian(w).toarray())
        assert abs(vals[0]) <= 1e-8

    def test_isolated_vertex_identified(self):
        w = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(IsolatedVertexError) as info:
            normalized_laplacian(w)
        assert info.value.vertex == 2
        assert "vertex 2" in str(info.value)

    def irregular_graph(self):
        # Blobs of different spread give a wide range of degrees.
        rng = np.random.default_rng(12)
        x = np.vstack([rng.normal(scale=s, size=(100, 2)) + 4.0 * i
                       for i, s in enumerate((0.2, 0.7, 1.5))])
        w = gaussian_knn_graph(x, sigma=0.6, k=6)
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


def duplicated_points():
    # Each point twice: the pairs' weights are exactly 1.
    return np.repeat(np.random.default_rng(13).standard_normal((100, 2)), 2, axis=0)


# Affinity matrices, by name, with the component counts of their graphs.
AFFINITIES = {
    "connected": (lambda: gaussian_knn_graph(gaussian_blobs(300, classes=1, seed=1)[0], 1.0, 8),
                  1),
    "three-components": (lambda: gaussian_knn_graph(
        gaussian_blobs(600, classes=3, spread=0.1, seed=0)[0], 1.0, 10), 3),
    "duplicate-points": (lambda: gaussian_knn_graph(duplicated_points(), 0.5, 4), 5),
    "linear-kernel": (lambda: linear_knn_graph(two_block_corpus(n=200, jitter=0.5, seed=2)[3], 9),
                      2),
}


class TestLaplacianValue:
    """normalized_laplacian's value carries its degrees, components and norm."""

    @pytest.mark.parametrize("name", list(AFFINITIES))
    def test_carries_the_facts_of_its_matrices(self, name):
        build, components = AFFINITIES[name]
        w = build()
        lap = normalized_laplacian(w)
        assert isinstance(lap, SymmetricCSR) and sp.issparse(lap)
        assert np.array_equal(lap.degrees, _row_sums(w, w.data))
        count, labels = csgraph.connected_components(lap, directed=False)
        assert (lap.components, lap.labels.tolist()) == (count, labels.tolist())
        assert count == components
        assert np.array_equal(lap.row_norms, _row_sums(lap, np.abs(lap.data)))
        assert lap.norm == _row_sums(lap, np.abs(lap.data)).max()
        # L is not checked again: it must be exactly symmetric by construction.
        mirror = lap.T.tocsr()
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lap, part), getattr(mirror, part))
        for part in ("indptr", "indices", "data", "degrees", "labels", "row_norms"):
            assert not getattr(lap, part).flags.writeable
        if name == "duplicate-points":
            assert np.count_nonzero(w.data == 1.0) >= 200

    def test_derived_matrices_are_plain_and_pickles_keep_the_facts(self):
        lap = normalized_laplacian(AFFINITIES["three-components"][0]())
        for derived in (2.0 * lap, lap + lap, lap[:10], lap.copy()):
            assert type(derived) is sp.csr_matrix
        copy = pickle.loads(pickle.dumps(lap))
        assert type(copy) is SymmetricCSR and (copy != lap).nnz == 0
        assert (copy.components, copy.norm) == (lap.components, lap.norm)
        assert np.array_equal(copy.labels, lap.labels)

    @pytest.mark.parametrize("command", ["classify", "eigen-dump", "moons-demo"])
    def test_each_fact_is_derived_once_per_run(self, tmp_path, monkeypatch, command):
        # Three 600-point components for classify and eigen-dump; one moons run.
        x, truth = gaussian_blobs(1800, classes=3, seed=0)
        (tmp_path / "x.csv").write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        (tmp_path / "labels.csv").write_text(
            "".join(f"{np.flatnonzero(truth == c)[0]},{c}\n" for c in range(3)))
        argv = {"classify": ["--input", str(tmp_path / "x.csv"), "--k", "10",
                             "--labels", str(tmp_path / "labels.csv")],
                "eigen-dump": ["--input", str(tmp_path / "x.csv"), "--k", "10"],
                "moons-demo": ["--runs", "1"]}[command]
        spies = {name: mock.Mock(wraps=getattr(module, name)) for module, name in (
            (linalg, "check_symmetric"), (linalg, "_row_sums"), (csgraph, "connected_components"))}
        for module, name in ((graph, "check_symmetric"), (linalg, "check_symmetric"),
                             (graph, "_row_sums"), (linalg, "_row_sums"),
                             (csgraph, "connected_components")):
            monkeypatch.setattr(module, name, spies[name])
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # every solve in this process
        assert cli.main([command, *argv, "--output", str(tmp_path / "out")]) == 0
        assert {name: spy.call_count for name, spy in spies.items()} == {
            "check_symmetric": 1, "_row_sums": 2, "connected_components": 1}
