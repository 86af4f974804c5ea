"""Affinity graph construction and the normalized Laplacian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import IsolatedVertexError
from .linalg import SparseSymMatrix

SYMMETRIZATIONS = ("union", "mutual")
WEIGHT_KINDS = ("gaussian", "linear", "precomputed")
# Rows of the linear kernel that linear_knn_graph holds at once.
LINEAR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class GraphConfig:
    """Neighborhood-graph parameters.

    sigma is the Gaussian kernel bandwidth, k the neighbor count, and
    symmetrization decides whether an edge survives when either endpoint
    selects it ("union") or only when both do ("mutual").
    """

    sigma: float = 1.0
    k: int = 4
    symmetrization: str = "union"

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.symmetrization not in SYMMETRIZATIONS:
            raise ValueError(f"symmetrization must be one of {SYMMETRIZATIONS}")


@dataclass(frozen=True)
class WeightMatrix:
    """Nonnegative symmetric affinity matrix with an empty diagonal."""

    inner: SparseSymMatrix
    kind: str = "precomputed"

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"kind must be one of {WEIGHT_KINDS}")
        if np.any(self.inner.vals <= 0.0):
            raise ValueError("affinity weights must be strictly positive")
        if np.any(self.inner.rows == self.inner.cols):
            raise ValueError("affinity diagonal must be empty")

    @property
    def n(self):
        return self.inner.n


def _as_features(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("features must be a 2-d array of shape (samples, dims)")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    return x


def gaussian_weights(x, sigma):
    """Dense Gaussian-kernel affinities exp(-||xi - xj||^2 / (2 sigma^2)).

    The diagonal is forced to zero; every off-diagonal pair is stored unless
    the kernel underflows to exactly zero.
    """
    x = _as_features(x)
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    w = np.exp(-d2 / (2.0 * sigma * sigma))
    iu, ju = np.triu_indices(n, k=1)
    vals = w[iu, ju]
    keep = vals > 0.0
    return WeightMatrix(SparseSymMatrix(n, iu[keep], ju[keep], vals[keep]), kind="gaussian")


def _linear_features(x):
    """Features for a linear kernel: finite, nonnegative, at least two samples."""
    x = _as_features(x)
    if np.any(x < 0.0):
        raise ValueError("linear kernel requires nonnegative features")
    if x.shape[0] < 2:
        raise ValueError("need at least two samples")
    return x


def linear_kernel(x):
    """Inner-product affinities <xi, xj> for nonnegative features.

    Zero products (orthogonal rows) are not stored; any negative feature is
    rejected because it could produce a negative weight.
    """
    x = _linear_features(x)
    n = x.shape[0]
    g = x @ x.T
    iu, ju = np.triu_indices(n, k=1)
    vals = g[iu, ju]
    keep = vals > 0.0
    return WeightMatrix(SparseSymMatrix(n, iu[keep], ju[keep], vals[keep]), kind="linear")


def _top_k_per_row(src, dst, vals, k):
    """Positions of each source's k largest weights.

    Within a source, entries rank by weight descending, then by destination
    ascending, so ties go to the lowest column and the choice depends on the
    values only.
    """
    order = np.lexsort((dst, -vals, src))
    src = src[order]
    first = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    rank = np.arange(src.size) - np.repeat(first, np.diff(np.r_[first, src.size]))
    return order[rank < k]


def _symmetrize(n, src, dst, vals, symmetrization):
    """Undirected edges (lo, hi, weight), sorted by (lo, hi), from directed picks.

    Union keeps an edge that either endpoint picked; mutual keeps only edges
    picked from both ends. The weight is that of the first pick in input
    order. Each (src, dst) pair must occur at most once.
    """
    lo_idx = np.minimum(src, dst)
    hi_idx = np.maximum(src, dst)
    keys = lo_idx * n + hi_idx
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    if symmetrization == "mutual":
        counts = np.diff(np.append(first, keys.size))
        first = first[counts == 2]
        if first.size == 0:
            raise ValueError("mutual symmetrization removed every edge")
    pick = order[first]
    return lo_idx[pick], hi_idx[pick], vals[pick]


def knn_sparsify(w, config):
    """Keep each vertex's k strongest edges, then symmetrize.

    Union mode keeps (i, j) if either endpoint ranks the other among its top
    k weights; mutual mode requires both. Ties go to the lowest column
    index. Surviving weights are unchanged.
    """
    n = w.n
    if config.k >= n:
        raise ValueError(f"k={config.k} must be smaller than the number of vertices {n}")
    csr = w.inner.to_csr()
    if csr.nnz == 0:
        raise ValueError("weight matrix has no edges")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    dst = csr.indices.astype(np.int64)
    keep = _top_k_per_row(src, dst, csr.data, config.k)
    lo_idx, hi_idx, vals = _symmetrize(n, src[keep], dst[keep], csr.data[keep],
                                       config.symmetrization)
    return WeightMatrix(SparseSymMatrix(n, lo_idx, hi_idx, vals), kind=w.kind)


def linear_knn_graph(x, config):
    """k-NN linear-kernel graph built from row blocks of the features.

    Matches knn_sparsify(linear_kernel(x), config) without forming the n x n
    kernel: each block of LINEAR_BLOCK_ROWS rows is multiplied by x.T, its
    self entries are zeroed and every row keeps its k largest positive
    products (ties to the lowest column), so memory stays O(block * n) and
    the result does not depend on the block size.
    """
    x = _linear_features(x)
    n = x.shape[0]
    if config.k >= n:
        raise ValueError(f"k={config.k} must be smaller than the number of vertices {n}")
    cut = n - config.k
    src_parts, dst_parts, val_parts = [], [], []
    for start in range(0, n, LINEAR_BLOCK_ROWS):
        block = x[start:start + LINEAR_BLOCK_ROWS] @ x.T
        local = np.arange(block.shape[0])
        block[local, start + local] = 0.0
        # A row's top k lie at or above its k-th largest product.
        kth = np.partition(block, cut, axis=1)[:, cut, None]
        rows, cols = np.nonzero((block >= kth) & (block > 0.0))
        vals = block[rows, cols]
        keep = _top_k_per_row(rows, cols, vals, config.k)
        src_parts.append(rows[keep] + start)
        dst_parts.append(cols[keep])
        val_parts.append(vals[keep])
    src = np.concatenate(src_parts)
    if src.size == 0:
        raise ValueError("weight matrix has no edges")
    dst, vals = np.concatenate(dst_parts), np.concatenate(val_parts)
    lo_idx, hi_idx, vals = _symmetrize(n, src, dst, vals, config.symmetrization)
    return WeightMatrix(SparseSymMatrix(n, lo_idx, hi_idx, vals), kind="linear")


def gaussian_knn_graph(x, config):
    """k-NN Gaussian affinity graph built directly from features.

    Matches knn_sparsify(gaussian_weights(x, sigma), config) without forming
    the dense kernel; neighbors come from a KD-tree, which keeps the
    construction close to n log n. Selecting neighbors by distance equals
    selecting by kernel value because the kernel is monotone.
    """
    x = _as_features(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    if config.k >= n:
        raise ValueError(f"k={config.k} must be smaller than the number of samples {n}")
    tree = cKDTree(x)
    dist, idx = tree.query(x, k=config.k + 1)
    # Drop exactly one slot per row: the self match when present, else the
    # farthest hit (self can be crowded out by duplicate points).
    drop = idx == np.arange(n)[:, None]
    missing = ~drop.any(axis=1)
    drop[missing, -1] = True
    keep = ~drop
    dst = idx[keep].reshape(n, config.k)
    dd = dist[keep].reshape(n, config.k)
    src = np.repeat(np.arange(n, dtype=np.int64), config.k)
    dst = dst.reshape(-1).astype(np.int64)
    wvals = np.exp(-(dd.reshape(-1) ** 2) / (2.0 * config.sigma * config.sigma))
    nz = wvals > 0.0
    src, dst, wvals = src[nz], dst[nz], wvals[nz]
    lo_idx, hi_idx, wvals = _symmetrize(n, src, dst, wvals, config.symmetrization)
    return WeightMatrix(SparseSymMatrix(n, lo_idx, hi_idx, wvals), kind="gaussian")


def normalized_laplacian(w):
    """I - D^-1/2 W D^-1/2 with D_ii the sum of row i of W.

    Symmetric positive semidefinite with spectrum inside [0, 2]. An isolated
    vertex (zero row sum) raises IsolatedVertexError naming the vertex.
    """
    n = w.n
    deg = np.zeros(n)
    np.add.at(deg, w.inner.rows, w.inner.vals)
    np.add.at(deg, w.inner.cols, w.inner.vals)
    zero = np.flatnonzero(deg == 0.0)
    if zero.size:
        raise IsolatedVertexError(int(zero[0]))
    inv_sqrt = 1.0 / np.sqrt(deg)
    off_vals = -w.inner.vals * inv_sqrt[w.inner.rows] * inv_sqrt[w.inner.cols]
    keep = off_vals != 0.0  # normalization can underflow an extreme weight
    idx = np.arange(n, dtype=np.int64)
    rows = np.concatenate([w.inner.rows[keep], idx])
    cols = np.concatenate([w.inner.cols[keep], idx])
    vals = np.concatenate([off_vals[keep], np.ones(n)])
    return SparseSymMatrix(n, rows, cols, vals)
