"""Affinity graphs and the normalized Laplacian, as checked symmetric scipy CSR matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .errors import IsolatedVertexError
from .linalg import _row_sums, check_symmetric

# Rows of the linear kernel that linear_knn_graph holds at once.
LINEAR_BLOCK_ROWS = 256


@dataclass(frozen=True)
class GraphConfig:
    """Neighborhood-graph parameters.

    sigma is the Gaussian kernel bandwidth and k the neighbor count; an
    edge survives when either endpoint selects the other.
    """

    sigma: float = 1.0
    k: int = 4

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")


def _check_weights(w):
    """check_symmetric, plus strictly positive weights and an empty diagonal."""
    w = check_symmetric(w)
    if np.any(w.data <= 0.0):
        raise ValueError("affinity weights must be strictly positive")
    if np.any(w.diagonal() != 0.0):
        raise ValueError("affinity diagonal must be empty")
    return w


def _mirror(n, lo, hi, vals):
    """Symmetric CSR weight matrix from undirected edges (lo < hi, weight)."""
    if not np.all(np.isfinite(vals) & (vals != 0.0)):
        raise ValueError("edge weights must be finite and nonzero")
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    w = sp.coo_matrix((np.concatenate([vals, vals]), (rows, cols)), shape=(n, n)).tocsr()
    w.sum_duplicates()  # sorts each row; a repeated edge would merge into one entry
    if w.nnz != 2 * vals.size:
        raise ValueError("duplicate matrix entries")
    return w


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
    the kernel underflows to exactly zero. Duplicate points keep weight
    exactly 1 at any bandwidth, as in gaussian_knn_graph.
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(d2 == 0.0, 1.0, np.exp(-d2 / (2.0 * sigma * sigma)))
    iu, ju = np.triu_indices(n, k=1)
    vals = w[iu, ju]
    keep = vals > 0.0
    return _mirror(n, iu[keep], ju[keep], vals[keep])


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
    return _mirror(n, iu[keep], ju[keep], vals[keep])


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


def _symmetrize(n, src, dst, vals):
    """Undirected edges (lo, hi, weight), sorted by (lo, hi), from directed picks.

    An edge is kept when either endpoint picked it, with the weight of the
    first pick in input order. Each (src, dst) pair must occur at most once.
    """
    lo_idx = np.minimum(src, dst)
    hi_idx = np.maximum(src, dst)
    keys = lo_idx * n + hi_idx
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    pick = order[first]
    return lo_idx[pick], hi_idx[pick], vals[pick]


def knn_sparsify(w, config):
    """Keep each vertex's k strongest edges, then symmetrize.

    (i, j) is kept if either endpoint ranks the other among its top k
    weights. Ties go to the lowest column index. Surviving weights are
    unchanged.
    """
    w = _check_weights(w)
    n = w.shape[0]
    if config.k >= n:
        raise ValueError(f"k={config.k} must be smaller than the number of vertices {n}")
    if w.nnz == 0:
        raise ValueError("weight matrix has no edges")
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(w.indptr))
    dst = w.indices.astype(np.int64)
    keep = _top_k_per_row(src, dst, w.data, config.k)
    lo_idx, hi_idx, vals = _symmetrize(n, src[keep], dst[keep], w.data[keep])
    return _mirror(n, lo_idx, hi_idx, vals)


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
    lo_idx, hi_idx, vals = _symmetrize(n, src, dst, vals)
    return _mirror(n, lo_idx, hi_idx, vals)


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
    # A bandwidth small enough to under- or overflow the exponent gives
    # weight 0; such edges are dropped below, as any underflowed weight is.
    # Duplicate points keep weight exactly 1, even where 0/0 would be NaN.
    dd = dd.reshape(-1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wvals = np.where(dd == 0.0, 1.0, np.exp(-(dd ** 2) / (2.0 * config.sigma * config.sigma)))
    nz = wvals > 0.0
    src, dst, wvals = src[nz], dst[nz], wvals[nz]
    lo_idx, hi_idx, wvals = _symmetrize(n, src, dst, wvals)
    return _mirror(n, lo_idx, hi_idx, wvals)


def normalized_laplacian(w):
    """I - D^-1/2 W D^-1/2 with D_ii the sum of row i of W.

    Symmetric positive semidefinite with spectrum inside [0, 2]. w must be
    symmetric with strictly positive weights and an empty diagonal. An
    isolated vertex (zero row sum) raises IsolatedVertexError naming it.
    """
    w = _check_weights(w)
    n = w.shape[0]
    deg = _row_sums(w, w.data)
    zero = np.flatnonzero(deg == 0.0)
    if zero.size:
        raise IsolatedVertexError(int(zero[0]))
    inv_sqrt = 1.0 / np.sqrt(deg)
    # Scale entry (i, j) and its mirror (j, i) in one order, lower index
    # first, so that the Laplacian stays exactly symmetric.
    rows = np.repeat(np.arange(n), np.diff(w.indptr))
    lo, hi = np.minimum(rows, w.indices), np.maximum(rows, w.indices)
    off = sp.csr_matrix((-w.data * inv_sqrt[lo] * inv_sqrt[hi], w.indices, w.indptr), shape=(n, n))
    # The sum drops entries that the normalization underflowed to zero.
    return sp.identity(n, format="csr") + off
