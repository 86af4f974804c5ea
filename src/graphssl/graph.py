"""Affinity graphs and the normalized Laplacian, as checked symmetric scipy CSR matrices."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from . import parallel
from .errors import IsolatedVertexError
from .linalg import _row_sums, check_symmetric

# Rows of the linear kernel that linear_knn_graph holds at once.
LINEAR_BLOCK_ROWS = 256


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
    # Mirrored entries first: edges sorted by (lo, hi) then leave tocsr with sorted rows.
    rows, cols = np.concatenate([hi, lo]), np.concatenate([lo, hi])
    w = sp.coo_matrix((np.concatenate([vals, vals]), (rows, cols)), shape=(n, n)).tocsr()
    w.sum_duplicates()  # sorts any unsorted row; a repeated edge would merge into one entry
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
    first pick in input order (its equal keys' earliest position, as a stable
    sort would pick). Each (src, dst) pair must occur at most once.
    """
    lo_idx = np.minimum(src, dst)
    hi_idx = np.maximum(src, dst)
    keys = lo_idx * n + hi_idx
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    pick = np.minimum.reduceat(order, first)
    return lo_idx[pick], hi_idx[pick], vals[pick]


def linear_knn_graph(x, k):
    """k-NN linear-kernel graph of nonnegative features, built from row blocks.

    Each block of LINEAR_BLOCK_ROWS rows is multiplied by x.T, its self
    entries are zeroed and every row keeps its k largest positive products
    (ties to the lowest column), found by one comparison in row-major
    order; an edge survives when either endpoint picks it. Memory stays
    O(block * n), and the result does not depend on the block size.
    tests/oracle_graph.py holds the dense n x n reference.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    x = _as_features(x)
    if np.any(x < 0.0):
        raise ValueError("linear kernel requires nonnegative features")
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of vertices {n}")
    cut = n - k
    src_parts, dst_parts, val_parts = [], [], []
    for start in range(0, n, LINEAR_BLOCK_ROWS):
        block = x[start:start + LINEAR_BLOCK_ROWS] @ x.T
        local = np.arange(block.shape[0])
        block[local, start + local] = 0.0
        # A row's top k lie at or above its k-th largest product, and are
        # positive: the least double above zero is the smallest subnormal.
        kth = np.partition(block, cut, axis=1)[:, cut, None]
        flat = np.flatnonzero(block >= np.maximum(kth, np.nextafter(0.0, 1.0)))
        rows, cols = np.divmod(flat, n)
        vals = block.ravel()[flat]
        keep = _top_k_per_row(rows, cols, vals, k)
        src_parts.append(rows[keep] + start)
        dst_parts.append(cols[keep])
        val_parts.append(vals[keep])
    src = np.concatenate(src_parts)
    if src.size == 0:
        raise ValueError("weight matrix has no edges")
    dst, vals = np.concatenate(dst_parts), np.concatenate(val_parts)
    return _mirror(n, *_symmetrize(n, src, dst, vals))


def gaussian_knn_graph(x, sigma, k):
    """k-NN Gaussian affinity graph of bandwidth sigma built directly from features.

    An edge survives when either endpoint picks the other. Neighbors come
    from a KD-tree, which keeps the construction close to n log n instead of
    forming the dense kernel of tests/oracle_graph.py. Selecting neighbors by
    distance equals selecting by kernel value because the kernel is
    monotone. The query runs on usable_cpus() threads, joined on return.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if k < 1:
        raise ValueError("k must be at least 1")
    x = _as_features(x)
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two samples")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of samples {n}")
    tree = cKDTree(x)
    dist, idx = tree.query(x, k=k + 1, workers=parallel.usable_cpus())
    # Drop exactly one slot per row: the self match when present, else the
    # farthest hit (self can be crowded out by duplicate points).
    drop = idx == np.arange(n)[:, None]
    missing = ~drop.any(axis=1)
    drop[missing, -1] = True
    keep = ~drop
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = idx[keep].astype(np.int64, copy=False)
    # A bandwidth small enough to under- or overflow the exponent gives
    # weight 0; such edges are dropped below, as any underflowed weight is.
    # Duplicate points keep weight exactly 1, even where 0/0 would be NaN.
    dd = dist[keep]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        wvals = np.where(dd == 0.0, 1.0, np.exp(-(dd ** 2) / (2.0 * sigma * sigma)))
    nz = wvals > 0.0
    src, dst, wvals = src[nz], dst[nz], wvals[nz]
    del dist, idx, drop, keep, dd, nz  # the edge kernels set the peak memory; free these first
    return _mirror(n, *_symmetrize(n, src, dst, wvals))


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
