"""Dense n x n reference graphs for graphssl.graph's k-NN graphs, sharing no code with them,
so a bug in graph.py's top-k or symmetrize steps cannot hide in the comparison."""

import numpy as np
import scipy.sparse as sp


def _mirrored(dense):
    """CSR of the strict upper triangle plus its mirror; zeros are not stored."""
    upper = np.triu(dense, k=1)
    return sp.csr_matrix(upper + upper.T)


def gaussian_kernel(x, sigma):
    """exp(-||xi - xj||^2 / (2 sigma^2)) off the diagonal; distance 0 weighs 1."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.sum(x * x, axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return _mirrored(np.where(d2 == 0.0, 1.0, np.exp(-d2 / (2.0 * sigma * sigma))))


def linear_kernel(x):
    """Inner products <xi, xj> off the diagonal."""
    x = np.asarray(x, dtype=np.float64)
    return _mirrored(x @ x.T)


def knn(w, k):
    """Row-by-row top k (largest weight, then lowest column), then the union."""
    dense = w.toarray()
    keep = np.zeros(dense.shape, dtype=bool)
    for i, row in enumerate(dense):
        ranked = sorted((-v, j) for j, v in enumerate(row) if j != i and v > 0.0)
        for _, j in ranked[:k]:
            keep[i, j] = keep[j, i] = True
    return sp.csr_matrix(np.where(keep, dense, 0.0))


def linear_picks(x, k, block_rows):
    """Directed (src, dst, weight) picks of the k-NN linear-kernel graph by the three-pass
    selection: (block >= kth) & (block > 0) over each block of block_rows kernel rows,
    np.nonzero of that 2-d mask, then each row's candidates sorted by weight descending
    and column ascending, its first k kept. Rows come in order."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    src, dst, vals = [], [], []
    for start in range(0, n, block_rows):
        block = x[start:start + block_rows] @ x.T
        local = np.arange(block.shape[0])
        block[local, start + local] = 0.0
        kth = np.partition(block, n - k, axis=1)[:, n - k, None]
        rows, cols = np.nonzero((block >= kth) & (block > 0.0))
        weights = block[rows, cols]
        for row in range(block.shape[0]):
            here = rows == row
            ranked = sorted(zip((-weights[here]).tolist(), cols[here].tolist()))
            for negated, col in ranked[:k]:
                src.append(start + row)
                dst.append(col)
                vals.append(-negated)
    return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), np.array(vals)


def symmetrize(n, src, dst, vals):
    """Undirected edges (lo, hi, weight) by a stable sort of the pair keys: each edge
    keeps the weight of its first pick in input order."""
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    pick = order[np.flatnonzero(np.diff(keys, prepend=-1))]
    return lo[pick], hi[pick], vals[pick]


def mirror(n, lo, hi, vals):
    """Symmetric CSR through COO, each (lo, hi) entry before its mirror, every row sorted by
    sum_duplicates, which also merges a repeated edge into one entry."""
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    w = sp.coo_matrix((np.concatenate([vals, vals]), (rows, cols)), shape=(n, n)).tocsr()
    w.sum_duplicates()
    return w
