"""Sparse symmetric matrices, conjugate gradients, and partial eigensolvers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceError

# Up to this size a dense eigensolve is cheap and essentially exact, so the
# iterative path is reserved for genuinely large problems. The dense path
# computes only the m requested pairs (LAPACK's MRRR driver, dsyevr), or the
# full decomposition when all n are asked for.
DENSE_EIGEN_CUTOFF = 512


class SparseSymMatrix:
    """Symmetric matrix stored as (row, col, value) triplets with row <= col.

    Off-diagonal entries are stored once and mirrored implicitly. Explicit
    zeros and duplicate coordinates are rejected. Instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("n", "rows", "cols", "vals", "_csr", "_norm_inf")

    def __init__(self, n, rows, cols, vals):
        n = int(n)
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if not (rows.ndim == cols.ndim == vals.ndim == 1 and rows.size == cols.size == vals.size):
            raise ValueError("triplet arrays must be one-dimensional and of equal length")
        if rows.size:
            if rows.min() < 0 or cols.max() >= n:
                raise ValueError("triplet coordinates out of range")
            if np.any(rows > cols):
                raise ValueError("triplets must satisfy row <= col")
            if np.any(vals == 0.0):
                raise ValueError("explicit zero entries are not allowed")
            if not np.all(np.isfinite(vals)):
                raise ValueError("matrix entries must be finite")
            order = np.lexsort((cols, rows))
            rows = rows[order]
            cols = cols[order]
            vals = vals[order]
            keys = rows * n + cols
            if np.any(np.diff(keys) == 0):
                raise ValueError("duplicate matrix entries")
        for arr in (rows, cols, vals):
            arr.flags.writeable = False
        self.n = n
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self._csr = None
        self._norm_inf = None

    @classmethod
    def from_triplets(cls, n, rows, cols, vals):
        """Build from triplets in either orientation, dropping exact zeros."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        swap = rows > cols
        r = np.where(swap, cols, rows)
        c = np.where(swap, rows, cols)
        keep = vals != 0.0
        return cls(n, r[keep], c[keep], vals[keep])

    @classmethod
    def from_dense(cls, a, tol=0.0):
        """Build from a dense symmetric array, dropping entries with |a_ij| <= tol."""
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
            raise ValueError("matrix is not symmetric")
        a = 0.5 * (a + a.T)
        mask = np.triu(np.abs(a) > tol)
        r, c = np.nonzero(mask)
        return cls(a.shape[0], r, c, a[r, c])

    @property
    def nnz(self):
        return self.vals.size

    def to_csr(self):
        """Full symmetric scipy CSR view (cached; treat as read-only)."""
        if self._csr is None:
            off = self.rows != self.cols
            r = np.concatenate([self.rows, self.cols[off]])
            c = np.concatenate([self.cols, self.rows[off]])
            v = np.concatenate([self.vals, self.vals[off]])
            csr = sp.coo_matrix((v, (r, c)), shape=(self.n, self.n)).tocsr()
            csr.sort_indices()
            self._csr = csr
        return self._csr

    def to_dense(self):
        return self.to_csr().toarray()

    def diagonal(self):
        d = np.zeros(self.n)
        mask = self.rows == self.cols
        d[self.rows[mask]] = self.vals[mask]
        return d

    def norm_inf(self):
        """Maximum absolute row sum; an upper bound on the spectral norm."""
        if self._norm_inf is None:
            s = np.zeros(self.n)
            np.add.at(s, self.rows, np.abs(self.vals))
            off = self.rows != self.cols
            np.add.at(s, self.cols[off], np.abs(self.vals[off]))
            self._norm_inf = float(s.max())
        return self._norm_inf

    def __matmul__(self, x):
        return spmv(self, x)


def spmv(a, x):
    """Multiply a SparseSymMatrix by a vector, mirroring each stored entry."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (a.n,):
        raise ValueError(f"vector of length {x.size} does not match matrix dimension {a.n}")
    return a.to_csr() @ x


def identity_plus_scaled(a, scale):
    """Return I + scale * A as a new SparseSymMatrix."""
    diag = 1.0 + scale * a.diagonal()
    off = a.rows != a.cols
    idx = np.arange(a.n)
    rows = np.concatenate([a.rows[off], idx])
    cols = np.concatenate([a.cols[off], idx])
    vals = np.concatenate([scale * a.vals[off], diag])
    keep = vals != 0.0
    return SparseSymMatrix(a.n, rows[keep], cols[keep], vals[keep])


def cg_solve(a, b, tol=1e-8, max_iters=None):
    """Conjugate gradients for SPD systems; returns (x, iterations, rel_residual).

    The returned x satisfies ||A x - b||_2 <= tol * ||b||_2, verified on the
    explicitly recomputed residual, not just the CG recurrence. Raises
    ConvergenceError when the budget (default 10 n) runs out first.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (a.n,):
        raise ValueError(f"right-hand side length {b.size} does not match dimension {a.n}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    budget = 10 * a.n if max_iters is None else int(max_iters)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(a.n), 0, 0.0
    target = tol * norm_b
    x = np.zeros(a.n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    residual = float(np.sqrt(rs))
    for iteration in range(1, budget + 1):
        ap = spmv(a, p)
        pap = float(p @ ap)
        if pap <= 0.0:
            raise ConvergenceError(
                "matrix is not positive definite along a search direction",
                residual=residual / norm_b,
            )
        alpha = rs / pap
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        residual = float(np.sqrt(rs_new))
        if residual <= target:
            # Guard against recurrence drift before accepting.
            exact = b - spmv(a, x)
            residual = float(np.linalg.norm(exact))
            if residual <= target:
                return x, iteration, residual / norm_b
            r = exact
            rs = residual * residual
            p = r.copy()
            continue
        beta = rs_new / rs
        p = r + beta * p
        rs = rs_new
    raise ConvergenceError(
        f"conjugate gradient did not reach tolerance {tol:g} within {budget} iterations",
        residual=residual / norm_b,
    )


def solve_spd(a, b, tol=1e-8, max_iters=None):
    """Solve A x = b for symmetric positive definite A; see cg_solve."""
    x, _, _ = cg_solve(a, b, tol=tol, max_iters=max_iters)
    return x


@dataclass(frozen=True)
class EigenPairs:
    """Ascending eigenvalues paired with orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if values.ndim != 1 or vectors.ndim != 2 or vectors.shape[1] != values.size:
            raise ValueError("eigenvector columns must pair one-to-one with eigenvalues")
        if values.size > 1 and np.any(np.diff(values) < -1e-10):
            raise ValueError("eigenvalues must be sorted ascending")
        gram = vectors.T @ vectors
        if not np.allclose(gram, np.eye(values.size), atol=1e-8, rtol=0.0):
            raise ValueError("eigenvectors are not orthonormal to 1e-8")
        values.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def m(self):
        return self.values.size


def smallest_eigenpairs(a, m, tol=1e-6, seed=0, method="auto", max_steps=None):
    """Return the m algebraically smallest eigenpairs of a symmetric PSD matrix.

    Parameters
    ----------
    a : SparseSymMatrix
        Symmetric positive semidefinite (caller guarantee).
    m : int
        Number of eigenpairs, 1 <= m <= n.
    tol : float
        Acceptance threshold: each pair must satisfy
        ||A v - lambda v||_2 <= tol * ||A||_inf.
    seed : int
        Seeds the iterative solver's starting vector; results are
        deterministic for a fixed seed.
    method : {"auto", "dense", "lanczos"}
        "auto" uses a dense decomposition up to DENSE_EIGEN_CUTOFF and a
        shift-invert Lanczos iteration (ARPACK) beyond it.
    max_steps : int, optional
        Iteration budget for the Lanczos path (default 10 m + 200).

    Raises
    ------
    ConvergenceError
        If the budget is exhausted or a returned pair misses the residual
        bound; carries the achieved residual.
    """
    m = int(m)
    if not 1 <= m <= a.n:
        raise ValueError(f"m must be in [1, {a.n}], got {m}")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    if method == "auto":
        method = "dense" if a.n <= DENSE_EIGEN_CUTOFF else "lanczos"
    if method == "lanczos" and m > a.n - 1:
        # ARPACK needs m < n; the full decomposition is dense territory anyway.
        method = "dense"

    if method == "dense" and m == a.n:
        # The evr driver would move moons-demo's full-basis metrics in the low bits.
        values, vectors = np.linalg.eigh(a.to_dense())
    elif method == "dense":
        values, vectors = scipy.linalg.eigh(a.to_dense(), subset_by_index=[0, m - 1])
    else:
        values, vectors = _shift_invert_lanczos(a, m, seed, max_steps)

    # Rayleigh quotients tie the reported values to the returned vectors.
    av = a.to_csr() @ vectors
    rayleigh = np.einsum("ij,ij->j", vectors, av)
    order = np.argsort(rayleigh, kind="stable")
    rayleigh = rayleigh[order]
    vectors = vectors[:, order]
    av = av[:, order]

    residuals = np.linalg.norm(av - vectors * rayleigh, axis=0)
    bound = tol * a.norm_inf()
    worst = float(residuals.max()) if m else 0.0
    if worst > max(bound, 1e-300):
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds bound {bound:.3e}",
            residual=worst,
        )
    return EigenPairs(values=rayleigh, vectors=vectors)


def _shift_invert_lanczos(a, m, seed, max_steps):
    """Smallest eigenpairs via ARPACK Lanczos on (A + shift I)^-1.

    A plain shift leaves the Krylov space unchanged, so the spectrum is
    mapped through a small-shift inverse instead: near-zero eigenvalues of a
    PSD matrix become large, well-separated ones, which is what Lanczos
    converges to fastest. The factorization also keeps the operator
    nonsingular when A itself is singular (disconnected graphs).

    A is PSD, so A + shift I is SPD and is factored once without pivoting
    under a symmetric minimum-degree ordering (George & Liu 1981). Every
    Lanczos step solves with this factor, which has far less fill than the
    pivoted COLAMD LU that eigsh builds for sigma on its own (2.0 M against
    4.7 M entries on a 30000-point k=10 Gaussian k-NN Laplacian).
    """
    budget = (10 * m + 200) if max_steps is None else int(max_steps)
    shift = max(1e-3 * a.norm_inf(), 1e-8)
    shifted = (a.to_csr() + shift * sp.identity(a.n, format="csr")).tocsc()
    try:
        lu = spla.splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        # A zero pivot in A + shift I means A is not positive semidefinite.
        raise ConvergenceError(
            f"factorization of the matrix shifted by {shift:.3e} failed: {exc}; "
            "the input is not positive semidefinite",
        ) from exc
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(a.n)
    try:
        values, vectors = spla.eigsh(
            a.to_csr(),
            k=m,
            sigma=-shift,
            which="LM",
            v0=v0,
            maxiter=budget,
            tol=0.0,
            OPinv=spla.LinearOperator((a.n, a.n), matvec=lu.solve, dtype=np.float64),
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge within {budget} iterations: {exc}",
        ) from exc
    return values, vectors
