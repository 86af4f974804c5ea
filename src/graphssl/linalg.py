"""Symmetric sparse-matrix checks, conjugate gradients, and partial eigensolvers.

Matrices are scipy CSR in canonical form (float64, sorted column indices, no
duplicates) with both triangles stored and no stored zeros; check_symmetric
enforces that where a matrix enters the library.
"""

from __future__ import annotations

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


def check_symmetric(a):
    """Return a as a canonical float64 CSR matrix, checked to be symmetric.

    a must be a square scipy sparse matrix whose stored entries are finite
    and nonzero and equal its transpose bit for bit. Duplicate coordinates
    are summed (on a copy), as scipy defines them.
    """
    if not sp.issparse(a):
        raise TypeError(f"expected a scipy sparse matrix, got {type(a).__name__}")
    a = a.tocsr().astype(np.float64, copy=False)
    if a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not a.has_canonical_format:
        a = a.copy()
        a.sum_duplicates()
    if not np.all(np.isfinite(a.data)):
        raise ValueError("matrix entries must be finite")
    if np.any(a.data == 0.0):
        raise ValueError("explicit zero entries are not allowed")
    t = a.T.tocsr()
    if not (np.array_equal(a.indptr, t.indptr) and np.array_equal(a.indices, t.indices)
            and np.array_equal(a.data, t.data)):
        raise ValueError("matrix is not symmetric")
    return a


def _row_sums(a, values):
    """Row sums of values laid out like the stored entries of symmetric CSR a.

    Each row adds its diagonal and upper-triangle entries first, then its
    lower-triangle entries, each group by ascending column. The order is
    fixed because the rounding of these sums sets graph degrees and ||A||_inf,
    and through them Laplacian values, the Lanczos shift and the residual
    bound.
    """
    n = a.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    upper = a.indices >= rows
    sums = np.zeros(n)
    np.add.at(sums, rows[upper], values[upper])
    np.add.at(sums, rows[~upper], values[~upper])
    return sums


def cg_solve(a, b, tol=1e-8, max_iters=None):
    """Conjugate gradients for SPD systems; returns (x, iterations, rel_residual).

    a is a square sparse matrix, symmetric positive definite (caller
    guarantee). The returned x satisfies ||A x - b||_2 <= tol * ||b||_2,
    verified on the explicitly recomputed residual, not just the CG
    recurrence. Raises ConvergenceError when the budget (default 10 n) runs
    out first.
    """
    n = a.shape[0]
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"right-hand side length {b.size} does not match dimension {n}")
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    budget = 10 * n if max_iters is None else int(max_iters)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros(n), 0, 0.0
    target = tol * norm_b
    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    residual = float(np.sqrt(rs))
    for iteration in range(1, budget + 1):
        ap = a @ p
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
            exact = b - a @ x
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


def smallest_eigenpairs(a, m, tol=1e-6, seed=0, method="auto", max_steps=None):
    """Return (values, vectors), the m algebraically smallest eigenpairs of a.

    values ascend; column j of vectors pairs with values[j]. The values are
    the Rayleigh quotients of the returned vectors, whose orthonormality
    SpectralBasis checks.

    Parameters
    ----------
    a : scipy sparse matrix
        Symmetric (checked by check_symmetric) and positive semidefinite
        (caller guarantee).
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
    a = check_symmetric(a)
    n = a.shape[0]
    m = int(m)
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    if method == "auto":
        method = "dense" if n <= DENSE_EIGEN_CUTOFF else "lanczos"
    if method == "lanczos" and m > n - 1:
        # ARPACK needs m < n; the full decomposition is dense territory anyway.
        method = "dense"

    norm = float(_row_sums(a, np.abs(a.data)).max())  # ||A||_inf bounds the spectral norm
    if method == "dense" and m == n:
        # The evr driver would move moons-demo's full-basis metrics in the low bits.
        values, vectors = np.linalg.eigh(a.toarray())
    elif method == "dense":
        values, vectors = scipy.linalg.eigh(a.toarray(), subset_by_index=[0, m - 1])
    else:
        values, vectors = _shift_invert_lanczos(a, m, seed, max_steps, norm)

    # Rayleigh quotients tie the reported values to the returned vectors.
    av = a @ vectors
    rayleigh = np.einsum("ij,ij->j", vectors, av)
    order = np.argsort(rayleigh, kind="stable")
    rayleigh = rayleigh[order]
    vectors = vectors[:, order]
    av = av[:, order]

    residuals = np.linalg.norm(av - vectors * rayleigh, axis=0)
    bound = tol * norm
    worst = float(residuals.max())
    if worst > max(bound, 1e-300):
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds bound {bound:.3e}",
            residual=worst,
        )
    return rayleigh, vectors


def _shift_invert_lanczos(a, m, seed, max_steps, norm):
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
    n = a.shape[0]
    shift = max(1e-3 * norm, 1e-8)
    shifted = (a + shift * sp.identity(n, format="csr")).tocsc()
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
    v0 = rng.standard_normal(n)
    try:
        values, vectors = spla.eigsh(
            a,
            k=m,
            sigma=-shift,
            which="LM",
            v0=v0,
            maxiter=budget,
            tol=0.0,
            OPinv=spla.LinearOperator((n, n), matvec=lu.solve, dtype=np.float64),
        )
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError(
            f"eigensolver did not converge within {budget} iterations: {exc}",
        ) from exc
    return values, vectors
