"""Spectral basis of the normalized Laplacian and its smoothness measures.

The symmetric factor of the Laplacian (square-root eigenvalues times the
transposed eigenvector matrix) is only exact when every eigenvector is
present, so the operations that need it demand a full basis; the solver path
works on a truncated basis and never materializes the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import smallest_eigenpairs

# Eigenvalues this far below zero are treated as PSD rounding noise and
# clamped before the square root; anything lower is a real error.
EIGENVALUE_CLAMP = -1e-8
EIGENVALUE_MAX = 2.0 + 1e-8

# gemv rounds an output row by its place in groups of a few rows counted
# from the call's first row, and numpy sends a one-row product to dot. Rows
# are rounded as in the whole product by a window that starts at a multiple
# of this, ends at one or at the last row, and holds at least two rows.
ROW_WINDOW = 64


@dataclass(frozen=True)
class SpectralBasis:
    """Smallest eigenpairs of a normalized Laplacian, ascending.

    vectors holds one orthonormal eigenvector per column.
    """

    vectors: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        # Copies, so that freezing them leaves the caller's arrays writeable.
        vectors = np.array(self.vectors, dtype=np.float64, order="C")
        eigenvalues = np.array(self.eigenvalues, dtype=np.float64, order="C")
        if vectors.ndim != 2 or eigenvalues.ndim != 1:
            raise ValueError("expected a 2-d vector block and 1-d eigenvalues")
        n, m = vectors.shape
        if eigenvalues.size != m or not 1 <= m <= n:
            raise ValueError("basis size must match eigenvalues and be within [1, n]")
        if m > 1 and np.any(np.diff(eigenvalues) < -1e-10):
            raise ValueError("eigenvalues must be ascending")
        if np.any(eigenvalues < EIGENVALUE_CLAMP) or np.any(eigenvalues > EIGENVALUE_MAX):
            raise ValueError("eigenvalues outside the normalized-Laplacian range [0, 2]")
        gram = vectors.T @ vectors
        if not np.allclose(gram, np.eye(m), atol=1e-8, rtol=0.0):
            raise ValueError("basis columns are not orthonormal to 1e-8")
        vectors.flags.writeable = False
        eigenvalues.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "eigenvalues", eigenvalues)

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def m(self):
        return self.vectors.shape[1]

    @property
    def full(self):
        """m == n: the basis spans the space, as the symmetric-factor operations require."""
        return self.m == self.n

    @property
    def sqrt_eigenvalues(self):
        return np.sqrt(np.maximum(self.eigenvalues, 0.0))

    def project(self, y):
        """Coefficients V' y of a vector, or of each column of an n x c block."""
        return _by_column(self.vectors.T, y)

    def expand(self, alpha):
        """Basis expansion V alpha of a vector, or of each column of an m x c block."""
        return _by_column(self.vectors, alpha)

    def expand_rows(self, alpha, start, stop):
        """Rows start:stop of expand(alpha), bit for bit, from a ROW_WINDOW-aligned window."""
        stop = min(stop, self.n)
        lo = start - start % ROW_WINDOW
        hi = min(-(-stop // ROW_WINDOW) * ROW_WINDOW, self.n)
        if hi - lo == 1 and lo > 0:
            lo -= ROW_WINDOW
        return _by_column(self.vectors[lo:hi], alpha)[start - lo:stop - lo]


def _by_column(matrix, block):
    """matrix @ block, one contiguous column at a time.

    A BLAS matrix-matrix product rounds an output column differently
    depending on how many columns it is computed with, so column j of a
    block product need not equal the product with column j alone. One
    matrix-vector product per contiguous column makes every column of the
    result bit-identical to the single-vector call.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim == 1:
        return matrix @ np.ascontiguousarray(block)
    columns = np.asfortranarray(block)
    out = np.empty((matrix.shape[0], columns.shape[1]))
    for j in range(columns.shape[1]):
        out[:, j] = matrix @ columns[:, j]
    return out


def build_basis(lap, m, seed=0):
    """Compute the m smallest eigenpairs of a normalized Laplacian.

    Deterministic for a fixed seed; negative eigenvalues within rounding
    distance of zero are clamped so square roots stay real.
    """
    values, vectors = smallest_eigenpairs(lap, m, seed=seed)
    values = np.where((values < 0.0) & (values >= EIGENVALUE_CLAMP), 0.0, values)
    return SpectralBasis(vectors=vectors, eigenvalues=values)


def _require_full(basis):
    if not basis.full:
        raise ValueError(
            "this operation needs the full spectral basis; a truncated basis "
            "cannot reproduce the symmetric factor exactly"
        )


def apply_b(basis, f):
    """Apply the symmetric factor (sqrt-eigenvalue-scaled analysis map) to f."""
    _require_full(basis)
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (basis.n,):
        raise ValueError(f"vector of length {f.size} does not match basis size {basis.n}")
    return basis.sqrt_eigenvalues * (basis.vectors.T @ f)


def l1_smoothness(basis, f):
    """L1 smoothness of f: the 1-norm of the symmetric factor applied to f."""
    return float(np.sum(np.abs(apply_b(basis, f))))


def l2_smoothness(lap, f):
    """Quadratic smoothness f' L f, computed straight from the sparse matrix."""
    f = np.asarray(f, dtype=np.float64)
    return float(f @ (lap @ f))


@dataclass(frozen=True)
class SmoothnessReport:
    """Fitting error and both smoothness measures of a solution vector."""

    l2_smoothness: float
    l1_smoothness: float
    fitting_error: float

    def __post_init__(self):
        for name in ("l2_smoothness", "l1_smoothness", "fitting_error"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


def smoothness_report(basis, lap, f, y):
    """Evaluate ||f - y||^2, f' L f, and the L1 smoothness for one solution."""
    _require_full(basis)
    # Contiguous, as a column of a score block is not: BLAS may round a
    # product with a strided vector differently.
    f = np.ascontiguousarray(f, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if f.shape != y.shape or f.shape != (basis.n,):
        raise ValueError("solution and target must both have the basis dimension")
    diff = f - y
    return SmoothnessReport(
        l2_smoothness=max(l2_smoothness(lap, f), 0.0),
        l1_smoothness=l1_smoothness(basis, f),
        fitting_error=float(diff @ diff),
    )
