"""Symmetric sparse-matrix checks, SPD factorization, and partial eigensolvers.

Matrices are scipy CSR in canonical form (float64, sorted column indices, no
duplicates) with both triangles stored and no stored zeros; check_symmetric
enforces that where a matrix enters the library. A SymmetricCSR (such as
graph.normalized_laplacian's) also carries its row norms and components.

smallest_eigenpairs splits a matrix into its connected components and
solves each one on its own, dense or by shift-invert Lanczos; the Lanczos
solves of several components run on forked worker processes.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import parallel
from .errors import ConvergenceError

# Up to this size a dense eigensolve is cheap and essentially exact, so the
# iterative path is reserved for genuinely large problems. The dense path
# computes only the m requested pairs (LAPACK's MRRR driver, dsyevr), or the
# full decomposition when all n are asked for.
DENSE_EIGEN_CUTOFF = 512

# Each returned eigenpair must meet ||A v - lambda v||_2 <= EIGEN_RESIDUAL_TOL
# ||A||_inf, checked on the whole matrix.
EIGEN_RESIDUAL_TOL = 1e-6


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
    rows = np.repeat(np.arange(n, dtype=a.indices.dtype), np.diff(a.indptr))
    upper = a.indices >= rows
    sums = np.zeros(n)
    np.add.at(sums, rows[upper], values[upper])
    np.add.at(sums, rows[~upper], values[~upper])
    return sums


class SymmetricCSR(sp.csr_matrix):
    """A symmetric CSR matrix, frozen, with the facts symmetric_csr derived once.

    row_norms are the row sums of |A| (_row_sums) and norm, their maximum, is
    ||A||_inf; components and labels are those of A's graph; degrees are the
    affinity row sums of a normalized Laplacian, else None. scipy builds each
    matrix derived from one (a sum, a product, a slice) as self.__class__(...),
    which gives a plain CSR matrix without the facts.
    """

    def __new__(cls, *args, **kwargs):
        # Unpickling calls cls.__new__(cls), then restores the attributes.
        return sp.csr_matrix(*args, **kwargs) if args or kwargs else super().__new__(cls)


def symmetric_csr(a, degrees=None):
    """The canonical symmetric CSR matrix a, its values not copied, as a SymmetricCSR."""
    # Imported here: a process that builds no graph (the noise-sweep parent) maps no csgraph.
    from scipy.sparse.csgraph import connected_components

    value = SymmetricCSR.__new__(SymmetricCSR)
    sp.csr_matrix.__init__(value, (a.data, a.indices, a.indptr), shape=a.shape)
    value.row_norms, value.degrees = _row_sums(a, np.abs(a.data)), degrees
    value.norm = float(value.row_norms.max())  # ||A||_inf bounds the spectral norm
    if not np.isfinite(value.norm):
        raise ValueError("matrix row sums overflow: ||A||_inf is not finite")
    value.components, value.labels = connected_components(a, directed=False)
    for array in (v for v in vars(value).values() if isinstance(v, np.ndarray)):
        array.flags.writeable = False
    return value


def spd_factor(a, shift=0.0):
    """SuperLU factor of the SPD matrix a + shift I; its solve(b) returns x.

    The factor is computed without pivoting under a symmetric minimum-degree
    ordering (George & Liu 1981), which has far less fill than the pivoted
    COLAMD LU that scipy builds by default (2.0 M against 4.7 M entries on a
    30000-point k=10 Gaussian k-NN Laplacian). Positive definiteness is the
    caller's guarantee; a zero pivot raises ConvergenceError naming the shift.

    Minimum degree stalls on dense rows, such as the hub documents of a
    linear-kernel k-NN graph. A row with more than max(16, 10 sqrt(n)) stored
    entries counts as dense, AMD's default threshold (Amestoy, Davis & Duff
    1996). When some rows but not all are dense, the hub-free principal block
    is ordered by minimum degree (SuperLU has no ordering-only call, so the
    block is factored once to read its column order), the dense rows are
    ordered after it, and the symmetrically permuted matrix is factored in
    that order: 7-9 ms instead of 36-46 ms on the 1500-point components of
    refine-bow's 3000-document corpus, with about the same fill.
    """
    n = a.shape[0]
    if shift:
        a = a + shift * sp.identity(n, format="csr")
    a = a.tocsc()
    options = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    dense = np.diff(a.indptr) > max(16, 10 * np.sqrt(n))
    try:
        if not dense.any() or dense.all():
            return spla.splu(a, permc_spec="MMD_AT_PLUS_A", **options)
        sparse = np.flatnonzero(~dense)
        block = spla.splu(a[sparse][:, sparse], permc_spec="MMD_AT_PLUS_A", **options)
        # perm_c[i] is the place of column i, so argsort lists the columns in order.
        perm = np.concatenate([sparse[np.argsort(block.perm_c)], np.flatnonzero(dense)])
        lu = spla.splu(a[perm][:, perm], permc_spec="NATURAL", **options)
        inverse = np.argsort(perm)  # so that a solve comes back in a's own order
        return SimpleNamespace(solve=lambda b: lu.solve(b[perm])[inverse])
    except RuntimeError as exc:
        raise ConvergenceError(
            f"factorization of the matrix shifted by {shift:.3e} failed: {exc}; "
            "the matrix is not positive definite",
        ) from exc


def smallest_eigenpairs(a, m, seed=0):
    """Return (values, vectors), the m algebraically smallest eigenpairs of a.

    values ascend; column j of vectors pairs with values[j]. The values are
    the Rayleigh quotients of the returned vectors, whose orthonormality
    SpectralBasis checks.

    The spectrum of a block-diagonal matrix is the union of its blocks'
    spectra, and each eigenvector can be taken zero outside its block (von
    Luxburg 2007). So a matrix whose graph has several connected components
    is solved one component at a time (see _by_component), and every
    returned vector is zero outside its component. A connected matrix is
    solved whole. A component of up to DENSE_EIGEN_CUTOFF points is solved
    by a dense decomposition, a larger one by a shift-invert Lanczos
    iteration (ARPACK).

    Parameters
    ----------
    a : scipy sparse matrix
        Symmetric and positive semidefinite (caller guarantee). A
        SymmetricCSR is used as it is; any other matrix is checked by
        check_symmetric and frozen by symmetric_csr.
    m : int
        Number of eigenpairs, 1 <= m <= n.
    seed : int
        Seeds the iterative solver's starting vector; results are
        deterministic for a fixed seed. Component c of a disconnected matrix
        is seeded from (seed, c).

    Raises
    ------
    ConvergenceError
        If a Lanczos solve exhausts its budget (_lanczos_budget) or a
        returned pair misses the EIGEN_RESIDUAL_TOL bound; carries the
        achieved residual. A failure while solving one component of
        several names it.
    """
    if not isinstance(a, SymmetricCSR):
        a = symmetric_csr(check_symmetric(a))
    n = a.shape[0]
    m = int(m)
    if not 1 <= m <= n:
        raise ValueError(f"m must be in [1, {n}], got {m}")
    if a.components == 1:
        values, vectors = _solve(a, m, seed, a.norm)
    else:
        values, vectors = _by_component(a, m, seed)

    # Rayleigh quotients tie the reported values to the returned vectors. Residuals go
    # column by column, and A V is freed before the sort, so no n x m block but V and
    # A V is held. Over ||A||_inf a unit vector's residual entries are at most 2.
    av = a @ vectors
    rayleigh = np.einsum("ij,ij->j", vectors, av)
    scale = max(a.norm, 1e-300)
    residuals = scale * np.array([np.linalg.norm((av[:, j] - vectors[:, j] * rayleigh[j]) / scale)
                                  for j in range(m)])
    del av
    bound = EIGEN_RESIDUAL_TOL * a.norm
    worst = float(residuals.max())
    if not worst <= max(bound, 1e-300):  # a NaN residual fails too
        raise ConvergenceError(
            f"eigenpair residual {worst:.3e} exceeds bound {bound:.3e}",
            residual=worst,
        )
    order = np.argsort(rayleigh, kind="stable")
    return rayleigh[order], vectors[:, order]


def _lanczos(n, m):
    """Whether m pairs of an n x n matrix are solved by Lanczos rather than densely."""
    # ARPACK needs m < n; the full decomposition is dense territory anyway.
    return DENSE_EIGEN_CUTOFF < n and m < n


def _solve(a, m, seed, norm):
    """The m smallest eigenpairs of the canonical CSR matrix a, unsorted and unchecked."""
    if _lanczos(a.shape[0], m):
        return _shift_invert_lanczos(a, m, seed, norm)
    if m == a.shape[0]:
        # The evr driver would move moons-demo's full-basis metrics in the low bits.
        return np.linalg.eigh(a.toarray())
    return scipy.linalg.eigh(a.toarray(), subset_by_index=[0, m - 1])


def _by_component(a, m, seed):
    """The m smallest eigenpairs of the SymmetricCSR a, one connected component at a time.

    Component c of n_c points is first asked for
    k_c = min(n_c, m, ceil(m n_c / n) + 2) pairs, its share of the m plus
    two. The pairs of all components are merged by (eigenvalue, component,
    index) and the m smallest kept. A component whose pairs all lie below
    the m-th kept value, and that has pairs left, may hide a smaller one
    than the m-th. It is solved again for the most pairs it can hold among
    the m: m less the other components' pairs below its largest one, which
    is at least one more than before. This repeats until no component is
    short, so the result is the m smallest pairs of the whole matrix, as one
    solve of it would give up to rounding and to the basis chosen inside a
    repeated eigenvalue.

    Components on the dense route are solved here; those on the Lanczos
    route are solved by parallel.fork_map, largest first, on forked workers
    that inherit the blocks and component indices, so only eigenpairs are
    pickled. Each component's solve is the same wherever it runs, so the
    result does not depend on the worker count.
    """
    n, count = a.shape[0], a.components
    # Permuted so that each component's rows are contiguous, ascending within it.
    order = np.argsort(a.labels, kind="stable")
    ends = np.cumsum(np.bincount(a.labels, minlength=count))
    members = np.split(order, ends[:-1])
    blocks = _component_blocks(a, order, ends)
    wanted = [min(rows.size, m, -(-m * rows.size // n) + 2) for rows in members]
    solved = {}

    def solve(c):
        try:
            return _solve(blocks[c], wanted[c], (seed, c), float(a.row_norms[members[c]].max()))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"component {c} of {count} ({members[c].size} points): {exc}",
                residual=exc.residual,
            ) from exc

    pending = range(count)
    while pending:
        lanczos = []
        for c in pending:
            if _lanczos(members[c].size, wanted[c]):
                lanczos.append(c)
            else:
                solved[c] = solve(c)
        lanczos.sort(key=lambda c: -members[c].size)
        solved.update(zip(lanczos, parallel.fork_map(solve, lanczos, parallel.usable_cpus())))

        values = np.concatenate([solved[c][0] for c in range(count)])
        component = np.repeat(np.arange(count), wanted)
        index = np.concatenate([np.arange(k) for k in wanted])
        keep = np.lexsort((index, component, values))[:m]
        cut = values[keep[-1]]
        pending = [c for c in range(count)
                   if wanted[c] < members[c].size and solved[c][0].max() < cut]
        for c in pending:
            below = (values < solved[c][0].max()) & (component != c)
            wanted[c] = min(members[c].size, m - int(below.sum()))

    vectors = np.zeros((n, m))
    for j, (c, i) in enumerate(zip(component[keep], index[keep])):
        vectors[members[c], j] = solved[c][1][:, i]
    return values[keep], vectors


def _component_blocks(a, order, ends):
    """The diagonal blocks of a whose rows, listed in order, end at positions ends.

    A row's entries all lie in its component, so the blocks are runs of one
    row-permuted copy of a, columns renumbered within their component, cut
    as views in one O(nnz) pass.
    """
    rows = a[order]
    starts = np.r_[0, ends[:-1]]
    local = np.empty(a.shape[0], dtype=rows.indices.dtype)
    local[order] = np.arange(a.shape[0]) - np.repeat(starts, ends - starts)
    indices = local[rows.indices]
    return [sp.csr_matrix((rows.data[p:q], indices[p:q], rows.indptr[s:e + 1] - p),
                          shape=(e - s, e - s))
            for s, e, p, q in zip(starts, ends, rows.indptr[starts], rows.indptr[ends])]


def _lanczos_budget(m):
    """The iteration budget of a Lanczos solve for m pairs."""
    return 10 * m + 200


def _shift_invert_lanczos(a, m, seed, norm):
    """Smallest eigenpairs via ARPACK Lanczos on (A + shift I)^-1.

    A plain shift leaves the Krylov space unchanged, so the spectrum is
    mapped through a small-shift inverse instead: eigenvalue lambda of a PSD
    matrix becomes 1 / (lambda + shift), so the smallest ones become the
    largest and best separated, which is what Lanczos converges to fastest
    (Ericsson & Ruhe 1980). The shift also keeps the operator nonsingular
    when A itself is singular (disconnected graphs).

    The shift is 1e-5 ||A||_inf (floored for a zero matrix). It must sit
    well below the smallest nonzero eigenvalue that is wanted: a shift of
    the same size as the wanted eigenvalues compresses their images toward
    1 / shift, flattening the relative gaps that ARPACK's convergence
    depends on. On 5-blob k=10 Gaussian k-NN Laplacians (m = 20), a shift
    of 1e-3 ||A||_inf, about 2e-3, sits at or above lambda_20 (2.4e-3 at
    n = 3e4, 7e-4 at n = 1e5) and takes 106-165 factor solves per
    eigensolve; 1e-5 ||A||_inf takes 69. The small shift costs no accuracy:
    A + shift I has condition number about ||A|| / shift = 1e5, so each
    solve is accurate to about 1e-11 relative, and residuals stay near
    1e-14, far inside the 1e-6 ||A||_inf acceptance bound.

    A is PSD, so A + shift I is SPD, and spd_factor factors it once for
    every Lanczos step.
    """
    budget = _lanczos_budget(m)
    n = a.shape[0]
    shift = max(1e-5 * norm, 1e-8)
    lu = spd_factor(a, shift)
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
    except spla.ArpackError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}") from exc
    return values, vectors
