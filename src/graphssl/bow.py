"""Sparse co-refinement of paired bag-of-words matrices.

Each modality is refined in two steps: a smoothing step that solves the
weighted-L1 problem in closed form for every column on a graph built from
the counterpart modality's linear kernel, followed by an elementwise
soft-threshold update that restores entries whose change is too small to be
trusted (fitting-error sparsity). The two modalities are refined independently from the original
counterpart matrices, so the order does not matter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fileio, parallel, solver
from .errors import IsolatedVertexError
from .graph import linear_knn_graph, normalized_laplacian
from .spectral import SpectralBasis, build_basis


@dataclass(frozen=True)
class RefineConfig:
    """Smoothing weight lam, restore threshold gamma, graph k, basis size m."""

    lam: float
    gamma: float
    k: int
    m: int

    def __post_init__(self):
        if self.lam < 0 or self.gamma < 0:
            raise ValueError("lam and gamma must be nonnegative")
        if self.k < 1 or self.m < 1:
            raise ValueError("k and m must be at least 1")


# Cross-validated presets for visual-refined-by-textual and the reverse.
TABLE2_VISUAL = RefineConfig(lam=0.010, gamma=0.005, k=15, m=30)
TABLE2_TEXTUAL = RefineConfig(lam=0.005, gamma=0.075, k=15, m=35)


def _as_bow(matrix, name):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"{name} must be a 2-d count matrix")
    if not np.all(np.isfinite(matrix)):
        raise ValueError(f"{name} must be finite")
    if np.any(matrix < 0):
        raise ValueError(f"{name} must be nonnegative")
    return matrix


def apply_error_sparsity(y_star, y, gamma):
    """Elementwise soft(y_star - y, gamma) + y.

    Entries whose smoothed value moved by at most gamma are restored exactly
    to their original value; larger moves are kept, shrunk by gamma. This is
    the exact minimizer of the separable problem
    0.5 (f - y_star)^2 + gamma |f - y| per entry.
    """
    y_star = np.asarray(y_star, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y_star.shape != y.shape:
        raise ValueError("smoothed and original matrices must have equal shape")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0.0:
        # soft(x, 0) = x, so the update is exactly the smoothed matrix; skip
        # the arithmetic to keep the identity bit-exact.
        return y_star.copy()
    return solver.soft_threshold(y_star - y, gamma) + y


@dataclass(frozen=True)
class Refinement:
    """A refined matrix as the parts its rows are rebuilt from; basis is None when lam is 0.

    rows(start, stop) equals those rows of refine's matrix bit for bit, so
    the matrix is never held whole. total_objective and max_kkt_residual are
    the smoothing fit's, 0.0 when lam is 0. co_refine counts changed_entries,
    the entries that differ from y, and nnz, those that a triplet file keeps.
    """

    y: np.ndarray
    basis: SpectralBasis | None
    alpha: np.ndarray | None
    gamma: float
    total_objective: float = 0.0
    max_kkt_residual: float = 0.0
    changed_entries: int = 0
    nnz: int = 0

    @property
    def shape(self):
        return self.y.shape

    def rows(self, start, stop):
        y = self.y[start:stop]
        smoothed = y if self.basis is None else self.basis.expand_rows(self.alpha, start, stop)
        return apply_error_sparsity(smoothed, y, self.gamma)

    def walk(self):
        """(changed entries, kept entries), over the rows in fileio.FORMAT_BLOCK_ROWS blocks."""
        changed = kept = 0
        for start in range(0, self.shape[0], fileio.FORMAT_BLOCK_ROWS):
            stop = start + fileio.FORMAT_BLOCK_ROWS
            block = self.rows(start, stop)
            changed += int(np.count_nonzero(block != self.y[start:stop]))
            kept += int(np.count_nonzero(fileio.kept_mask(block)))
        return changed, kept


def _refinement(y, other, cfg, seed):
    """The Refinement of y on the graph of other, its counts not yet walked."""
    y = _as_bow(y, "bow matrix")
    other = _as_bow(other, "counterpart matrix")
    n = y.shape[0]
    if other.shape[0] != n:
        raise ValueError(f"row counts differ: {n} vs {other.shape[0]}")
    if cfg.m > n:
        raise ValueError(f"basis size m={cfg.m} exceeds document count {n}")
    empty = np.flatnonzero(~other.any(axis=1))
    if empty.size:
        raise IsolatedVertexError(int(empty[0]))
    if cfg.lam == 0.0:
        # The smoothing objective reduces to 0.5 ||F - Y||^2, whose exact
        # minimizer is Y itself; skip the graph machinery so the identity is
        # bit-exact.
        return Refinement(y, None, None, cfg.gamma)
    graph = linear_knn_graph(other, cfg.k)
    basis = build_basis(normalized_laplacian(graph), cfg.m, seed=seed)
    alpha, kkt = solver.l1_fit(basis, y, cfg.lam)
    total = solver.objective(basis, y, cfg.lam, alpha)
    return Refinement(y, basis, alpha, cfg.gamma, total, kkt)


def refine(y, other, cfg, seed=0):
    """Refine count matrix y on the graph of its counterpart modality.

    The graph is the k-NN linear-kernel graph of `other`; a document
    whose counterpart row is all zero has no edges and raises
    IsolatedVertexError naming it. Returns (refined, Refinement): the whole
    refined matrix, and the parts it was rebuilt from.
    """
    parts = _refinement(y, other, cfg, seed)
    return parts.rows(0, parts.shape[0]), parts


def co_refine(y_visual, y_textual, cfg_visual, cfg_textual, seed=0):
    """Refine both modalities against each other's original matrix, as two Refinements.

    Both read the unmodified counterpart, so swapping the arguments swaps
    the outputs. They run on parallel.fork_map's forked workers, one per
    usable CPU, which inherit the matrices, walk the refined rows once (a
    NaN or infinite entry raises ValueError) and pickle back all but y. A
    failure of the visual refinement is raised before one of the textual one.
    """
    halves = ((y_visual, y_textual, cfg_visual), (y_textual, y_visual, cfg_textual))

    def half(i):
        refinement = _refinement(*halves[i], seed)
        changed, nnz = refinement.walk()
        return replace(refinement, y=None, changed_entries=changed, nnz=nnz)

    parts = parallel.fork_map(half, (0, 1), parallel.usable_cpus())
    return tuple(replace(part, y=np.asarray(y, dtype=np.float64))
                 for part, (y, _, _) in zip(parts, halves))
