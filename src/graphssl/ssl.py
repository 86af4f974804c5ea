"""Multi-class semi-supervised classification, label tooling, and two-moons data.

The multi-class problem decomposes into one independent column problem per
class. The weighted-L1 fit solves every column in closed form at once; the
quadratic baseline runs one conjugate-gradient solve per class. Predictions
take the argmax across class scores with ties resolved toward the lowest
class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError
from .linalg import cg_solve
from .solver import l1_coefficients, l2_system


@dataclass(frozen=True)
class NoiseSpec:
    """Label-noise protocol: labeled count per class, corrupted fraction, seed."""

    labeled_per_class: int
    noise_fraction: float
    seed: int = 0

    def __post_init__(self):
        if self.labeled_per_class < 1:
            raise ValueError("labeled_per_class must be at least 1")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must lie in [0, 1]")


@dataclass
class Solution:
    """Score matrix (samples x classes) and its argmax labels."""

    scores: np.ndarray
    labels: np.ndarray


def encode_labels(assignments, n, c):
    """One-hot label matrix: given (index, class) pairs, zero rows elsewhere."""
    if c < 1:
        raise ValueError("need at least one class")
    y = np.zeros((n, c))
    seen = set()
    for index, cls in assignments:
        index = int(index)
        cls = int(cls)
        if not 0 <= index < n:
            raise ValueError(f"label index {index} out of range [0, {n})")
        if not 0 <= cls < c:
            raise ValueError(f"class {cls} out of range [0, {c})")
        if index in seen:
            raise ValueError(f"duplicate label index {index}")
        seen.add(index)
        y[index, cls] = 1.0
    return y


def validate_label_matrix(y):
    """Check the one-hot-or-zero row structure of a classification label matrix."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError("label matrix must be 2-d")
    ok = np.all((y == 0.0) | (y == 1.0)) and np.all(y.sum(axis=1) <= 1.0)
    if not ok:
        raise ValueError("rows must be one-hot (labeled) or all zero (unlabeled)")
    return y


def fit_scores(basis, y_matrix, lam):
    """Solve the weighted-L1 problem for every column of y_matrix.

    Returns (scores, coefficients): the closed-form coefficients of each
    column and their basis expansions.
    """
    y_matrix = np.asarray(y_matrix, dtype=np.float64)
    if y_matrix.ndim != 2 or y_matrix.shape[0] != basis.n:
        raise ValueError("label matrix rows must match the basis dimension")
    alpha = l1_coefficients(basis, y_matrix, lam)
    return basis.expand(alpha), alpha


def l1_ssl_fit(basis, y_matrix, lam):
    """Sparse spectral semi-supervised fit; argmax labels over class scores."""
    scores, _ = fit_scores(basis, y_matrix, lam)
    return Solution(scores=scores, labels=np.argmax(scores, axis=1))


def l2_ssl_fit(lap, y_matrix, lam, tol=1e-8):
    """Quadratic-regularization baseline fit: one system, one CG solve per class."""
    y_matrix = np.asarray(y_matrix, dtype=np.float64)
    if y_matrix.ndim != 2 or y_matrix.shape[0] != lap.shape[0]:
        raise ValueError("label matrix rows must match the Laplacian dimension")
    n, c = y_matrix.shape
    system = l2_system(lap, lam)
    scores = np.zeros((n, c))
    for j in range(c):
        try:
            scores[:, j], _, _ = cg_solve(system, y_matrix[:, j], tol=tol)
        except ComputationError as exc:
            raise type(exc)(f"class {j}: {exc}") from exc
    return Solution(scores=scores, labels=np.argmax(scores, axis=1))


def inject_label_noise(assignments, spec, c):
    """Replace floor(fraction * count) labels with uniformly random wrong classes.

    Corrupted positions are drawn without replacement; unlisted (unlabeled)
    points are never touched. Deterministic for a fixed spec.seed.
    """
    assignments = [(int(i), int(cls)) for i, cls in assignments]
    if spec.noise_fraction > 0 and c < 2:
        raise ValueError("cannot corrupt labels with fewer than two classes")
    # The 1e-9 nudge keeps floor() faithful when fraction * count is an
    # integer up to float rounding (e.g. 0.3 * 10).
    count = int(np.floor(spec.noise_fraction * len(assignments) + 1e-9))
    if count == 0:
        return assignments
    rng = np.random.default_rng(spec.seed)
    chosen = rng.choice(len(assignments), size=count, replace=False)
    for pos in chosen:
        index, cls = assignments[pos]
        wrong = int(rng.integers(c - 1))
        if wrong >= cls:
            wrong += 1
        assignments[pos] = (index, wrong)
    return assignments


def evaluate(solution, truth, unlabeled_mask):
    """Fraction of masked points whose predicted label matches the truth."""
    labels = solution.labels if isinstance(solution, Solution) else np.asarray(solution)
    truth = np.asarray(truth)
    mask = np.asarray(unlabeled_mask, dtype=bool)
    if labels.shape != truth.shape or mask.shape != truth.shape:
        raise ValueError("labels, truth, and mask must have equal length")
    if not mask.any():
        raise ValueError("evaluation mask is empty")
    return float(np.mean(labels[mask] == truth[mask]))


def two_moons(n, noise_sd=0.1, seed=0):
    """Interleaved half-circle dataset with n/2 points per arc.

    Radius-1 arcs, the second shifted by (1.0, 0.5) and flipped, plus
    isotropic Gaussian perturbation of scale noise_sd. Deterministic per
    seed. Returns (features, labels) with balanced classes 0 and 1.
    """
    n = int(n)
    if n < 2 or n % 2:
        raise ValueError("n must be a positive even number")
    if noise_sd < 0:
        raise ValueError("noise_sd must be nonnegative")
    half = n // 2
    t = np.linspace(0.0, np.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])
    x = np.vstack([upper, lower])
    if noise_sd > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(scale=noise_sd, size=x.shape)
    labels = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])
    return x, labels


def select_labeled(truth, per_class, seed):
    """Draw per_class labeled indices from every class, uniformly without replacement."""
    truth = np.asarray(truth)
    rng = np.random.default_rng(seed)
    assignments = []
    for cls in np.unique(truth):
        idx = np.flatnonzero(truth == cls)
        if idx.size < per_class:
            raise ValueError(f"class {cls} has only {idx.size} points, need {per_class}")
        pick = np.sort(rng.choice(idx, size=per_class, replace=False))
        assignments.extend((int(i), int(cls)) for i in pick)
    return assignments
