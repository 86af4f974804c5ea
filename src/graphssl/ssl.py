"""Multi-class semi-supervised classification, label tooling, and two-moons data.

The multi-class problem decomposes into one independent column problem per
class. The weighted-L1 fit solves every column in closed form at once; the
quadratic baseline factors its sparse system once and solves each class
with that factor. Predictions take the argmax across class scores with
ties resolved toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver
from .errors import ConvergenceError
from .linalg import spd_factor

# Relative residual ||(I + lam L) f - y|| / ||y|| that every quadratic
# baseline column must meet.
L2_RESIDUAL_TOL = 1e-8


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


def _label_matrix(y_matrix, n):
    """The label matrix as both fits take it: finite float64, n rows, a column per class."""
    y_matrix = np.asarray(y_matrix, dtype=np.float64)
    if y_matrix.ndim != 2 or y_matrix.shape[0] != n:
        raise ValueError(f"label matrix rows must match the {n} points; got {y_matrix.shape}")
    if not np.all(np.isfinite(y_matrix)):
        raise ValueError("label matrix must be finite")
    return y_matrix


def l1_ssl_fit(basis, y_matrix, lam):
    """Sparse spectral semi-supervised fit by solver.l1_fit; argmax labels over class scores."""
    alpha, _ = solver.l1_fit(basis, _label_matrix(y_matrix, basis.n), lam)
    scores = basis.expand(alpha)
    return Solution(scores=scores, labels=np.argmax(scores, axis=1))


def l2_ssl_fit(lap, y_matrix, lam, names=None):
    """Quadratic-regularization baseline: minimize 0.5 ||f - y||^2 + (lam / 2) f' L f.

    Each column's minimizer solves (I + lam L) f = y. The system is factored
    once and every column is solved with that factor on its own, so a column
    does not depend on the others. Each solution must meet
    ||(I + lam L) f - y|| <= L2_RESIDUAL_TOL ||y||, recomputed explicitly; a
    miss raises ConvergenceError naming its column: names[j] when given,
    else "class j".
    """
    y_matrix = _label_matrix(y_matrix, lap.shape[0])
    n, c = y_matrix.shape
    if names is None:
        names = [f"class {j}" for j in range(c)]
    elif len(names) != c:
        raise ValueError(f"{len(names)} column names for {c} label columns")
    system = solver.l2_system(lap, lam)
    lu = spd_factor(system)
    scores = np.zeros((n, c))
    for j in range(c):
        y = y_matrix[:, j]
        f = lu.solve(y)
        norm_y = float(np.linalg.norm(y))
        residual = float(np.linalg.norm(system @ f - y))
        if not residual <= L2_RESIDUAL_TOL * norm_y:  # a NaN residual fails too
            relative = residual / norm_y
            raise ConvergenceError(
                f"{names[j]}: relative residual {relative:.3e} exceeds {L2_RESIDUAL_TOL:g}",
                residual=relative,
            )
        scores[:, j] = f
    return Solution(scores=scores, labels=np.argmax(scores, axis=1))


def inject_label_noise(assignments, fraction, classes, seed):
    """In each class pool, replace floor(fraction * pool size) labels with random wrong classes.

    fraction lies in [0, 1]. The pools of classes 0 .. classes-1 are
    corrupted in class order from one generator: positions without
    replacement, then a uniformly random wrong class for each. Unlisted
    (unlabeled) points are never touched. Deterministic for a fixed seed.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("noise fraction must lie in [0, 1]")
    assignments = [(int(i), int(cls)) for i, cls in assignments]
    if fraction > 0 and classes < 2:
        raise ValueError("cannot corrupt labels with fewer than two classes")
    original = [cls for _, cls in assignments]  # pools hold the labels before any flip
    rng = None  # made on the first flip, so a draw that flips nothing costs no generator
    for cls in range(classes):
        pool = [pos for pos, c in enumerate(original) if c == cls]
        # The 1e-9 nudge keeps floor() faithful when fraction * size is an
        # integer up to float rounding (0.29 * 100 is 28.999999999999996).
        count = int(np.floor(fraction * len(pool) + 1e-9))
        if count == 0:
            continue
        if rng is None:
            rng = np.random.default_rng(seed)
        for j in rng.choice(len(pool), size=count, replace=False):
            wrong = int(rng.integers(classes - 1))
            if wrong >= cls:
                wrong += 1
            assignments[pool[j]] = (assignments[pool[j]][0], wrong)
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
