"""Seeded experiment drivers: the moons runs of moons-demo and noise-sweep, classification.

A master seed fans out to per-run seeds through numpy's SeedSequence spawn
keys, so adding runs or streams never perturbs the draws of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .graph import gaussian_knn_graph, normalized_laplacian
from .spectral import build_basis, smoothness_report
from .ssl import (
    encode_labels,
    evaluate,
    inject_label_noise,
    l1_ssl_fit,
    l2_ssl_fit,
    select_labeled,
    two_moons,
)

# Stream tags for seed fan-out; values are arbitrary but frozen.
_STREAM_DATA = 1
_STREAM_LABELED = 2
_STREAM_NOISE = 3
_STREAM_EIGEN = 4

# Two-moons benchmark defaults. The bandwidth matches the generator's noise
# scale and, together with k and lam, was calibrated on this generator so the
# noise-robustness comparison is stable across seed batches; the basis size
# matches the digit-dataset default.
MOONS_DEFAULTS = {
    "n": 200,
    "noise_sd": 0.1,
    "labels_per_class": 5,
    "flip_fraction": 0.2,
    "sigma": 0.1,
    "k": 10,
    "lam": 5.0,
    "m": 20,
}


def child_seed(master, *key):
    """Derive a stable child seed from a master seed and an integer key path."""
    seq = np.random.SeedSequence(int(master), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1)[0])


def confidence_halfwidth(values):
    """Half-width of the normal 95% confidence interval: 1.96 * sd / sqrt(n)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        return 0.0
    return float(1.96 * np.std(values, ddof=1) / np.sqrt(values.size))


def laplacian_basis(x, sigma, k, m, seed):
    """Gaussian k-NN graph of x, its normalized Laplacian, and that Laplacian's m-pair basis.

    Returns (lap, basis). The eigensolver is seeded with child_seed(seed,
    _STREAM_EIGEN), so every command given one seed solves for one basis.
    """
    lap = normalized_laplacian(gaussian_knn_graph(x, sigma, k))
    return lap, build_basis(lap, m, seed=child_seed(seed, _STREAM_EIGEN))


@dataclass
class Trial:
    """One seeded moons run of both methods at every label-noise fraction.

    labeled masks the labeled points. y holds two one-vs-rest columns per
    fraction, fraction by fraction: +1 in a labeled point's class column,
    -1 in its other column, 0 on unlabeled rows. scores is the (L1, L2) pair
    of score blocks, one column per column of y.
    """

    x: np.ndarray
    truth: np.ndarray
    labeled: np.ndarray
    lap: object
    basis: object
    y: np.ndarray
    scores: tuple

    def predictions(self, fraction_index):
        """(L1, L2) argmax labels at one fraction; a tie goes to class 0."""
        block = slice(2 * fraction_index, 2 * fraction_index + 2)
        return tuple(np.argmax(scores[:, block], axis=1) for scores in self.scores)

    def accuracies(self):
        """(L1, L2) accuracy on the unlabeled points, one pair per fraction."""
        return [tuple(evaluate(p, self.truth, ~self.labeled) for p in self.predictions(i))
                for i in range(self.y.shape[1] // 2)]

    def smoothness(self):
        """(L1, L2) smoothness reports of the first column, on a full basis of the Laplacian."""
        full = self.basis if self.basis.full else build_basis(self.lap, self.basis.n)
        return tuple(smoothness_report(full, self.lap, scores[:, 0], self.y[:, 0])
                     for scores in self.scores)


def multiclass_trial(master_seed, run_index, noise_fractions, labels_per_class,
                     sigma, k, lam, m):
    """Run run_index of both moons commands: both methods at every label-noise fraction.

    The run draws its moons instance (of MOONS_DEFAULTS' size), labeled set,
    graph and basis once from seed = child_seed(master_seed, run_index); each
    fraction only injects its own noise, drawn from child_seed(seed,
    _STREAM_NOISE, fraction_index). The label columns of all fractions sit
    side by side in one block, so each method fits once. Every column is
    solved on its own, so the scores equal per-fraction fits bit for bit,
    and with two classes the second column of a fraction is the negation of
    its first: the argmax is the sign of the first column's fit.
    """
    seed = child_seed(master_seed, run_index)
    x, truth = two_moons(MOONS_DEFAULTS["n"], MOONS_DEFAULTS["noise_sd"],
                         child_seed(seed, _STREAM_DATA))
    n = x.shape[0]
    assignments = select_labeled(truth, labels_per_class, child_seed(seed, _STREAM_LABELED))
    labeled = np.zeros(n, dtype=bool)
    labeled[[index for index, _ in assignments]] = True
    blocks = [encode_labels(inject_label_noise(assignments, fraction, 2,
                                               child_seed(seed, _STREAM_NOISE, i)), n, 2)
              for i, fraction in enumerate(noise_fractions)]
    y = 2.0 * np.hstack(blocks) - labeled[:, None]
    lap, basis = laplacian_basis(x, sigma, k, m, seed)
    names = [f"noise fraction {fraction}, class {cls}"
             for fraction in noise_fractions for cls in range(2)]
    scores = (l1_ssl_fit(basis, y, lam).scores, l2_ssl_fit(lap, y, lam, names=names).scores)
    return Trial(x, truth, labeled, lap, basis, y, scores)


def _map_runs(run, runs, workers=None):
    """[run(0), ..., run(runs - 1)], from up to `workers` forked processes.

    The process count, capped by the run count, defaults to the usable
    CPUs. Runs derive their own seeds, so the results do not depend on it.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    return list(parallel.fork_map(run, range(runs), workers))


def run_moons_demo(master_seed, fraction, runs, labels_per_class, sigma, k, lam, m):
    """moons-demo: noise-sweep's runs on the grid [fraction], on every usable CPU.

    Returns one (trial, smoothness reports) pair per run, in run order. The
    reports are computed in the worker, so each trial leaves it without its
    Laplacian and basis, which the caller does not read.
    """
    def run(run_index):
        trial = multiclass_trial(master_seed, run_index, [fraction], labels_per_class,
                                 sigma, k, lam, m)
        return replace(trial, lap=None, basis=None), trial.smoothness()

    return _map_runs(run, runs)


def run_noise_sweep(master_seed, fractions, runs, labels_per_class, sigma, k, lam, m, workers=1):
    """Sweep label-noise fractions on seeded moons instances.

    The design is paired: run r is multiclass_trial(master_seed, r, ...), so
    every fraction is measured on one instance, labeled set, graph and basis,
    and only the injected noise differs along the curve. Runs are evaluated
    in up to min(workers, usable CPUs) forked processes. Returns each run's
    (L1, L2) accuracy pairs, one per fraction, in run order.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("sweep grid must not be empty")

    def run(run_index):
        return multiclass_trial(master_seed, run_index, fractions, labels_per_class,
                                sigma, k, lam, m).accuracies()

    return _map_runs(run, runs, min(workers, parallel.usable_cpus()))


def l1_classify(x, assignments, classes, sigma, k, lam, m, seed=0):
    """Full pipeline: k-NN Gaussian graph, basis, closed-form solve, argmax labels.

    The labels are encoded first, so a bad label fails before the eigensolve.
    """
    y = encode_labels(assignments, x.shape[0], classes)
    _, basis = laplacian_basis(x, sigma, k, m, seed)
    return l1_ssl_fit(basis, y, lam)
