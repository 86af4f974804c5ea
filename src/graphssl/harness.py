"""Seeded experiment drivers: the moons benchmark, noise sweeps, classification.

A master seed fans out to per-run seeds through numpy's SeedSequence spawn
keys, so adding runs or streams never perturbs the draws of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import parallel
from .graph import GraphConfig, gaussian_knn_graph, normalized_laplacian
from .solver import l1_coefficients
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


def signed_label_vector(assignments, n):
    """Two-class signed target: class 0 maps to +1, class 1 to -1, rest 0."""
    y = np.zeros(n)
    for index, cls in assignments:
        if cls not in (0, 1):
            raise ValueError("signed encoding needs classes 0 and 1")
        y[index] = 1.0 if cls == 0 else -1.0
    return y


@dataclass
class MoonsTrial:
    """Paired two-class run of both methods on one seeded moons instance."""

    l1_accuracy: float
    l2_accuracy: float
    l1_smoothness: object
    l2_smoothness: object
    features: np.ndarray
    truth: np.ndarray
    l1_predictions: np.ndarray
    l2_predictions: np.ndarray
    labeled_indices: list


def laplacian_basis(x, sigma, k, m, seed):
    """Gaussian k-NN graph of x, its normalized Laplacian, and that Laplacian's m-pair basis.

    Returns (lap, basis); seed seeds the eigensolver.
    """
    lap = normalized_laplacian(gaussian_knn_graph(x, GraphConfig(sigma=sigma, k=k)))
    return lap, build_basis(lap, m, seed=seed)


def run_moons_trial(master_seed, run_index, **overrides):
    """One seeded two-moons instance, both methods at the same lam.

    Run r is noise-sweep's run r on the grid [flip_fraction]: the same
    seeds give the same instance, labeled set, flips, graph and m-pair
    basis. The smoothness reports use a full basis of the same Laplacian.
    overrides replace entries of MOONS_DEFAULTS; an unknown key is a
    TypeError. Labels use the signed two-class encoding; predictions are the
    sign of the solution (zero counts as class 0, matching the argmax tie
    rule). One-hot columns would make the L1 fit threshold a coefficient on
    which the classes disagree once per column, like the signed fit at 2 lam,
    and the moons lam is calibrated on the signed target.
    """
    unknown = sorted(set(overrides) - set(MOONS_DEFAULTS))
    if unknown:
        raise TypeError(f"unknown moons parameters: {', '.join(unknown)}")
    cfg = {**MOONS_DEFAULTS, **overrides}
    seed = child_seed(master_seed, run_index)
    x, truth = two_moons(cfg["n"], cfg["noise_sd"], child_seed(seed, _STREAM_DATA))
    assignments = select_labeled(truth, cfg["labels_per_class"], child_seed(seed, _STREAM_LABELED))
    noisy = inject_label_noise(assignments, cfg["flip_fraction"], 2,
                               child_seed(seed, _STREAM_NOISE, 0))
    lap, basis = laplacian_basis(x, cfg["sigma"], cfg["k"], cfg["m"],
                                 child_seed(seed, _STREAM_EIGEN))
    full_basis = build_basis(lap, cfg["n"])

    y = signed_label_vector(noisy, cfg["n"])
    f_l1 = basis.expand(l1_coefficients(basis, y, cfg["lam"]))
    f_l2 = l2_ssl_fit(lap, y[:, None], cfg["lam"]).scores[:, 0]

    labeled = np.zeros(cfg["n"], dtype=bool)
    for index, _ in assignments:
        labeled[index] = True
    mask = ~labeled
    pred_l1 = (f_l1 < 0).astype(np.int64)
    pred_l2 = (f_l2 < 0).astype(np.int64)
    return MoonsTrial(
        l1_accuracy=evaluate(pred_l1, truth, mask),
        l2_accuracy=evaluate(pred_l2, truth, mask),
        l1_smoothness=smoothness_report(full_basis, lap, f_l1, y),
        l2_smoothness=smoothness_report(full_basis, lap, f_l2, y),
        features=x,
        truth=truth,
        l1_predictions=pred_l1,
        l2_predictions=pred_l2,
        labeled_indices=[index for index, _ in assignments],
    )


def run_moons_benchmark(master_seed, runs, **overrides):
    """Repeat run_moons_trial across derived seeds; returns the trial list."""
    if runs < 1:
        raise ValueError("runs must be at least 1")
    return [run_moons_trial(master_seed, i, **overrides) for i in range(runs)]


def multiclass_trial(x, truth, classes, labels_per_class, noise_fractions, seed,
                     sigma, k, lam, m):
    """One multi-class run of both methods at every label-noise fraction.

    The labeled set, the graph and the basis are built once from seed; each
    fraction only injects its own noise, drawn from child_seed(seed,
    _STREAM_NOISE, fraction_index). The one-hot label columns of all
    fractions sit side by side in one block, so each method fits once.
    Every column is solved on its own, so the scores equal per-fraction fits
    bit for bit. Returns one (l1_accuracy, l2_accuracy) pair per fraction,
    measured on the unlabeled points.
    """
    n = x.shape[0]
    assignments = select_labeled(truth, labels_per_class, child_seed(seed, _STREAM_LABELED))
    blocks = []
    for fraction_index, fraction in enumerate(noise_fractions):
        noisy = inject_label_noise(assignments, fraction, classes,
                                   child_seed(seed, _STREAM_NOISE, fraction_index))
        blocks.append(encode_labels(noisy, n, classes))
    lap, basis = laplacian_basis(x, sigma, k, m, child_seed(seed, _STREAM_EIGEN))
    labeled = np.zeros(n, dtype=bool)
    for index, _ in assignments:
        labeled[index] = True
    mask = ~labeled
    y = np.hstack(blocks)
    names = [f"noise fraction {fraction}, class {cls}"
             for fraction in noise_fractions for cls in range(classes)]
    scores_l1 = l1_ssl_fit(basis, y, lam).scores
    scores_l2 = l2_ssl_fit(lap, y, lam, names=names).scores

    def accuracy(scores, fraction_index):
        block = scores[:, fraction_index * classes:(fraction_index + 1) * classes]
        return evaluate(np.argmax(block, axis=1), truth, mask)

    return [(accuracy(scores_l1, i), accuracy(scores_l2, i))
            for i in range(len(noise_fractions))]


def run_noise_sweep(master_seed, fractions, runs, labels_per_class, sigma, k, lam, m, workers=1):
    """Sweep label-noise fractions on seeded moons instances of MOONS_DEFAULTS' size.

    The design is paired: run r draws one moons instance, labeled set, graph
    and basis from child_seed(master_seed, r), and every fraction is measured
    on them, so only the injected noise differs along the curve. Runs derive
    their own seeds, so they are evaluated in up to `workers` forked
    processes, capped by the run count and the usable CPUs; results are
    assembled in grid order regardless of completion order. Returns a list of
    per-fraction dicts.
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("sweep grid must not be empty")
    if runs < 1:
        raise ValueError("runs must be at least 1")

    def run(run_index):
        seed = child_seed(master_seed, run_index)
        x, truth = two_moons(MOONS_DEFAULTS["n"], MOONS_DEFAULTS["noise_sd"],
                             child_seed(seed, _STREAM_DATA))
        return multiclass_trial(
            x, truth, 2, labels_per_class, fractions, seed,
            sigma=sigma, k=k, lam=lam, m=m,
        )

    outcomes = list(parallel.fork_map(run, range(runs), min(workers, parallel.usable_cpus())))

    results = []
    for fi, fraction in enumerate(fractions):
        l1 = [outcomes[ri][fi][0] for ri in range(runs)]
        l2 = [outcomes[ri][fi][1] for ri in range(runs)]
        results.append(
            {
                "fraction": fraction,
                "l1_accuracies": l1,
                "l2_accuracies": l2,
                "l1_mean": float(np.mean(l1)),
                "l2_mean": float(np.mean(l2)),
                "l1_ci95": confidence_halfwidth(l1),
                "l2_ci95": confidence_halfwidth(l2),
            }
        )
    return results


def l1_classify(x, assignments, classes, sigma, k, lam, m, seed=0):
    """Full pipeline: k-NN Gaussian graph, basis, closed-form solve, argmax labels.

    The labels are encoded first, so a bad label fails before the eigensolve.
    """
    y = encode_labels(assignments, x.shape[0], classes)
    _, basis = laplacian_basis(x, sigma, k, m, child_seed(seed, _STREAM_EIGEN))
    return l1_ssl_fit(basis, y, lam)
