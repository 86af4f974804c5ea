"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp

import oracle_graph
from oracle_grid import grid_minimum, random_instance

from graphssl.bow import RefineConfig, apply_error_sparsity, refine
from graphssl.datasets import gaussian_blobs, two_block_corpus
from graphssl.graph import normalized_laplacian
from graphssl.harness import MOONS_DEFAULTS, l1_classify, run_moons_demo
from graphssl.solver import kkt_residual, l1_coefficients, objective
from graphssl.spectral import apply_b, build_basis, l2_smoothness
from graphssl.ssl import l2_ssl_fit, select_labeled


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return wrapper

    return decorate


def connected_test_graphs(count=20, n_max=64, seed=2024):
    """Exactly `count` random connected graphs with full spectral bases."""
    rng = np.random.default_rng(seed)
    graphs = []
    attempt = 0
    while len(graphs) < count:
        n = int(rng.integers(8, n_max + 1))
        x = rng.standard_normal((n, 2))
        w = oracle_graph.gaussian_kernel(x, float(rng.uniform(0.5, 1.5)))
        if attempt % 2:
            w = oracle_graph.knn(w, max(3, n // 4))
        attempt += 1
        lap = normalized_laplacian(w)
        basis = build_basis(lap, n)
        if np.sum(basis.eigenvalues < 1e-10) != 1:
            continue  # resample disconnected instances
        graphs.append((lap, basis))
    return graphs


GRAPHS = connected_test_graphs()


@criterion("smoothness-measure properties (three-part suite)")
def test_smoothness_measure_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    for lap, basis in GRAPHS:
        n = basis.n
        roots = basis.sqrt_eigenvalues

        # (ii) each eigenvector's L1 smoothness equals its root eigenvalue
        bv = roots[:, None] * (basis.vectors.T @ basis.vectors)
        got = np.sum(np.abs(bv), axis=0)
        assert np.max(np.abs(got - roots)) <= 1e-8

        # (iii) basis expansions: weighted absolute coefficient sum
        alphas = rng.standard_normal((n, 500))
        f_block = basis.vectors @ alphas
        measured = np.sum(np.abs(roots[:, None] * (basis.vectors.T @ f_block)), axis=0)
        expected = roots @ np.abs(alphas)
        assert np.max(np.abs(measured - expected)) <= 1e-8

        # (i) under a unit L1-smoothness level the quadratic measure is below it
        f_block = rng.standard_normal((n, 500))
        levels = np.sum(np.abs(roots[:, None] * (basis.vectors.T @ f_block)), axis=0)
        scales = np.where(levels > 0, rng.uniform(0.05, 1.0, 500) / np.maximum(levels, 1e-300), 1.0)
        f_block = f_block * scales
        lap_dense = lap.toarray()
        quad = np.einsum("ij,ij->j", f_block, lap_dense @ f_block)
        l1_levels = np.sum(np.abs(roots[:, None] * (basis.vectors.T @ f_block)), axis=0)
        assert np.all(l1_levels <= 1.0 + 1e-12)
        assert np.all(quad <= l1_levels + 1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"suite took {elapsed:.1f}s"


@criterion("symmetric-factor decomposition identities")
def test_decomposition_identities():
    rng = np.random.default_rng(1)
    for lap, basis in GRAPHS:
        factor = basis.sqrt_eigenvalues[:, None] * basis.vectors.T
        assert np.max(np.abs(factor.T @ factor - lap.toarray())) <= 1e-6
        for _ in range(20):
            f = rng.standard_normal(basis.n)
            bf = apply_b(basis, f)
            assert abs(float(bf @ bf) - l2_smoothness(lap, f)) <= 1e-8


@criterion("weighted-L1 solver optimality vs grid oracle")
def test_solver_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    for _ in range(50):
        basis, y, lam = random_instance(rng)
        best_val, _ = grid_minimum(basis, y, lam, check_points=5, rng=rng)
        alpha = l1_coefficients(basis, y, lam)
        assert objective(basis, y, lam, alpha) <= best_val + 1e-4
        assert kkt_residual(basis, y, lam, alpha) <= 1e-6
        zero_alpha = l1_coefficients(basis, y, 0.0)
        assert np.max(np.abs(zero_alpha - basis.vectors.T @ y)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"solver suite took {elapsed:.1f}s"


@criterion("quadratic baseline exactness")
def test_quadratic_baseline_exactness():
    rng = np.random.default_rng(3)
    for lap, _ in GRAPHS[:10]:
        y = rng.standard_normal(lap.shape[0])
        lam = float(rng.uniform(0.0, 10.0))
        f = l2_ssl_fit(lap, y[:, None], lam).scores[:, 0]
        assert np.linalg.norm(f + lam * (lap @ f) - y) <= 1e-8 * np.linalg.norm(y)

    two_node = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    f = l2_ssl_fit(two_node, np.array([[1.0], [0.0]]), 2.0).scores[:, 0]
    assert np.max(np.abs(f - np.array([0.6, 0.4]))) <= 1e-10


def moons_demo_runs(fraction):
    """moons-demo's 25 runs at master seed 0 with its default parameters."""
    names = ("labels_per_class", "sigma", "k", "lam", "m")
    return run_moons_demo(0, fraction, 25, **{name: MOONS_DEFAULTS[name] for name in names})


@criterion("two-moons noise robustness (25 seeded runs)")
def test_two_moons_noise_robustness():
    start = time.perf_counter()
    runs = moons_demo_runs(0.2)
    l1_median, l2_median = np.median([trial.accuracies()[0] for trial, _ in runs], axis=0)
    smoother = sum(l1.l1_smoothness < l2.l1_smoothness for _, (l1, l2) in runs)
    assert l1_median >= 0.95, f"sparse-method median {l1_median:.3f}"
    assert l1_median >= l2_median, f"{l1_median:.3f} vs {l2_median:.3f}"
    assert smoother >= 20, f"smoother in only {smoother}/25 runs"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"benchmark took {elapsed:.1f}s"


@criterion("clean-label sanity (both methods)")
def test_clean_label_sanity():
    runs = moons_demo_runs(0.0)
    l1_median, l2_median = np.median([trial.accuracies()[0] for trial, _ in runs], axis=0)
    assert l1_median >= 0.98, f"sparse-method median {l1_median:.3f}"
    assert l2_median >= 0.98, f"quadratic-method median {l2_median:.3f}"


@criterion("count-matrix refinement correctness")
def test_refinement_correctness():
    # Entrywise restore step against the scalar grid oracle.
    rng = np.random.default_rng(4)
    grid = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
    for _ in range(1000):
        y_star = float(rng.uniform(-2, 2))
        y = float(rng.uniform(-2, 2))
        gamma = float(rng.uniform(0, 1))
        oracle = grid[np.argmin(0.5 * (grid - y_star) ** 2 + gamma * np.abs(grid - y))]
        got = apply_error_sparsity(np.array([[y_star]]), np.array([[y]]), gamma)[0, 0]
        assert abs(got - oracle) <= 1e-3

    # Unregularized refinement is the exact identity.
    clean, corrupted, mask, other = two_block_corpus(seed=5)
    identity, _ = refine(corrupted, other, RefineConfig(lam=0.0, gamma=0.0, k=29, m=4))
    assert np.array_equal(identity, corrupted)

    # Constructed corpus: corruption shrinks toward the block consensus while
    # clean entries are restored exactly. Thresholds were calibrated on this
    # generator; gamma matches the published textual preset value.
    cfg = RefineConfig(lam=0.01, gamma=0.075, k=29, m=4)
    refined, _ = refine(corrupted, other, cfg)
    before = np.abs(corrupted - clean)[mask]
    after = np.abs(refined - clean)[mask]
    moved = float(np.mean(after < before - 1e-12))
    unchanged = float(np.mean(refined[~mask] == corrupted[~mask]))
    assert moved >= 0.80, f"only {moved:.1%} of corrupted entries improved"
    assert unchanged >= 0.95, f"only {unchanged:.1%} of clean entries preserved"


@criterion("pipeline scalability (sub-quadratic to n=10000)")
def test_pipeline_scalability():
    sizes = [1000, 2000, 5000, 10000]
    times = []
    for n in sizes:
        x, truth = gaussian_blobs(n, classes=5, spread=0.15, seed=11)
        assignments = select_labeled(truth, 5, seed=12)
        start = time.perf_counter()
        l1_classify(x, assignments, 5, sigma=1.0, k=4, lam=0.01, m=20, seed=0)
        times.append(time.perf_counter() - start)
    exponent = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
    print(f"    sizes={sizes} times={[round(t, 3) for t in times]} exponent={exponent:.2f}")
    assert times[-1] < 60.0, f"n=10000 took {times[-1]:.1f}s"
    assert exponent < 1.6, f"fit exponent {exponent:.2f}"


@criterion("byte-identical reruns for every command")
def test_command_determinism(tmp_path):
    corpus_dir = tmp_path / "inputs"
    corpus_dir.mkdir()
    x, truth = gaussian_blobs(40, classes=2, spread=0.1, seed=21)
    features = corpus_dir / "features.csv"
    features.write_text("".join(f"{a},{b}\n" for a, b in x))
    labels = corpus_dir / "labels.csv"
    labels.write_text("".join(
        f"{i},{c}\n" for i, c in select_labeled(truth, 4, seed=22)
    ))
    truth_file = corpus_dir / "truth.txt"
    truth_file.write_text("".join(f"{t}\n" for t in truth))

    from graphssl import fileio

    _, corrupted, _, other = two_block_corpus(seed=23)
    visual = corpus_dir / "visual.txt"
    textual = corpus_dir / "textual.txt"
    visual.write_bytes(b"".join(fileio.bow_chunks(corrupted)))
    textual.write_bytes(b"".join(fileio.bow_chunks(other)))

    commands = {
        "moons-demo": ["moons-demo", "--runs", "2", "--seed", "13"],
        "classify": ["classify", "--input", str(features), "--labels", str(labels),
                     "--truth", str(truth_file), "--seed", "13",
                     "--sigma", "0.5", "--k", "5", "--m", "8"],
        "noise-sweep": ["noise-sweep", "--noise-fraction", "0,0.2", "--runs", "2",
                        "--seed", "13"],
        "refine-bow": ["refine-bow", "--input", str(visual), str(textual),
                       "--seed", "13", "--k", "29", "--m", "4"],
        "eigen-dump": ["eigen-dump", "--input", str(features), "--seed", "13",
                       "--k", "5", "--m", "4", "--sigma", "0.5"],
    }
    for name, args in commands.items():
        outputs = []
        for attempt in range(2):
            out_dir = tmp_path / f"{name}-{attempt}"
            result = subprocess.run(
                [sys.executable, "-m", "graphssl", *args, "--output", str(out_dir)],
                capture_output=True,
                text=True,
            )
            assert result.returncode == 0, f"{name}: {result.stderr}"
            snapshot = {
                p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            }
            assert snapshot, f"{name} wrote no output"
            outputs.append((result.stdout, snapshot))
        assert outputs[0] == outputs[1], f"{name} output differs between reruns"
