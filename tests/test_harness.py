import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from graphssl import graph, harness, parallel, ssl
from graphssl.datasets import gaussian_blobs, two_block_corpus
from graphssl.errors import ConvergenceError
from graphssl.harness import (
    child_seed,
    confidence_halfwidth,
    l1_classify,
    multiclass_trial,
    run_moons_demo,
    run_noise_sweep,
)
from test_parallel import spy_forks


class TestSeedFanOut:
    def test_stable_under_added_runs(self):
        # Seeds are keyed by index, so extending a sweep never reshuffles
        # earlier cells.
        first = [child_seed(7, 0, i) for i in range(5)]
        longer = [child_seed(7, 0, i) for i in range(50)]
        assert longer[:5] == first

    def test_distinct_streams(self):
        seeds = {child_seed(7, tag, 3) for tag in range(10)}
        assert len(seeds) == 10

    def test_deterministic(self):
        assert child_seed(123, 4, 5) == child_seed(123, 4, 5)


class TestPerClassFlips:
    # The per-class draw that multiclass_trial makes on its labeled set.
    def test_exactly_one_flip_per_class(self):
        assignments = [(i, 0) for i in range(5)] + [(i + 10, 1) for i in range(5)]
        for seed in range(10):
            flipped = harness.inject_label_noise(assignments, 0.2, 2, seed)
            changed_by_class = {0: 0, 1: 0}
            for (_, old), (_, new) in zip(assignments, flipped):
                if old != new:
                    changed_by_class[old] += 1
            assert changed_by_class == {0: 1, 1: 1}

    def test_zero_fraction_is_identity(self):
        assignments = [(0, 0), (1, 1)]
        assert harness.inject_label_noise(assignments, 0.0, 2, 0) == assignments


GRAPH = {"sigma": 0.1, "k": 10, "lam": 5.0, "m": 20}


class TestMoonsTrial:
    def test_deterministic(self):
        a = multiclass_trial(3, 1, [0.2], 5, **GRAPH)
        b = multiclass_trial(3, 1, [0.2], 5, **GRAPH)
        assert a.accuracies() == b.accuracies()
        assert np.array_equal(a.x, b.x)
        assert all(np.array_equal(p, q) for p, q in zip(a.predictions(0), b.predictions(0)))

    def test_runs_differ(self):
        a = multiclass_trial(3, 0, [0.2], 5, **GRAPH)
        b = multiclass_trial(3, 1, [0.2], 5, **GRAPH)
        assert not np.array_equal(a.x, b.x)

    def test_runs_are_the_sweeps_runs(self, monkeypatch):
        # moons-demo run r and noise-sweep run r on the grid [f] flip the same
        # labels and fit on the same graph and basis. Both pin BLAS to one
        # thread through fork_map, whose runs stay in this process here.
        seen = {}
        draw, build = harness.inject_label_noise, harness.laplacian_basis

        def noise(*args):
            noisy = draw(*args)
            seen[command].append(noisy)
            return noisy

        def basis(*args):
            lap, spectral = build(*args)
            seen[command].append((lap.toarray(), spectral.vectors, spectral.eigenvalues))
            return lap, spectral

        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(harness, "inject_label_noise", noise)
        monkeypatch.setattr(harness, "laplacian_basis", basis)
        runs = {
            "moons-demo": lambda: run_moons_demo(5, 0.2, 3, 5, **GRAPH),
            "noise-sweep": lambda: run_noise_sweep(5, [0.2], 3, 5, **GRAPH),
        }
        for command, run in runs.items():
            seen[command] = []
            run()
        assert len(seen["moons-demo"]) == len(seen["noise-sweep"]) == 6
        for ours, theirs in zip(seen["moons-demo"], seen["noise-sweep"]):
            if isinstance(ours, list):
                assert ours == theirs
            else:
                assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    @pytest.mark.skipif(not parallel._openblas_controls(),
                        reason="no OpenBLAS library is mapped")
    def test_smoothness_does_not_depend_on_the_blas_pin(self):
        # The runs go through fork_map, which pins BLAS to one thread, so a
        # bare call at two threads equals one after the pin; eigenvectors
        # differ in their last bits between thread counts.
        def floats():
            return [(report.fitting_error, report.l2_smoothness, report.l1_smoothness)
                    for _, reports in run_moons_demo(0, 0.2, 3, 5, **GRAPH)
                    for report in reports]

        controls = parallel._openblas_controls()
        before = [get() for get, _ in controls]
        try:
            parallel.pin_one_blas_thread()
            pinned = floats()
            for _, set_ in controls:
                set_(2)
            bare = floats()
        finally:
            for (_, set_), count in zip(controls, before):
                set_(count)
        assert bare == pinned

    def test_full_basis_is_not_solved_again(self, monkeypatch):
        # At m = n the run's basis is already full: one eigensolve per run.
        calls = _counting(monkeypatch, harness, "build_basis")
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        run_moons_demo(0, 0.2, 2, 5, **{**GRAPH, "m": 200})
        assert len(calls) == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_trials_leave_the_worker_without_laplacian_or_basis(self, monkeypatch, cpus):
        # moons-demo reads each trial's points, labels and scores only; its
        # smoothness reports are computed where the trial ran.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        runs = run_moons_demo(0, 0.2, 2, 5, **GRAPH)
        assert [(trial.lap, trial.basis) for trial, _ in runs] == [(None, None)] * 2


class TestNoiseSweep:
    def test_worker_count_is_immaterial(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        serial = run_noise_sweep(2, [0.0, 0.3], 3, 5, sigma=0.1, k=10, lam=5.0, m=20)
        forked = run_noise_sweep(2, [0.0, 0.3], 3, 5, sigma=0.1, k=10, lam=5.0, m=20,
                                 workers=3)
        assert serial == forked

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            run_noise_sweep(0, [], 2, 5, sigma=0.1, k=10, lam=5.0, m=20)

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (8, 3)])
    def test_process_count_is_capped_by_runs_and_usable_cpus(self, monkeypatch, cpus,
                                                             expected):
        # Each worker ends before it claims a run, so no run starts.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        forks = spy_forks(monkeypatch)
        with pytest.raises(ChildProcessError, match="ended without a result"):
            run_noise_sweep(0, [0.0], 3, 5, sigma=0.1, k=10, lam=5.0, m=20, workers=10**6)
        assert len(forks) == expected


def _counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestPairedSweep:
    """Every fraction of one run shares its instance, labeled set, graph and basis."""

    def test_instance_is_built_once_per_run(self, monkeypatch):
        spies = {name: _counting(monkeypatch, harness, name)
                 for name in ("gaussian_knn_graph", "build_basis", "select_labeled",
                              "l1_ssl_fit", "l2_ssl_fit")}
        run_noise_sweep(1, [0.0, 0.1, 0.2, 0.3, 0.4], 3, 5, **GRAPH)
        assert {name: len(calls) for name, calls in spies.items()} == dict.fromkeys(spies, 3)

    def test_first_fraction_does_not_depend_on_the_grid(self):
        longer = run_noise_sweep(6, [0.0, 0.3], 4, 5, **GRAPH)
        alone = run_noise_sweep(6, [0.0], 4, 5, **GRAPH)
        assert [run[0] for run in longer] == [run[0] for run in alone]

    def test_stacked_fit_equals_per_fraction_fits(self, monkeypatch):
        fits = {}
        for name in ("l1_ssl_fit", "l2_ssl_fit"):
            original = getattr(harness, name)

            def spy(operator, y, lam, original=original, name=name, **kwargs):
                solution = original(operator, y, lam, **kwargs)
                fits[name] = (operator, y, lam, solution.scores)
                return solution

            monkeypatch.setattr(harness, name, spy)
        multiclass_trial(3, 4, [0.0, 0.2, 0.4], 5, **GRAPH)
        for name, fit in (("l1_ssl_fit", ssl.l1_ssl_fit), ("l2_ssl_fit", ssl.l2_ssl_fit)):
            operator, y, lam, stacked = fits[name]
            assert y.shape == (200, 6)
            assert np.count_nonzero(y) == 60
            # Each labeled row holds one +1 and one -1 per fraction block.
            rows = y[np.any(y != 0, axis=1)].reshape(10, 3, 2)
            assert np.array_equal(np.sort(rows, axis=2), np.broadcast_to([-1.0, 1.0], rows.shape))
            for i in range(3):
                alone = fit(operator, y[:, 2 * i:2 * i + 2], lam).scores
                assert np.array_equal(stacked[:, 2 * i:2 * i + 2], alone), (name, i)

    def test_failed_solve_names_fraction_and_class(self, monkeypatch):
        original = ssl.spd_factor
        calls = []

        def fail_fourth_solve(system):
            lu = original(system)

            def solve(y):
                calls.append(None)
                return np.zeros_like(y) if len(calls) == 4 else lu.solve(y)

            return SimpleNamespace(solve=solve)

        monkeypatch.setattr(ssl, "spd_factor", fail_fourth_solve)
        with pytest.raises(ConvergenceError, match="^noise fraction 0.3, class 1: relative resid"):
            multiclass_trial(3, 4, [0.0, 0.3], 5, **GRAPH)


class TestBasisSize:
    """A basis larger than the sample count is an error, not silently clamped."""

    def test_multiclass_trial_rejects_m_beyond_n(self):
        with pytest.raises(ValueError, match="m must be in"):
            multiclass_trial(1, 0, [0.0], 3, sigma=1.0, k=5, lam=1.0, m=201)

    def test_l1_classify_rejects_m_beyond_n(self):
        x, _ = gaussian_blobs(40, classes=2, seed=0)
        with pytest.raises(ValueError, match="m must be in"):
            l1_classify(x, [(0, 0), (39, 1)], 2, sigma=1.0, k=5, lam=1.0, m=41)


class TestPeakMemory:
    """Traced peaks of the graph and the basis, against the bytes of the matrix returned.

    The calling process holds one graph-sized working set at a time. The
    peaks were 6.3 and 5.8 times the matrix while the edge kernels held
    several copies of the edges at once; they are 3.7 and 3.6 now.
    """

    BOUND = 4.4

    @pytest.fixture
    def x(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        return gaussian_blobs(15000, classes=5, seed=2)[0]

    @staticmethod
    def peak_over_bytes(build, pick):
        tracemalloc.start()
        try:
            matrix = pick(build())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)

    def test_graph(self, x):
        ratio = self.peak_over_bytes(lambda: graph.gaussian_knn_graph(x, 1.0, 10), lambda w: w)
        assert ratio <= self.BOUND

    def test_laplacian_basis(self, x):
        ratio = self.peak_over_bytes(lambda: harness.laplacian_basis(x, 1.0, 10, 20, 0),
                                     lambda result: result[0])
        assert ratio <= self.BOUND


class TestConfidenceHalfwidth:
    def test_single_value(self):
        assert confidence_halfwidth([0.5]) == 0.0

    def test_hand_computation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        expected = 1.96 * np.std(values, ddof=1) / 2.0
        assert confidence_halfwidth(values) == pytest.approx(expected)


class TestDatasets:
    def test_blobs_shapes_and_balance(self):
        x, labels = gaussian_blobs(101, classes=4, seed=0)
        assert x.shape == (101, 2)
        assert np.bincount(labels).tolist() == [26, 25, 25, 25]

    def test_blobs_deterministic(self):
        a, _ = gaussian_blobs(50, seed=3)
        b, _ = gaussian_blobs(50, seed=3)
        assert np.array_equal(a, b)

    def test_corpus_corruption_count(self):
        clean, corrupted, mask, other = two_block_corpus(n=60, vocab=40, seed=1)
        assert mask.sum() == round(0.1 * 60 * 40)
        assert np.array_equal(clean != corrupted, mask)
        assert np.all(corrupted >= 0.0)
        assert np.all(other >= 0.0)

    def test_corpus_blocks_disjoint(self):
        _, _, _, other = two_block_corpus(seed=2)
        assert np.all(other[:30, 15:] == 0.0)
        assert np.all(other[30:, :15] == 0.0)
