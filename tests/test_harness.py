import os
from types import SimpleNamespace

import numpy as np
import pytest

from graphssl import harness, parallel, ssl
from graphssl.datasets import gaussian_blobs, two_block_corpus
from graphssl.errors import ConvergenceError
from graphssl.harness import (
    child_seed,
    confidence_halfwidth,
    flip_per_class,
    l1_classify,
    multiclass_trial,
    run_moons_trial,
    run_noise_sweep,
    signed_label_vector,
)
from graphssl.ssl import two_moons


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


class TestSignedLabels:
    def test_encoding(self):
        y = signed_label_vector([(0, 0), (3, 1)], 5)
        assert y.tolist() == [1.0, 0.0, 0.0, -1.0, 0.0]

    def test_rejects_extra_classes(self):
        with pytest.raises(ValueError):
            signed_label_vector([(0, 2)], 3)


class TestPerClassFlips:
    def test_exactly_one_flip_per_class(self):
        assignments = [(i, 0) for i in range(5)] + [(i + 10, 1) for i in range(5)]
        for seed in range(10):
            flipped = flip_per_class(assignments, 0.2, 2, seed)
            changed_by_class = {0: 0, 1: 0}
            for (_, old), (_, new) in zip(assignments, flipped):
                if old != new:
                    changed_by_class[old] += 1
            assert changed_by_class == {0: 1, 1: 1}

    def test_zero_fraction_is_identity(self):
        assignments = [(0, 0), (1, 1)]
        assert flip_per_class(assignments, 0.0, 2, 0) == assignments


class TestMoonsTrial:
    def test_deterministic(self):
        a = run_moons_trial(3, 1)
        b = run_moons_trial(3, 1)
        assert a.l1_accuracy == b.l1_accuracy
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.l1_predictions, b.l1_predictions)

    def test_runs_differ(self):
        a = run_moons_trial(3, 0)
        b = run_moons_trial(3, 1)
        assert not np.array_equal(a.features, b.features)

    def test_rejects_unknown_parameter(self):
        with pytest.raises(TypeError, match="unknown moons parameters: gamma"):
            run_moons_trial(3, 1, gamma=0.1)


class TestNoiseSweep:
    def test_worker_count_is_immaterial(self, monkeypatch):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
        serial = run_noise_sweep(2, [0.0, 0.3], 3, 5, sigma=0.1, k=10, lam=5.0, m=20)
        forked = run_noise_sweep(2, [0.0, 0.3], 3, 5, sigma=0.1, k=10, lam=5.0, m=20,
                                 workers=3)
        for a, b in zip(serial, forked):
            assert a == b

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty"):
            run_noise_sweep(0, [], 2, 5, sigma=0.1, k=10, lam=5.0, m=20)

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (8, 3)])
    def test_process_count_is_capped_by_runs_and_usable_cpus(self, monkeypatch, cpus,
                                                             expected):
        forks = []
        fork = os.fork

        def exit_at_once():
            # Each worker ends before it claims a run, so no run starts.
            pid = fork()
            if pid == 0:
                os._exit(0)
            forks.append(pid)
            return pid

        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", exit_at_once)
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

    GRAPH = {"sigma": 0.1, "k": 10, "lam": 5.0, "m": 20}

    def test_instance_is_built_once_per_run(self, monkeypatch):
        spies = {name: _counting(monkeypatch, harness, name)
                 for name in ("gaussian_knn_graph", "build_basis", "select_labeled",
                              "l1_ssl_fit", "l2_ssl_fit")}
        run_noise_sweep(1, [0.0, 0.1, 0.2, 0.3, 0.4], 3, 5, **self.GRAPH)
        assert {name: len(calls) for name, calls in spies.items()} == dict.fromkeys(spies, 3)

    def test_first_fraction_does_not_depend_on_the_grid(self):
        longer = run_noise_sweep(6, [0.0, 0.3], 4, 5, **self.GRAPH)
        alone = run_noise_sweep(6, [0.0], 4, 5, **self.GRAPH)
        assert longer[0] == alone[0]

    def test_stacked_fit_equals_per_fraction_fits(self, monkeypatch):
        fits = {}
        for name in ("l1_ssl_fit", "l2_ssl_fit"):
            original = getattr(harness, name)

            def spy(operator, y, lam, original=original, name=name, **kwargs):
                solution = original(operator, y, lam, **kwargs)
                fits[name] = (operator, y, lam, solution.scores)
                return solution

            monkeypatch.setattr(harness, name, spy)
        x, truth = two_moons(200, 0.1, seed=3)
        multiclass_trial(x, truth, 2, 5, [0.0, 0.2, 0.4], seed=4, **self.GRAPH)
        for name, fit in (("l1_ssl_fit", ssl.l1_ssl_fit), ("l2_ssl_fit", ssl.l2_ssl_fit)):
            operator, y, lam, stacked = fits[name]
            assert y.shape == (200, 6)
            assert np.count_nonzero(y) == 3 * 10
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
        x, truth = two_moons(200, 0.1, seed=3)
        with pytest.raises(ConvergenceError, match="^noise fraction 0.3, class 1: relative resid"):
            multiclass_trial(x, truth, 2, 5, [0.0, 0.3], seed=4, **self.GRAPH)


class TestBasisSize:
    """A basis larger than the sample count is an error, not silently clamped."""

    def test_multiclass_trial_rejects_m_beyond_n(self):
        x, truth = gaussian_blobs(40, classes=2, seed=0)
        with pytest.raises(ValueError, match="m must be in"):
            multiclass_trial(x, truth, 2, 3, [0.0], seed=1, sigma=1.0, k=5, lam=1.0, m=41)

    def test_l1_classify_rejects_m_beyond_n(self):
        x, _ = gaussian_blobs(40, classes=2, seed=0)
        with pytest.raises(ValueError, match="m must be in"):
            l1_classify(x, [(0, 0), (39, 1)], 2, sigma=1.0, k=5, lam=1.0, m=41)


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
