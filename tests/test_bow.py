import numpy as np
import pytest

from graphssl import fileio
from graphssl.bow import (
    TABLE2_TEXTUAL,
    TABLE2_VISUAL,
    RefineConfig,
    apply_error_sparsity,
    co_refine,
    refine,
)
from graphssl.datasets import two_block_corpus
from graphssl.errors import IsolatedVertexError


def small_corpus(seed=0):
    return two_block_corpus(n=20, vocab=12, other_vocab=10, corrupt_fraction=0.1,
                            magnitude=0.2, seed=seed)


class TestApplyErrorSparsity:
    def test_no_change_passthrough(self):
        rng = np.random.default_rng(0)
        y = rng.random((4, 3))
        assert np.array_equal(apply_error_sparsity(y, y, 0.3), y)

    def test_scalar_example(self):
        out = apply_error_sparsity(np.array([[3.0]]), np.array([[0.0]]), 1.0)
        assert out[0, 0] == pytest.approx(2.0)

    def test_matches_scalar_grid_oracle(self):
        # Per entry the update minimizes 0.5 (f - y*)^2 + gamma |f - y|.
        rng = np.random.default_rng(1)
        grid = np.arange(-3.0, 3.0 + 5e-4, 1e-3)
        for _ in range(200):
            y_star = float(rng.uniform(-2, 2))
            y = float(rng.uniform(-2, 2))
            gamma = float(rng.uniform(0, 1))
            vals = 0.5 * (grid - y_star) ** 2 + gamma * np.abs(grid - y)
            best = grid[np.argmin(vals)]
            got = apply_error_sparsity(np.array([[y_star]]), np.array([[y]]), gamma)[0, 0]
            assert abs(got - best) <= 1e-3

    def test_restores_small_changes_exactly(self):
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        y_star = y + np.array([[0.05, -0.02], [0.5, -0.8]])
        out = apply_error_sparsity(y_star, y, 0.1)
        assert out[0, 0] == y[0, 0]
        assert out[0, 1] == y[0, 1]
        assert out[1, 0] == pytest.approx(3.4)
        assert out[1, 1] == pytest.approx(3.3)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            apply_error_sparsity(np.zeros((2, 2)), np.zeros((2, 2)), -0.1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_error_sparsity(np.zeros((2, 2)), np.zeros((3, 2)), 0.1)

    def test_change_count_monotone_in_gamma(self):
        rng = np.random.default_rng(2)
        y = rng.random((10, 8))
        y_star = y + rng.normal(scale=0.3, size=y.shape)
        previous = None
        for gamma in (0.0, 0.05, 0.1, 0.3, 0.8):
            out = apply_error_sparsity(y_star, y, gamma)
            changed = int(np.count_nonzero(out != y))
            if previous is not None:
                assert changed <= previous
            previous = changed


class TestRefine:
    def test_identity_when_unregularized(self):
        _, corrupted, _, other = small_corpus()
        refined, _ = refine(corrupted, other, RefineConfig(lam=0.0, gamma=0.0, k=19, m=20))
        assert np.array_equal(refined, corrupted)

    def test_huge_gamma_restores_input(self):
        _, corrupted, _, other = small_corpus()
        refined, _ = refine(corrupted, other, RefineConfig(lam=0.05, gamma=1e6, k=19, m=4))
        assert np.array_equal(refined, corrupted)

    def test_zero_gamma_passes_smoothing_through(self):
        _, corrupted, _, other = small_corpus()
        out, _ = refine(corrupted, other, RefineConfig(lam=0.05, gamma=0.0, k=19, m=4))
        # Manually run the smoothing stage on the same graph and basis.
        from graphssl.graph import linear_knn_graph, normalized_laplacian
        from graphssl.solver import l1_fit
        from graphssl.spectral import build_basis

        lap = normalized_laplacian(linear_knn_graph(other, k=19))
        basis = build_basis(lap, 4, seed=0)
        alpha, _ = l1_fit(basis, corrupted, 0.05)
        assert np.array_equal(out, basis.expand(alpha))

    def test_noise_free_corpus_with_large_gamma_is_untouched(self):
        clean, _, _, other = small_corpus()
        refined, _ = refine(clean, other, RefineConfig(lam=0.01, gamma=0.075, k=19, m=4))
        assert np.count_nonzero(refined != clean) == 0

    def test_column_refinement_decomposes(self):
        _, corrupted, _, other = small_corpus()
        cfg = RefineConfig(lam=0.05, gamma=0.02, k=19, m=4)
        full, _ = refine(corrupted, other, cfg)
        one, _ = refine(corrupted[:, [3]], other, cfg)
        assert np.array_equal(full[:, [3]], one)

    def test_corrupted_entries_move_toward_block_consensus(self):
        clean, corrupted, mask, other = two_block_corpus(seed=3)
        cfg = RefineConfig(lam=0.01, gamma=0.075, k=29, m=4)
        refined, _ = refine(corrupted, other, cfg)
        before = np.abs(corrupted - clean)[mask]
        after = np.abs(refined - clean)[mask]
        assert np.mean(after < before - 1e-12) >= 0.8

    def test_clean_entries_restored_exactly(self):
        _, corrupted, mask, other = two_block_corpus(seed=4)
        cfg = RefineConfig(lam=0.01, gamma=0.075, k=29, m=4)
        refined, _ = refine(corrupted, other, cfg)
        assert np.mean(refined[~mask] == corrupted[~mask]) >= 0.95

    def test_zero_counterpart_row_names_document(self):
        _, corrupted, _, other = small_corpus()
        other = other.copy()
        other[7] = 0.0
        with pytest.raises(IsolatedVertexError) as info:
            refine(corrupted, other, RefineConfig(lam=0.01, gamma=0.01, k=5, m=4))
        assert info.value.vertex == 7

    def test_rejects_negative_counts(self):
        _, corrupted, _, other = small_corpus()
        bad = corrupted.copy()
        bad[0, 0] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            refine(bad, other, RefineConfig(lam=0.01, gamma=0.01, k=5, m=4))

    def test_rejects_row_mismatch(self):
        _, corrupted, _, other = small_corpus()
        with pytest.raises(ValueError, match="row counts differ"):
            refine(corrupted, other[:-2], RefineConfig(lam=0.01, gamma=0.01, k=5, m=4))


def whole(refinement):
    """A Refinement's refined matrix, rebuilt in one block."""
    return refinement.rows(0, refinement.shape[0])


class TestCoRefine:
    def test_swapped_arguments_swap_outputs(self):
        _, corrupted, _, other = small_corpus(seed=5)
        cfg_a = RefineConfig(lam=0.05, gamma=0.02, k=19, m=4)
        cfg_b = RefineConfig(lam=0.02, gamma=0.05, k=19, m=6)
        fa, fb = (whole(r) for r in co_refine(corrupted, other, cfg_a, cfg_b))
        gb, ga = (whole(r) for r in co_refine(other, corrupted, cfg_b, cfg_a))
        assert np.array_equal(fa, ga)
        assert np.array_equal(fb, gb)
        assert np.array_equal(fa, refine(corrupted, other, cfg_a)[0])
        assert np.array_equal(fb, refine(other, corrupted, cfg_b)[0])

    @pytest.mark.parametrize("lam, gamma", [(0.05, 0.02), (0.0, 0.02), (0.05, 0.0)])
    def test_counts_and_triplets_equal_refine(self, lam, gamma):
        # The counts come from the walk in the worker.
        _, corrupted, _, other = small_corpus(seed=7)
        cfg = RefineConfig(lam=lam, gamma=gamma, k=9, m=4)
        refinement, _ = co_refine(corrupted, other, cfg, cfg)
        refined, parts = refine(corrupted, other, cfg)
        assert ((refinement.total_objective, refinement.max_kkt_residual)
                == (parts.total_objective, parts.max_kkt_residual))
        assert refinement.changed_entries == np.count_nonzero(refined != corrupted)
        assert (b"".join(fileio.bow_chunks(refinement))
                == b"".join(fileio.bow_chunks(refined)))

    def test_all_zero_matrix_stays_zero(self):
        _, _, _, other = small_corpus(seed=6)
        zero = np.zeros((other.shape[0], 5))
        refined, _ = refine(zero, other, RefineConfig(lam=0.3, gamma=0.1, k=19, m=4))
        assert np.all(refined == 0.0)

    def test_zero_counterpart_fails_with_document_index(self):
        _, _, _, other = small_corpus(seed=6)
        zero = np.zeros((other.shape[0], 5))
        cfg = RefineConfig(lam=0.3, gamma=0.1, k=19, m=4)
        with pytest.raises(IsolatedVertexError) as info:
            co_refine(zero, other, cfg, cfg)
        assert info.value.vertex == 0

    def test_presets_match_published_values(self):
        assert (TABLE2_VISUAL.k, TABLE2_VISUAL.lam, TABLE2_VISUAL.gamma, TABLE2_VISUAL.m) == (
            15, 0.010, 0.005, 30,
        )
        assert (TABLE2_TEXTUAL.k, TABLE2_TEXTUAL.lam, TABLE2_TEXTUAL.gamma, TABLE2_TEXTUAL.m) == (
            15, 0.005, 0.075, 35,
        )
