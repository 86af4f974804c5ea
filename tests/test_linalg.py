import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from graphssl import cli
from graphssl.datasets import gaussian_blobs
from graphssl.errors import ConvergenceError
from graphssl.graph import GraphConfig, gaussian_knn_graph, normalized_laplacian
from graphssl.linalg import (
    DENSE_EIGEN_CUTOFF,
    EigenPairs,
    SparseSymMatrix,
    cg_solve,
    identity_plus_scaled,
    smallest_eigenpairs,
    solve_spd,
    spmv,
)

PATH_GRAPH_2 = SparseSymMatrix.from_dense(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def disconnected_laplacian():
    """Normalized Laplacian of three blobs: three components, three zero eigenvalues."""
    x, _ = gaussian_blobs(600, classes=3, seed=0)
    return normalized_laplacian(gaussian_knn_graph(x, GraphConfig(sigma=1.0, k=10)))


def subspace_overlap(a, b):
    """Smallest singular value of a^T b; 1 when the column spaces coincide."""
    return np.linalg.svd(a.T @ b, compute_uv=False).min()


def random_psd(n, rng, density=1.0):
    a = rng.standard_normal((n, n))
    a = a @ a.T
    if density < 1.0:
        mask = rng.random((n, n)) < density
        mask = np.triu(mask) | np.triu(mask).T
        np.fill_diagonal(mask, True)
        a = a * mask
        a = a + n * np.eye(n)  # keep it comfortably positive definite
    return a


class TestSparseSymMatrix:
    def test_rejects_lower_triangle_storage(self):
        with pytest.raises(ValueError, match="row <= col"):
            SparseSymMatrix(3, [2], [0], [1.0])

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError, match="zero"):
            SparseSymMatrix(3, [0], [1], [0.0])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseSymMatrix(3, [0, 0], [1, 1], [1.0, 2.0])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseSymMatrix(2, [0], [2], [1.0])

    def test_from_triplets_canonicalizes_orientation(self):
        a = SparseSymMatrix.from_triplets(3, [2, 1], [0, 2], [1.5, 0.0])
        assert a.nnz == 1
        assert (a.rows[0], a.cols[0], a.vals[0]) == (0, 2, 1.5)

    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        a = random_psd(6, rng)
        assert np.allclose(SparseSymMatrix.from_dense(a).to_dense(), a)

    def test_immutable(self):
        a = SparseSymMatrix(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            a.vals[0] = 2.0


class TestSpmv:
    def test_constant_vector_in_kernel(self):
        assert np.allclose(spmv(PATH_GRAPH_2, [1.0, 1.0]), [0.0, 0.0])

    def test_eigenvector_direction(self):
        assert np.allclose(spmv(PATH_GRAPH_2, [1.0, -1.0]), [2.0, -2.0])

    def test_matches_dense_oracle_small(self):
        rng = np.random.default_rng(1)
        a = random_psd(5, rng)
        x = rng.standard_normal(5)
        assert np.allclose(spmv(SparseSymMatrix.from_dense(a), x), a @ x, atol=1e-12)

    def test_matches_dense_oracle_random_sizes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 51))
            a = random_psd(n, rng, density=0.5)
            x = rng.standard_normal(n)
            got = spmv(SparseSymMatrix.from_dense(a), x)
            assert np.allclose(got, a @ x, atol=1e-12, rtol=0.0)

    def test_block_product_matches_column_loop(self):
        # smallest_eigenpairs multiplies all eigenvectors at once; each column
        # must equal the per-vector product bit for bit.
        rng = np.random.default_rng(3)
        a = SparseSymMatrix.from_dense(random_psd(40, rng, density=0.2))
        rows = rng.standard_normal((40, 7))
        for block in (rows, np.asfortranarray(rows)):
            columns = np.column_stack([spmv(a, block[:, i]) for i in range(7)])
            assert np.array_equal(a.to_csr() @ block, columns)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            spmv(PATH_GRAPH_2, [1.0, 2.0, 3.0])


class TestIdentityPlusScaled:
    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        a = random_psd(7, rng)
        s = SparseSymMatrix.from_dense(a)
        assert np.allclose(identity_plus_scaled(s, 2.5).to_dense(), np.eye(7) + 2.5 * a)

    def test_zero_scale_is_identity(self):
        assert np.allclose(identity_plus_scaled(PATH_GRAPH_2, 0.0).to_dense(), np.eye(2))


class TestSolveSpd:
    def test_identity_system(self):
        rng = np.random.default_rng(4)
        eye = SparseSymMatrix.from_dense(np.eye(6))
        b = rng.standard_normal(6)
        assert np.allclose(solve_spd(eye, b), b, atol=1e-12)

    def test_two_node_system_matches_direct_inverse(self):
        # I + L for the unit two-vertex graph; oracle is the exact 2x2 solve.
        a = identity_plus_scaled(PATH_GRAPH_2, 1.0)
        b = np.array([1.0, 0.0])
        expected = np.linalg.solve(np.array([[2.0, -1.0], [-1.0, 2.0]]), b)
        assert np.allclose(solve_spd(a, b, tol=1e-12), expected, atol=1e-10)

    def test_matches_lu_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_psd(10, rng)
            b = rng.standard_normal(10)
            x = solve_spd(SparseSymMatrix.from_dense(a), b, tol=1e-12)
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_psd(15, rng, density=0.4)
            b = rng.standard_normal(15)
            tol = 1e-9
            x = solve_spd(SparseSymMatrix.from_dense(a), b, tol=tol)
            assert np.linalg.norm(a @ x - b) <= tol * np.linalg.norm(b)

    def test_zero_rhs(self):
        assert np.allclose(solve_spd(PATH_GRAPH_2, np.zeros(2)), np.zeros(2))

    def test_budget_exhaustion_reports_residual(self):
        rng = np.random.default_rng(7)
        a = random_psd(30, rng)
        b = rng.standard_normal(30)
        with pytest.raises(ConvergenceError) as info:
            cg_solve(SparseSymMatrix.from_dense(a), b, tol=1e-14, max_iters=1)
        assert info.value.residual is not None and info.value.residual > 0


class TestSmallestEigenpairs:
    def test_two_node_laplacian(self):
        pairs = smallest_eigenpairs(PATH_GRAPH_2, 2)
        assert np.allclose(pairs.values, [0.0, 2.0], atol=1e-12)

    def test_zero_matrix_spectrum(self):
        zero = SparseSymMatrix(5, [], [], [])
        for method in ("dense", "lanczos"):
            pairs = smallest_eigenpairs(zero, 3, method=method)
            assert np.allclose(pairs.values, 0.0, atol=1e-12)
            assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_matches_dense_oracle(self, method):
        rng = np.random.default_rng(8)
        a = random_psd(20, rng)
        pairs = smallest_eigenpairs(SparseSymMatrix.from_dense(a), 5, method=method)
        assert np.allclose(pairs.values, np.linalg.eigvalsh(a)[:5], atol=1e-8)

    def test_lanczos_recovers_multiplicities(self):
        # Block-diagonal PSD matrix with a three-fold smallest eigenvalue.
        blocks = []
        rng = np.random.default_rng(9)
        base = random_psd(10, rng)
        dense = np.zeros((30, 30))
        for b in range(3):
            dense[b * 10:(b + 1) * 10, b * 10:(b + 1) * 10] = base
        a = SparseSymMatrix.from_dense(dense)
        pairs = smallest_eigenpairs(a, 6, method="lanczos", seed=0)
        oracle = np.linalg.eigvalsh(dense)[:6]
        assert np.allclose(pairs.values, oracle, atol=1e-8)

    def test_residual_and_orthonormality_invariants(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            a = SparseSymMatrix.from_dense(random_psd(25, rng, density=0.5))
            pairs = smallest_eigenpairs(a, 6, seed=trial)
            norm = a.norm_inf()
            for i in range(pairs.m):
                resid = np.linalg.norm(spmv(a, pairs.vectors[:, i]) - pairs.values[i] * pairs.vectors[:, i])
                assert resid <= 1e-6 * norm
            assert np.allclose(pairs.vectors.T @ pairs.vectors, np.eye(6), atol=1e-8)
            assert np.all(np.diff(pairs.values) >= -1e-10)
            assert np.all(pairs.values >= -1e-8)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(11)
        a = SparseSymMatrix.from_dense(random_psd(40, rng))
        first = smallest_eigenpairs(a, 4, method="lanczos", seed=7)
        second = smallest_eigenpairs(a, 4, method="lanczos", seed=7)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    def test_m_out_of_range(self):
        with pytest.raises(ValueError, match="m must be"):
            smallest_eigenpairs(PATH_GRAPH_2, 3)

    def test_budget_exhaustion(self):
        # Eigenvalues packed far from zero stay clustered after the
        # shift-invert transform, so one restart cycle cannot resolve them.
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        vals = 100.0 + np.linspace(0, 0.01, 80)
        dense = (q * vals) @ q.T
        a = SparseSymMatrix.from_dense(0.5 * (dense + dense.T))
        with pytest.raises(ConvergenceError):
            smallest_eigenpairs(a, 5, method="lanczos", max_steps=1)


class TestDenseSubset:
    """The dense path computes only the m requested pairs when m < n."""

    @pytest.mark.parametrize("m", [1, 5, 29])
    def test_matches_full_decomposition(self, m):
        # A prescribed simple spectrum, so every m ends at a gap of at least 0.05.
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        a = SparseSymMatrix.from_dense((q * np.linspace(0.0, 1.5, 30)) @ q.T)
        w, v = np.linalg.eigh(a.to_dense())
        assert np.all(np.diff(w) > 0.05)
        pairs = smallest_eigenpairs(a, m, method="dense")
        assert np.allclose(pairs.values, np.linalg.eigvalsh(a.to_dense())[:m], rtol=0.0, atol=1e-12)
        assert subspace_overlap(v[:, :m], pairs.vectors) >= 1.0 - 1e-10

    def test_multi_component_laplacian(self):
        # m=9 runs past the three-fold zero eigenvalue and ends at a gap.
        lap = disconnected_laplacian()
        m = 9
        w, v = np.linalg.eigh(lap.to_dense())
        assert np.allclose(w[:3], 0.0, atol=1e-12) and w[3] > 1e-2
        assert w[m] > 2.0 * w[m - 1]
        pairs = smallest_eigenpairs(lap, m, method="dense")
        assert np.allclose(pairs.values, w[:m], rtol=0.0, atol=1e-12)
        assert subspace_overlap(v[:, :3], pairs.vectors[:, :3]) >= 1.0 - 1e-10
        assert subspace_overlap(v[:, :m], pairs.vectors) >= 1.0 - 1e-10

    @staticmethod
    def spy(monkeypatch, module):
        calls = []
        original = module.eigh

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "eigh", recording)
        return calls

    def test_subset_calls_only_the_index_range_driver(self, monkeypatch):
        numpy_calls = self.spy(monkeypatch, np.linalg)
        scipy_calls = self.spy(monkeypatch, scipy.linalg)
        a = SparseSymMatrix.from_dense(random_psd(20, np.random.default_rng(15)))
        smallest_eigenpairs(a, 6, method="dense")
        assert numpy_calls == []
        assert len(scipy_calls) == 1
        assert list(scipy_calls[0]["subset_by_index"]) == [0, 5]

    def test_full_basis_uses_numpy_eigh(self, monkeypatch):
        numpy_calls = self.spy(monkeypatch, np.linalg)
        scipy_calls = self.spy(monkeypatch, scipy.linalg)
        a = SparseSymMatrix.from_dense(random_psd(20, np.random.default_rng(15)))
        pairs = smallest_eigenpairs(a, 20)
        assert len(numpy_calls) == 1 and scipy_calls == []
        assert pairs.m == 20


class TestEigenPairsInvariants:
    def test_rejects_descending_values(self):
        with pytest.raises(ValueError, match="ascending"):
            EigenPairs(values=np.array([1.0, 0.0]), vectors=np.eye(2))

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            EigenPairs(values=np.array([0.0, 1.0]), vectors=np.ones((2, 2)))


def zero_pivot(*args, **kwargs):
    """Stands in for spla.splu meeting an exactly zero pivot."""
    raise RuntimeError("Factor is exactly singular")


class TestShiftInvertFactor:
    def test_failed_factorization_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(spla, "splu", zero_pivot)
        rng = np.random.default_rng(13)
        a = SparseSymMatrix.from_dense(random_psd(30, rng))
        with pytest.raises(ConvergenceError, match="shifted by"):
            smallest_eigenpairs(a, 3, method="lanczos")

    def test_failed_factorization_exits_with_code_two(self, tmp_path, monkeypatch, capsys):
        # More points than DENSE_EIGEN_CUTOFF, so eigen-dump takes the Lanczos path.
        x, _ = gaussian_blobs(600, classes=3, seed=0)
        features = tmp_path / "f.csv"
        features.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        monkeypatch.setattr(spla, "splu", zero_pivot)
        code = cli.main(["eigen-dump", "--input", str(features), "--k", "10", "--m", "5"])
        assert code == 2
        assert "shifted by" in capsys.readouterr().err

    def test_dense_and_lanczos_agree_on_disconnected_laplacian(self):
        # Three blobs give three components, hence three zero eigenvalues;
        # m=9 ends at a gap where the next eigenvalue is over twice as large.
        lap = disconnected_laplacian()
        assert lap.n > DENSE_EIGEN_CUTOFF
        m = 9
        spectrum = np.linalg.eigvalsh(lap.to_dense())
        assert np.allclose(spectrum[:3], 0.0, atol=1e-12) and spectrum[3] > 1e-2
        assert spectrum[m] > 2.0 * spectrum[m - 1]
        dense = smallest_eigenpairs(lap, m, method="dense")
        for seed in (0, 1):
            lanczos = smallest_eigenpairs(lap, m, method="lanczos", seed=seed)
            assert np.allclose(lanczos.values, dense.values, rtol=0.0, atol=1e-10)
            assert subspace_overlap(dense.vectors, lanczos.vectors) >= 1.0 - 1e-8
