import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from graphssl import cli
from graphssl.datasets import gaussian_blobs
from graphssl.errors import ConvergenceError
from graphssl.graph import GraphConfig, _mirror, gaussian_knn_graph, normalized_laplacian
from graphssl.linalg import (
    DENSE_EIGEN_CUTOFF,
    _row_sums,
    cg_solve,
    check_symmetric,
    smallest_eigenpairs,
)
from graphssl.solver import l2_system

PATH_GRAPH_2 = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def sym_csr(a):
    """CSR of the symmetric part of a dense array; exact zeros are not stored."""
    return sp.csr_matrix(0.5 * (a + a.T))


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


def triplets(n, rows, cols, vals):
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n))


class TestSparseSymMatrix:
    """check_symmetric: the contract of every sparse matrix the library accepts."""

    def test_rejects_lower_triangle_storage(self):
        # One triangle alone is not a symmetric matrix.
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(triplets(3, [2], [0], [1.0]))

    def test_rejects_explicit_zero(self):
        with pytest.raises(ValueError, match="zero"):
            check_symmetric(triplets(3, [0, 1], [1, 0], [0.0, 0.0]))

    def test_rejects_duplicates(self):
        # Graph builders mirror each undirected edge once; a repeat is an error.
        with pytest.raises(ValueError, match="duplicate"):
            _mirror(3, np.array([0, 0]), np.array([1, 1]), np.array([1.0, 2.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="index"):
            _mirror(2, np.array([0]), np.array([2]), np.array([1.0]))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        a = random_psd(6, rng)
        assert np.allclose(check_symmetric(sym_csr(a)).toarray(), a)

    def test_immutable(self):
        # Canonicalizing works on a copy; the caller's matrix is never modified.
        a = sp.csr_matrix((np.array([1.0, 2.0, 1.0]), np.array([1, 0, 0]), np.array([0, 2, 3])),
                          shape=(2, 2))
        before = (a.data.copy(), a.indices.copy(), a.indptr.copy())
        checked = check_symmetric(a)
        assert checked is not a and checked.has_sorted_indices
        assert all(np.array_equal(x, y) for x, y in zip(before, (a.data, a.indices, a.indptr)))

    def test_returns_canonical_csr(self):
        # Other sparse formats come back as sorted float64 CSR; duplicates are summed.
        a = triplets(3, [2, 0, 1, 0, 0], [0, 2, 1, 2, 0], [3, 1, 5, 2, 4])
        checked = check_symmetric(a)
        assert checked.format == "csr" and checked.dtype == np.float64
        assert checked.has_canonical_format
        expected = [[4.0, 0.0, 3.0], [0.0, 5.0, 0.0], [3.0, 0.0, 0.0]]
        assert np.array_equal(checked.toarray(), expected)

    def test_csr_input_is_returned_as_is(self):
        a = sym_csr(random_psd(5, np.random.default_rng(1)))
        assert check_symmetric(a) is a

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_symmetric(sp.csr_matrix(np.ones((2, 3))))

    def test_rejects_dense_input(self):
        with pytest.raises(TypeError, match="sparse"):
            check_symmetric(np.eye(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_symmetric(triplets(2, [0, 1, 1], [1, 0, 1], [bad, bad, 1.0]))

    def test_rejects_one_ulp_asymmetry(self):
        a = sym_csr(random_psd(6, np.random.default_rng(2)))
        check_symmetric(a)
        dense = a.toarray()
        dense[1, 4] = np.nextafter(dense[1, 4], np.inf)
        with pytest.raises(ValueError, match="not symmetric"):
            check_symmetric(sp.csr_matrix(dense))


def upper_triangle_row_sums(a, values):
    """Row sums as np.add.at over upper-triangle triplets, then their mirrors."""
    coo = sp.triu(a).tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols = coo.row[order], coo.col[order]
    vals = values(coo.data[order])
    sums = np.zeros(a.shape[0])
    np.add.at(sums, rows, vals)
    off = rows != cols
    np.add.at(sums, cols[off], vals[off])
    return sums


class TestRowSums:
    """Degrees and ||A||_inf are summed in one fixed order, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_upper_triangle_reference(self, seed):
        rng = np.random.default_rng(seed)
        # Mixed magnitudes make the sums depend on the order of addition.
        a = sym_csr(random_psd(40, rng, density=0.3) * 10.0 ** rng.integers(-8, 8, (40, 40)))
        for transform in (lambda v: v, np.abs):
            assert np.array_equal(_row_sums(a, transform(a.data)),
                                  upper_triangle_row_sums(a, transform))
        # ||A||_inf, which sets the Lanczos shift and the residual bound.
        assert _row_sums(a, np.abs(a.data)).max() == upper_triangle_row_sums(a, np.abs).max()

    def test_graph_degrees_match_reference(self):
        x, _ = gaussian_blobs(500, classes=4, seed=3)
        w = gaussian_knn_graph(x, GraphConfig(sigma=0.7, k=7))
        assert np.array_equal(_row_sums(w, w.data), upper_triangle_row_sums(w, lambda v: v))
        lap = normalized_laplacian(w)
        assert np.array_equal(_row_sums(lap, np.abs(lap.data)),
                              upper_triangle_row_sums(lap, np.abs))


class TestSpmv:
    """Products with checked CSR matrices, as cg_solve and the eigensolver form them."""

    def test_constant_vector_in_kernel(self):
        assert np.allclose(PATH_GRAPH_2 @ np.array([1.0, 1.0]), [0.0, 0.0])

    def test_eigenvector_direction(self):
        assert np.allclose(PATH_GRAPH_2 @ np.array([1.0, -1.0]), [2.0, -2.0])

    def test_matches_dense_oracle_small(self):
        rng = np.random.default_rng(1)
        a = random_psd(5, rng)
        x = rng.standard_normal(5)
        assert np.allclose(check_symmetric(sym_csr(a)) @ x, a @ x, atol=1e-12)

    def test_matches_dense_oracle_random_sizes(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(1, 51))
            a = random_psd(n, rng, density=0.5)
            x = rng.standard_normal(n)
            got = check_symmetric(sym_csr(a)) @ x
            assert np.allclose(got, a @ x, atol=1e-12, rtol=0.0)

    def test_block_product_matches_column_loop(self):
        # smallest_eigenpairs multiplies all eigenvectors at once; each column
        # must equal the per-vector product bit for bit.
        rng = np.random.default_rng(3)
        a = check_symmetric(sym_csr(random_psd(40, rng, density=0.2)))
        rows = rng.standard_normal((40, 7))
        for block in (rows, np.asfortranarray(rows)):
            columns = np.column_stack([a @ block[:, i] for i in range(7)])
            assert np.array_equal(a @ block, columns)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            cg_solve(PATH_GRAPH_2, np.array([1.0, 2.0, 3.0]))


class TestIdentityPlusScaled:
    """l2_system builds I + lam L with one sparse add."""

    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        a = random_psd(7, rng)
        s = sym_csr(a)
        assert np.allclose(l2_system(s, 2.5).toarray(), np.eye(7) + 2.5 * a)

    def test_zero_scale_is_identity(self):
        system = l2_system(PATH_GRAPH_2, 0.0)
        assert np.allclose(system.toarray(), np.eye(2))
        assert system.nnz == 2  # the zeros that lam = 0 produces are not stored


def solve_spd(a, b, tol=1e-8):
    x, _, _ = cg_solve(a, b, tol=tol)
    return x


class TestSolveSpd:
    def test_identity_system(self):
        rng = np.random.default_rng(4)
        eye = sp.identity(6, format="csr")
        b = rng.standard_normal(6)
        assert np.allclose(solve_spd(eye, b), b, atol=1e-12)

    def test_two_node_system_matches_direct_inverse(self):
        # I + L for the unit two-vertex graph; oracle is the exact 2x2 solve.
        a = l2_system(PATH_GRAPH_2, 1.0)
        b = np.array([1.0, 0.0])
        expected = np.linalg.solve(np.array([[2.0, -1.0], [-1.0, 2.0]]), b)
        assert np.allclose(solve_spd(a, b, tol=1e-12), expected, atol=1e-10)

    def test_matches_lu_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_psd(10, rng)
            b = rng.standard_normal(10)
            x = solve_spd(sym_csr(a), b, tol=1e-12)
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_psd(15, rng, density=0.4)
            b = rng.standard_normal(15)
            tol = 1e-9
            x = solve_spd(sym_csr(a), b, tol=tol)
            assert np.linalg.norm(a @ x - b) <= tol * np.linalg.norm(b)

    def test_zero_rhs(self):
        assert np.allclose(solve_spd(PATH_GRAPH_2, np.zeros(2)), np.zeros(2))

    def test_budget_exhaustion_reports_residual(self):
        rng = np.random.default_rng(7)
        a = random_psd(30, rng)
        b = rng.standard_normal(30)
        with pytest.raises(ConvergenceError) as info:
            cg_solve(sym_csr(a), b, tol=1e-14, max_iters=1)
        assert info.value.residual is not None and info.value.residual > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs_before_iterating(self, bad):
        # Without the check a NaN would run the whole 10 n budget of products.
        a = CountingMatrix(2.0 * sp.identity(3, format="csr"))
        with pytest.raises(ValueError, match="finite"):
            cg_solve(a, np.array([bad, 1.0, 1.0]))
        assert a.products == 0


class CountingMatrix:
    """A sparse matrix that counts its matrix-vector products."""

    def __init__(self, a):
        self.a, self.shape, self.products = a, a.shape, 0

    def __matmul__(self, x):
        self.products += 1
        return self.a @ x


class TestSmallestEigenpairs:
    def test_two_node_laplacian(self):
        values, _ = smallest_eigenpairs(PATH_GRAPH_2, 2)
        assert np.allclose(values, [0.0, 2.0], atol=1e-12)

    def test_zero_matrix_spectrum(self):
        zero = sp.csr_matrix((5, 5))
        for method in ("dense", "lanczos"):
            values, vectors = smallest_eigenpairs(zero, 3, method=method)
            assert np.allclose(values, 0.0, atol=1e-12)
            assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("method", ["dense", "lanczos"])
    def test_matches_dense_oracle(self, method):
        rng = np.random.default_rng(8)
        a = random_psd(20, rng)
        values, _ = smallest_eigenpairs(sym_csr(a), 5, method=method)
        assert np.allclose(values, np.linalg.eigvalsh(a)[:5], atol=1e-8)

    def test_lanczos_recovers_multiplicities(self):
        # Block-diagonal PSD matrix with a three-fold smallest eigenvalue.
        blocks = []
        rng = np.random.default_rng(9)
        base = random_psd(10, rng)
        dense = np.zeros((30, 30))
        for b in range(3):
            dense[b * 10:(b + 1) * 10, b * 10:(b + 1) * 10] = base
        a = sym_csr(dense)
        values, _ = smallest_eigenpairs(a, 6, method="lanczos", seed=0)
        oracle = np.linalg.eigvalsh(dense)[:6]
        assert np.allclose(values, oracle, atol=1e-8)

    def test_residual_and_orthonormality_invariants(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            a = sym_csr(random_psd(25, rng, density=0.5))
            values, vectors = smallest_eigenpairs(a, 6, seed=trial)
            norm = np.abs(a.toarray()).sum(axis=1).max()
            for i in range(values.size):
                resid = np.linalg.norm(a @ vectors[:, i] - values[i] * vectors[:, i])
                assert resid <= 1e-6 * norm
            assert np.allclose(vectors.T @ vectors, np.eye(6), atol=1e-8)
            assert np.all(np.diff(values) >= -1e-10)
            assert np.all(values >= -1e-8)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(11)
        a = sym_csr(random_psd(40, rng))
        first = smallest_eigenpairs(a, 4, method="lanczos", seed=7)
        second = smallest_eigenpairs(a, 4, method="lanczos", seed=7)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_m_out_of_range(self):
        with pytest.raises(ValueError, match="m must be"):
            smallest_eigenpairs(PATH_GRAPH_2, 3)

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            smallest_eigenpairs(PATH_GRAPH_2, 1, tol=tol)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="not symmetric"):
            smallest_eigenpairs(sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]])), 1)

    def test_budget_exhaustion(self):
        # Eigenvalues packed far from zero stay clustered after the
        # shift-invert transform, so one restart cycle cannot resolve them.
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        vals = 100.0 + np.linspace(0, 0.01, 80)
        dense = (q * vals) @ q.T
        a = sym_csr(0.5 * (dense + dense.T))
        with pytest.raises(ConvergenceError):
            smallest_eigenpairs(a, 5, method="lanczos", max_steps=1)


class TestDenseSubset:
    """The dense path computes only the m requested pairs when m < n."""

    @pytest.mark.parametrize("m", [1, 5, 29])
    def test_matches_full_decomposition(self, m):
        # A prescribed simple spectrum, so every m ends at a gap of at least 0.05.
        rng = np.random.default_rng(14)
        q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        a = sym_csr((q * np.linspace(0.0, 1.5, 30)) @ q.T)
        w, v = np.linalg.eigh(a.toarray())
        assert np.all(np.diff(w) > 0.05)
        values, vectors = smallest_eigenpairs(a, m, method="dense")
        assert np.allclose(values, np.linalg.eigvalsh(a.toarray())[:m], rtol=0.0, atol=1e-12)
        assert subspace_overlap(v[:, :m], vectors) >= 1.0 - 1e-10

    def test_multi_component_laplacian(self):
        # m=9 runs past the three-fold zero eigenvalue and ends at a gap.
        lap = disconnected_laplacian()
        m = 9
        w, v = np.linalg.eigh(lap.toarray())
        assert np.allclose(w[:3], 0.0, atol=1e-12) and w[3] > 1e-2
        assert w[m] > 2.0 * w[m - 1]
        values, vectors = smallest_eigenpairs(lap, m, method="dense")
        assert np.allclose(values, w[:m], rtol=0.0, atol=1e-12)
        assert subspace_overlap(v[:, :3], vectors[:, :3]) >= 1.0 - 1e-10
        assert subspace_overlap(v[:, :m], vectors) >= 1.0 - 1e-10

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
        a = sym_csr(random_psd(20, np.random.default_rng(15)))
        smallest_eigenpairs(a, 6, method="dense")
        assert numpy_calls == []
        assert len(scipy_calls) == 1
        assert list(scipy_calls[0]["subset_by_index"]) == [0, 5]

    def test_full_basis_uses_numpy_eigh(self, monkeypatch):
        numpy_calls = self.spy(monkeypatch, np.linalg)
        scipy_calls = self.spy(monkeypatch, scipy.linalg)
        a = sym_csr(random_psd(20, np.random.default_rng(15)))
        values, _ = smallest_eigenpairs(a, 20)
        assert len(numpy_calls) == 1 and scipy_calls == []
        assert values.size == 20


def zero_pivot(*args, **kwargs):
    """Stands in for spla.splu meeting an exactly zero pivot."""
    raise RuntimeError("Factor is exactly singular")


class TestShiftInvertFactor:
    def test_failed_factorization_is_a_convergence_error(self, monkeypatch):
        monkeypatch.setattr(spla, "splu", zero_pivot)
        rng = np.random.default_rng(13)
        a = sym_csr(random_psd(30, rng))
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
        assert lap.shape[0] > DENSE_EIGEN_CUTOFF
        m = 9
        spectrum = np.linalg.eigvalsh(lap.toarray())
        assert np.allclose(spectrum[:3], 0.0, atol=1e-12) and spectrum[3] > 1e-2
        assert spectrum[m] > 2.0 * spectrum[m - 1]
        dense_values, dense_vectors = smallest_eigenpairs(lap, m, method="dense")
        for seed in (0, 1):
            values, vectors = smallest_eigenpairs(lap, m, method="lanczos", seed=seed)
            assert np.allclose(values, dense_values, rtol=0.0, atol=1e-10)
            assert subspace_overlap(dense_vectors, vectors) >= 1.0 - 1e-8
