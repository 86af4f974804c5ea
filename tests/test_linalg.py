from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from graphssl import cli, linalg, parallel, ssl
from graphssl.datasets import gaussian_blobs
from graphssl.errors import ConvergenceError
from graphssl.graph import _mirror, gaussian_knn_graph, normalized_laplacian
from graphssl.linalg import (
    DENSE_EIGEN_CUTOFF,
    EIGEN_RESIDUAL_TOL,
    _row_sums,
    check_symmetric,
    smallest_eigenpairs,
    spd_factor,
)
from graphssl.solver import l2_system
from graphssl.ssl import l2_ssl_fit

PATH_GRAPH_2 = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))


def sym_csr(a):
    """CSR of the symmetric part of a dense array; exact zeros are not stored."""
    return sp.csr_matrix(0.5 * (a + a.T))


def on_route(route, a, m, seed=0):
    """smallest_eigenpairs(a, m, seed), each component forced onto the "dense" or "lanczos" route.

    A DENSE_EIGEN_CUTOFF of n sends every component to the dense solver, and
    one of 0 sends each that can take it (fewer pairs than points) to Lanczos.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "DENSE_EIGEN_CUTOFF", a.shape[0] if route == "dense" else 0)
        return smallest_eigenpairs(a, m, seed=seed)


def disconnected_laplacian():
    """Normalized Laplacian of three blobs: three components, three zero eigenvalues."""
    x, _ = gaussian_blobs(600, classes=3, seed=0)
    return normalized_laplacian(gaussian_knn_graph(x, sigma=1.0, k=10))


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
        w = gaussian_knn_graph(x, sigma=0.7, k=7)
        assert np.array_equal(_row_sums(w, w.data), upper_triangle_row_sums(w, lambda v: v))
        lap = normalized_laplacian(w)
        assert np.array_equal(_row_sums(lap, np.abs(lap.data)),
                              upper_triangle_row_sums(lap, np.abs))


class TestSpmv:
    """Products with checked CSR matrices, as the residual checks and the eigensolver form them."""

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
        with pytest.raises(ValueError, match="must match"):
            l2_ssl_fit(PATH_GRAPH_2, np.array([[1.0], [2.0], [3.0]]), 1.0)


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


def solve_spd(a, b):
    return spd_factor(a).solve(b)


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
        assert np.allclose(solve_spd(a, b), expected, atol=1e-10)

    def test_matches_lu_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = random_psd(10, rng)
            b = rng.standard_normal(10)
            x = solve_spd(sym_csr(a), b)
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-8)

    def test_residual_contract(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = random_psd(15, rng, density=0.4)
            b = rng.standard_normal(15)
            tol = 1e-9
            x = solve_spd(sym_csr(a), b)
            assert np.linalg.norm(a @ x - b) <= tol * np.linalg.norm(b)

    def test_zero_rhs(self):
        # The residual check must accept the zero solution of a zero column.
        f = l2_ssl_fit(PATH_GRAPH_2, np.zeros((2, 1)), 1.0).scores
        assert np.array_equal(f, np.zeros((2, 1)))

    def test_singular_matrix_names_the_shift(self):
        with pytest.raises(ConvergenceError, match="shifted by 0.000e\\+00 failed"):
            spd_factor(PATH_GRAPH_2)

    def test_residual_miss_reports_residual_and_column(self, monkeypatch):
        rng = np.random.default_rng(7)
        a = random_psd(30, rng)
        b = rng.standard_normal(30)

        def off_by_1e6(system):
            lu = spd_factor(system)
            return SimpleNamespace(solve=lambda y: lu.solve(y) * (1.0 + 1e-6))

        monkeypatch.setattr(ssl, "spd_factor", off_by_1e6)
        y = np.column_stack([np.zeros(30), b])
        with pytest.raises(ConvergenceError, match="^class 1: relative residual") as info:
            l2_ssl_fit(sym_csr(a), y, 1.0)
        assert info.value.residual is not None and info.value.residual > 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rhs_before_factoring(self, monkeypatch, bad):
        factors = []
        monkeypatch.setattr(ssl, "spd_factor", factors.append)
        with pytest.raises(ValueError, match="finite"):
            l2_ssl_fit(2.0 * sp.identity(3, format="csr"), np.array([[bad], [1.0], [1.0]]), 1.0)
        assert factors == []


class TestSmallestEigenpairs:
    def test_two_node_laplacian(self):
        values, _ = smallest_eigenpairs(PATH_GRAPH_2, 2)
        assert np.allclose(values, [0.0, 2.0], atol=1e-12)

    def test_zero_matrix_spectrum(self):
        zero = sp.csr_matrix((5, 5))
        for route in ("dense", "lanczos"):
            values, vectors = on_route(route, zero, 3)
            assert np.allclose(values, 0.0, atol=1e-12)
            assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-8)

    @pytest.mark.parametrize("route", ["dense", "lanczos"])
    def test_matches_dense_oracle(self, route):
        rng = np.random.default_rng(8)
        a = random_psd(20, rng)
        values, _ = on_route(route, sym_csr(a), 5)
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
        values, _ = on_route("lanczos", a, 6, seed=0)
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
        first = on_route("lanczos", a, 4, seed=7)
        second = on_route("lanczos", a, 4, seed=7)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_m_out_of_range(self):
        with pytest.raises(ValueError, match="m must be"):
            smallest_eigenpairs(PATH_GRAPH_2, 3)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="not symmetric"):
            smallest_eigenpairs(sp.csr_matrix(np.array([[1.0, 2.0], [0.5, 1.0]])), 1)

    def test_arpack_failure_is_a_convergence_error(self, monkeypatch):
        def no_shifts(*args, **kwargs):
            raise spla.ArpackError(3)

        monkeypatch.setattr(spla, "eigsh", no_shifts)
        with pytest.raises(ConvergenceError, match="^eigensolver failed: ARPACK error 3: "):
            on_route("lanczos", sym_csr(random_psd(30, np.random.default_rng(13))), 3)

    def test_budget_exhaustion(self, monkeypatch):
        # Eigenvalues packed far from zero stay clustered after the
        # shift-invert transform, so one restart cycle cannot resolve them.
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((80, 80)))
        vals = 100.0 + np.linspace(0, 0.01, 80)
        dense = (q * vals) @ q.T
        a = sym_csr(0.5 * (dense + dense.T))
        monkeypatch.setattr(linalg, "_lanczos_budget", lambda m: 1)
        with pytest.raises(ConvergenceError):
            on_route("lanczos", a, 5)


class TestResidualMiss:
    """A returned pair that misses the EIGEN_RESIDUAL_TOL bound raises ConvergenceError."""

    @pytest.fixture(autouse=True)
    def perturbed_solves(self, monkeypatch):
        # Every solve returns its vectors shifted by 1e-4, far off the eigenvectors.
        solve = linalg._solve

        def perturbed(*args):
            values, vectors = solve(*args)
            return values, vectors + 1e-4

        monkeypatch.setattr(linalg, "_solve", perturbed)

    @pytest.mark.parametrize("components", [1, 2])
    def test_error_carries_the_residual(self, components):
        rng = np.random.default_rng(13)
        a = components_matrix([sym_csr(random_psd(30 // components, rng))
                               for _ in range(components)], seed=0)[0]
        assert connected_components(a, directed=False)[0] == components
        bound = EIGEN_RESIDUAL_TOL * float(_row_sums(a, np.abs(a.data)).max())
        with pytest.raises(ConvergenceError) as info:
            smallest_eigenpairs(a, 3)
        residual = info.value.residual
        assert residual > 10 * bound
        assert str(info.value) == f"eigenpair residual {residual:.3e} exceeds bound {bound:.3e}"

    def test_eigen_dump_exits_two(self, tmp_path, capsys):
        x, _ = gaussian_blobs(60, classes=3, spread=0.1, seed=0)
        features = tmp_path / "f.csv"
        features.write_text("".join(f"{a!r},{b!r}\n" for a, b in x.tolist()))
        out = tmp_path / "out"
        assert cli.main(["eigen-dump", "--input", str(features), "--k", "6", "--m", "10",
                         "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith("numerical failure: eigenpair residual ")
        assert not out.exists()


class TestResidualRange:
    """The residual check near the top of the float64 range, and on non-finite pairs."""

    @pytest.mark.filterwarnings("ignore:overflow encountered in add:RuntimeWarning")
    def test_rejects_a_matrix_whose_norm_overflows(self):
        # ||A||_inf = 2e308 is inf: the bound would pass any residual.
        with pytest.raises(ValueError, match="not finite"):
            smallest_eigenpairs(sp.csr_matrix([[1e308, 1e308], [1e308, 1e308]]), 2)

    def test_correct_pairs_of_huge_entries_pass(self):
        # Squaring residuals near 1e184 would overflow the norm to inf.
        values, vectors = smallest_eigenpairs(sp.csr_matrix([[1e200, 1e200], [1e200, 1e200]]), 2)
        assert np.allclose(values / 1e200, [0.0, 2.0], rtol=0.0, atol=1e-12)
        assert np.allclose(np.abs(vectors), np.sqrt(0.5), rtol=0.0, atol=1e-12)

    def test_a_nan_pair_fails(self, monkeypatch):
        def nan_pairs(a, m, *rest):
            return np.zeros(m), np.full((a.shape[0], m), np.nan)

        monkeypatch.setattr(linalg, "_solve", nan_pairs)
        with pytest.raises(ConvergenceError, match="^eigenpair residual nan exceeds bound"):
            smallest_eigenpairs(PATH_GRAPH_2, 2)


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
        values, vectors = on_route("dense", a, m)
        assert np.allclose(values, np.linalg.eigvalsh(a.toarray())[:m], rtol=0.0, atol=1e-12)
        assert subspace_overlap(v[:, :m], vectors) >= 1.0 - 1e-10

    def test_multi_component_laplacian(self):
        # m=9 runs past the three-fold zero eigenvalue and ends at a gap.
        lap = disconnected_laplacian()
        m = 9
        w, v = np.linalg.eigh(lap.toarray())
        assert np.allclose(w[:3], 0.0, atol=1e-12) and w[3] > 1e-2
        assert w[m] > 2.0 * w[m - 1]
        values, vectors = on_route("dense", lap, m)
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
        on_route("dense", a, 6)
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
            on_route("lanczos", a, 3)

    def test_failed_factorization_exits_with_code_two(self, tmp_path, monkeypatch, capsys):
        # Three components of more than DENSE_EIGEN_CUTOFF points each, so
        # eigen-dump takes the Lanczos path, on forked workers.
        x, _ = gaussian_blobs(1800, classes=3, seed=0)
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
        dense_values, dense_vectors = on_route("dense", lap, m)
        for seed in (0, 1):
            values, vectors = on_route("lanczos", lap, m, seed=seed)
            assert np.allclose(values, dense_values, rtol=0.0, atol=1e-10)
            assert subspace_overlap(dense_vectors, vectors) >= 1.0 - 1e-8

    def test_dense_and_lanczos_agree_with_many_zero_eigenvalues(self):
        # Twelve tight blobs give twelve components: the shift-inverted
        # spectrum has a twelve-fold largest eigenvalue 1 / shift, and m=20
        # runs eight pairs past it, to a gap.
        x, _ = gaussian_blobs(720, classes=12, spread=0.05, seed=1)
        lap = normalized_laplacian(gaussian_knn_graph(x, sigma=1.0, k=10))
        m = 20
        spectrum = np.linalg.eigvalsh(lap.toarray())
        assert np.allclose(spectrum[:12], 0.0, atol=1e-12) and spectrum[12] > 1e-2
        assert spectrum[m] > 1.02 * spectrum[m - 1]
        dense_values, dense_vectors = on_route("dense", lap, m)
        for seed in (0, 1):
            values, vectors = on_route("lanczos", lap, m, seed=seed)
            assert np.allclose(values, dense_values, rtol=0.0, atol=1e-10)
            assert subspace_overlap(dense_vectors, vectors) >= 1.0 - 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_factor_solves_per_eigensolve(self, monkeypatch, seed):
        # A shift below the wanted eigenvalues (lambda_20 is about 7e-3 here)
        # keeps their shift-inverted images apart. Each of the five
        # components is solved for 6 pairs: 32-41 solves each, where a shift
        # of 1e-3 ||A||_inf took 43-44. (Solved whole for 20 pairs, the graph
        # took 69 solves, and 74-85 with the larger shift.)
        factors = []
        original = spla.splu

        class Counting:
            def __init__(self, lu):
                self.lu = lu
                self.solves = 0
                factors.append(self)

            def solve(self, b):
                self.solves += 1
                return self.lu.solve(b)

        # One usable CPU keeps every component's solve in this process, where
        # the counts are seen.
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        monkeypatch.setattr(spla, "splu", lambda *args, **kw: Counting(original(*args, **kw)))
        x, _ = gaussian_blobs(10000, classes=5, seed=seed)
        lap = normalized_laplacian(gaussian_knn_graph(x, sigma=1.0, k=10))
        on_route("lanczos", lap, 20, seed=seed)
        assert len(factors) == 5
        assert max(factor.solves for factor in factors) <= 42


def ring_laplacian(n, rng):
    """Normalized Laplacian of a ring of n >= 3 nodes with random weights: one component."""
    lo = np.arange(n)
    return normalized_laplacian(_mirror(n, lo, (lo + 1) % n, rng.uniform(0.5, 1.5, n)))


def expander_laplacian(n, rng, out=8):
    """Normalized Laplacian of n nodes, each joined to `out` random others: one component."""
    lo = np.repeat(np.arange(n), out)
    hi = rng.integers(0, n, lo.size)
    pairs = np.unique(np.sort(np.stack([lo, hi])[:, lo != hi], axis=0), axis=1)
    lap = normalized_laplacian(_mirror(n, pairs[0], pairs[1],
                                       rng.uniform(0.5, 1.5, pairs.shape[1])))
    assert connected_components(lap)[0] == 1
    return lap


def components_matrix(blocks, seed):
    """Block-diagonal matrix of blocks, rows and columns shuffled alike.

    Returns (a, labels), where labels[i] is the block that row i came from.
    """
    perm = np.random.default_rng(seed).permutation(sum(b.shape[0] for b in blocks))
    labels = np.repeat(np.arange(len(blocks)), [b.shape[0] for b in blocks])
    return check_symmetric(sp.block_diag(blocks, format="csr")[perm][:, perm]), labels[perm]


def singletons_and_pairs(rng, singletons, pairs):
    """1 x 1 blocks and 2 x 2 blocks [[a, -b], [-b, a]] (a > b > 0), each with distinct values."""
    blocks = [sp.csr_matrix([[d]]) for d in rng.uniform(0.05, 1.5, singletons)]
    for a, b in zip(rng.uniform(0.6, 1.5, pairs), rng.uniform(0.1, 0.5, pairs)):
        blocks.append(sp.csr_matrix([[a, -b], [-b, a]]))
    return blocks


def assert_matches_whole_solve(a, labels, values, vectors):
    """The pairs are the m smallest of the whole matrix, each supported on one component.

    Eigenvalues agree with a dense solve of the whole matrix to 1e-12, and
    every cluster of equal eigenvalues that the cut at m leaves whole spans
    the same subspace as the whole solve's.
    """
    m = values.size
    w, v = np.linalg.eigh(a.toarray())
    assert np.allclose(values, w[:m], rtol=0.0, atol=1e-12)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(w) > 1e-8) + 1, [w.size]])
    whole = [(s, e) for s, e in zip(starts[:-1], starts[1:]) if e <= m]
    assert whole
    for s, e in whole:
        assert subspace_overlap(v[:, s:e], vectors[:, s:e]) >= 1.0 - 1e-8
    for j in range(m):
        assert np.unique(labels[vectors[:, j] != 0.0]).size == 1


def recording_solves(monkeypatch):
    """(points, pairs) of every component solve, all run in this process."""
    calls = []
    original = linalg._solve

    def recording(a, m, *args):
        calls.append((a.shape[0], m))
        return original(a, m, *args)

    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    monkeypatch.setattr(linalg, "_solve", recording)
    return calls


def per_cpu_count(monkeypatch, *args, **kwargs):
    """smallest_eigenpairs(*args, **kwargs) with 1 and with 2 usable CPUs."""
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        results.append(smallest_eigenpairs(*args, **kwargs))
    return results


class TestByComponent:
    """A disconnected matrix is solved one connected component at a time."""

    @pytest.mark.parametrize("n", [100, 700])
    def test_one_component_is_the_direct_route(self, monkeypatch, n):
        # Dense at 100 points, Lanczos at 700: the call a connected matrix
        # always got, without a worker process.
        a = ring_laplacian(n, np.random.default_rng(n))
        monkeypatch.setattr(parallel, "fork_map", fail_if_forked)
        values, vectors = smallest_eigenpairs(a, 12, seed=3)
        norm = float(_row_sums(a, np.abs(a.data)).max())
        if n > DENSE_EIGEN_CUTOFF:
            direct = linalg._shift_invert_lanczos(a, 12, 3, norm)[1]
        else:
            direct = scipy.linalg.eigh(a.toarray(), subset_by_index=[0, 11])[1]
        rayleigh = np.einsum("ij,ij->j", direct, a @ direct)
        order = np.argsort(rayleigh, kind="stable")
        assert np.array_equal(values, rayleigh[order])
        assert np.array_equal(vectors, direct[:, order])

    def test_many_small_and_singleton_components(self):
        rng = np.random.default_rng(20)
        blocks = singletons_and_pairs(rng, 12, 10)
        blocks += [ring_laplacian(size, rng) for size in (3, 5, 8, 40)]
        a, labels = components_matrix(blocks, seed=20)
        values, vectors = smallest_eigenpairs(a, 15)
        assert connected_components(a)[0] == 26
        assert_matches_whole_solve(a, labels, values, vectors)

    def test_more_components_than_pairs(self, monkeypatch):
        rng = np.random.default_rng(21)
        a, labels = components_matrix(singletons_and_pairs(rng, 30, 10) + [ring_laplacian(9, rng)],
                                      seed=21)
        calls = recording_solves(monkeypatch)
        values, vectors = smallest_eigenpairs(a, 5)
        assert len(calls) == 41
        assert_matches_whole_solve(a, labels, values, vectors)

    def test_uneven_spectra_force_a_resolve(self, monkeypatch):
        # The ring holds 60 of 460 points but 8 of the 12 smallest
        # eigenvalues: it is asked for 4 pairs, then for the 12 less the
        # expanders' four zero eigenvalues.
        rng = np.random.default_rng(22)
        ring = ring_laplacian(60, rng)
        a, labels = components_matrix([ring] + [expander_laplacian(100, rng) for _ in range(4)],
                                      seed=22)
        calls = recording_solves(monkeypatch)
        values, vectors = smallest_eigenpairs(a, 12)
        assert [pairs for points, pairs in calls if points == 60] == [4, 8]
        assert sum(labels[np.flatnonzero(vectors[:, j])[0]] == 0 for j in range(12)) == 8
        assert_matches_whole_solve(a, labels, values, vectors)

    def test_lanczos_components_and_a_resolve(self, monkeypatch):
        # Three components above DENSE_EIGEN_CUTOFF, so each is a Lanczos
        # solve. The ring's 10 pairs fall short of its 18 among the 20
        # smallest, so it is solved again for 18: the 20 less the expanders'
        # two zero eigenvalues, the only ones below its 10th.
        rng = np.random.default_rng(23)
        blocks = [ring_laplacian(600, rng), expander_laplacian(520, rng),
                  expander_laplacian(520, rng)]
        a, labels = components_matrix(blocks, seed=23)
        calls = recording_solves(monkeypatch)
        values, vectors = smallest_eigenpairs(a, 20, seed=5)
        assert calls == [(600, 10), (520, 9), (520, 9), (600, 18)]
        assert_matches_whole_solve(a, labels, values, vectors)
        forked = per_cpu_count(monkeypatch, a, 20, seed=5)
        assert np.array_equal(forked[0][0], values) and np.array_equal(forked[0][1], vectors)

    def test_blobs_match_the_whole_solve_on_any_cpu_count(self, monkeypatch):
        lap = normalized_laplacian(gaussian_knn_graph(gaussian_blobs(1800, classes=3, seed=0)[0],
                                                      sigma=1.0, k=10))
        count, labels = connected_components(lap)
        assert count == 3 and np.bincount(labels).min() > DENSE_EIGEN_CUTOFF
        (values, vectors), (forked_values, forked_vectors) = per_cpu_count(monkeypatch, lap, 20)
        assert np.array_equal(values, forked_values)
        assert np.array_equal(vectors, forked_vectors)
        assert_matches_whole_solve(lap, labels, values, vectors)

    def test_failure_names_the_component_in_process_and_in_a_worker(self, monkeypatch):
        # The budget_exhaustion spectrum, on two components solved by Lanczos.
        blocks = []
        for size in (80, 90):
            q, _ = np.linalg.qr(np.random.default_rng(size).standard_normal((size, size)))
            blocks.append(sym_csr((q * (100.0 + np.linspace(0, 0.01, size))) @ q.T))
        a = sp.block_diag(blocks, format="csr")
        monkeypatch.setattr(linalg, "_lanczos_budget", lambda m: 1)
        messages = []
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
            with pytest.raises(ConvergenceError) as caught:
                on_route("lanczos", a, 5)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0].startswith(
            "component 1 of 2 (90 points): eigensolver did not converge within 1 iterations")


def fail_if_forked(*args, **kwargs):
    pytest.fail("a connected matrix went through fork_map")


def hub_features(n=600, hubs=5, seed=0):
    """n points on the unit sphere in 30 dimensions, and `hubs` points near its center.

    A sphere point lies about sqrt(2) from any other and 1 from the center,
    so every point's 10 nearest neighbors include all the hubs, whose rows
    in the k-NN graph are then dense.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 30))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return np.vstack([x, 0.01 * rng.standard_normal((hubs, 30))])


def hub_laplacian():
    return normalized_laplacian(gaussian_knn_graph(hub_features(), sigma=1.0, k=10))


def recording_splu(monkeypatch, fail_on=None):
    """[(permc_spec, factor)] of each spla.splu call; call number fail_on meets a zero pivot."""
    calls = []
    original = spla.splu

    def recording(*args, **kwargs):
        if len(calls) + 1 == fail_on:
            zero_pivot()
        calls.append((kwargs["permc_spec"], original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def shifted(a, shift):
    return (a + shift * sp.identity(a.shape[0], format="csr")).tocsc()


SPD_OPTIONS = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


class TestDenseRowFactor:
    """spd_factor orders rows with more than max(16, 10 sqrt(n)) entries last."""

    def test_hub_rows_are_ordered_last(self, monkeypatch):
        lap = hub_laplacian()
        n = lap.shape[0]
        degrees = np.diff(lap.indptr)
        assert degrees[-5:].min() > 10 * np.sqrt(n) >= degrees[:-5].max()
        shift = 1e-5 * float(_row_sums(lap, np.abs(lap.data)).max())
        calls = recording_splu(monkeypatch)
        factor = spd_factor(lap, shift)
        assert [spec for spec, _ in calls] == ["MMD_AT_PLUS_A", "NATURAL"]
        assert calls[0][1].shape == (n - 5, n - 5)
        monkeypatch.undo()
        whole = spla.splu(shifted(lap, shift), permc_spec="MMD_AT_PLUS_A", **SPD_OPTIONS)
        lu = calls[1][1]
        assert lu.L.nnz + lu.U.nnz <= whole.L.nnz + whole.U.nnz
        b = np.random.default_rng(3).standard_normal(n)
        x = factor.solve(b)
        assert np.linalg.norm(shifted(lap, shift) @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_dense_and_lanczos_agree_on_hub_laplacian(self):
        lap = hub_laplacian()
        assert lap.shape[0] > DENSE_EIGEN_CUTOFF
        m = 3
        spectrum = np.linalg.eigvalsh(lap.toarray())
        assert spectrum[m] > 1.01 * spectrum[m - 1]
        dense_values, dense_vectors = on_route("dense", lap, m)
        for seed in (0, 1):
            values, vectors = on_route("lanczos", lap, m, seed=seed)
            assert np.allclose(values, dense_values, rtol=0.0, atol=1e-10)
            assert subspace_overlap(dense_vectors, vectors) >= 1.0 - 1e-8

    @pytest.mark.parametrize("fail_on", [1, 2])
    def test_zero_pivot_in_either_call_is_a_convergence_error(self, tmp_path, monkeypatch,
                                                              capsys, fail_on):
        recording_splu(monkeypatch, fail_on)
        with pytest.raises(ConvergenceError, match="shifted by"):
            on_route("lanczos", hub_laplacian(), 5)
        features = tmp_path / "hubs.csv"
        features.write_text("".join(",".join(map(repr, row)) + "\n"
                                    for row in hub_features().tolist()))
        recording_splu(monkeypatch, fail_on)
        code = cli.main(["eigen-dump", "--input", str(features), "--k", "10", "--m", "5"])
        assert code == 2
        assert "shifted by" in capsys.readouterr().err

    @pytest.mark.parametrize("dense_rows", ["none", "all"])
    def test_graph_without_dense_rows_makes_the_direct_call(self, monkeypatch, dense_rows):
        # A blob Laplacian has no dense row; in a full 200 x 200 matrix every
        # row is dense, and there is no hub-free block to order.
        if dense_rows == "none":
            lap = disconnected_laplacian()
        else:
            lap = sym_csr(random_psd(200, np.random.default_rng(16)))
        shift = 1e-5 * float(_row_sums(lap, np.abs(lap.data)).max())
        calls = recording_splu(monkeypatch)
        factor = spd_factor(lap, shift)
        assert [spec for spec, _ in calls] == ["MMD_AT_PLUS_A"]
        monkeypatch.undo()
        direct = spla.splu(shifted(lap, shift), permc_spec="MMD_AT_PLUS_A", **SPD_OPTIONS)
        b = np.random.default_rng(4).standard_normal((lap.shape[0], 3))
        for column in b.T:
            assert np.array_equal(factor.solve(column), direct.solve(column))
