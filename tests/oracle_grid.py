"""Brute-force grid oracle for the reduced weighted-L1 objective.

Evaluates the objective at every point of a uniform grid over the coefficient
box. The quadratic part is expanded through the numerically computed Gram
matrix (no orthonormality assumed), which lets the full grid be evaluated
vectorized; integrity against the direct objective is spot-checked on random
grid points.
"""

import numpy as np

from graphssl.solver import objective


def grid_minimum(basis, y, lam, radius=2.0, step=1e-3, check_points=50, rng=None):
    y = np.asarray(y, dtype=np.float64)
    v = basis.vectors
    w = lam * basis.sqrt_eigenvalues
    gram = v.T @ v
    c = v.T @ y
    const = 0.5 * float(y @ y)
    axis = np.arange(-radius, radius + step / 2, step)

    if basis.m == 1:
        vals = 0.5 * gram[0, 0] * axis**2 - c[0] * axis + const + w[0] * np.abs(axis)
        best = int(np.argmin(vals))
        best_alpha = np.array([axis[best]])
        best_val = float(vals[best])
    elif basis.m == 2:
        best_val = np.inf
        best_alpha = None
        for chunk in np.array_split(axis, 16):
            a1, a2 = np.meshgrid(chunk, axis, indexing="ij")
            vals = (
                0.5 * (gram[0, 0] * a1**2 + 2.0 * gram[0, 1] * a1 * a2 + gram[1, 1] * a2**2)
                - (c[0] * a1 + c[1] * a2)
                + const
                + w[0] * np.abs(a1)
                + w[1] * np.abs(a2)
            )
            flat = int(np.argmin(vals))
            if vals.flat[flat] < best_val:
                best_val = float(vals.flat[flat])
                i, j = np.unravel_index(flat, vals.shape)
                best_alpha = np.array([a1[i, j], a2[i, j]])
    else:
        raise ValueError("grid oracle supports only one or two coefficients")

    if check_points:
        rng = rng or np.random.default_rng(0)
        for _ in range(check_points):
            alpha = rng.choice(axis, size=basis.m)
            direct = objective(basis, y, lam, alpha)
            gram_val = (
                0.5 * float(alpha @ gram @ alpha) - float(c @ alpha) + const
                + float(w @ np.abs(alpha))
            )
            assert abs(direct - gram_val) <= 1e-9 * max(1.0, abs(direct))
    return best_val, best_alpha


def random_instance(rng, n_max=10, m_max=2):
    """Random small basis/target pair with the solution inside the grid box."""
    n = int(rng.integers(3, n_max + 1))
    m = int(rng.integers(1, min(m_max, n) + 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vectors = q[:, :m]
    eigenvalues = np.sort(rng.uniform(0.0, 2.0, size=m))
    from graphssl.spectral import SpectralBasis

    basis = SpectralBasis(vectors=vectors, eigenvalues=eigenvalues)
    y = rng.standard_normal(n)
    y *= rng.uniform(0.2, 1.5) / max(np.linalg.norm(y), 1e-9)
    lam = float(rng.uniform(0.0, 1.0))
    return basis, y, lam
