"""Closed-form solve of the spectral weighted-L1 objective, and the quadratic baseline's system.

The reduced objective over reconstruction coefficients a is

    0.5 * ||V_m a - y||^2 + lam * sum_i sqrt(eig_i) * |a_i|

Because the basis columns are orthonormal, 0.5 ||V_m a - y||^2 equals
0.5 ||a - V_m' y||^2 plus a constant. The problem therefore separates per
coordinate, and its exact minimizer is the soft threshold of the projection
V_m' y at lam * sqrt(eig_i); no iteration is needed. The objective and the
optimality residual are kept as independent checks of that solution.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError

# KKT residual, relative to max|y|, that every L1 fit must meet.
KKT_TOL = 1e-8


def soft_threshold(x, t):
    """sign(x) * max(|x| - t, 0), elementwise; the proximal map of t * |.|."""
    x_arr = np.asarray(x, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0):
        raise ValueError("threshold must be nonnegative")
    out = np.sign(x_arr) * np.maximum(np.abs(x_arr) - t_arr, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _weights(basis, lam, ndim):
    """Per-coordinate penalty lam * sqrt(eig), shaped to broadcast over columns."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    w = lam * basis.sqrt_eigenvalues
    return w[:, None] if ndim == 2 else w


def _check_target(basis, y):
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or y.shape[0] != basis.n:
        raise ValueError(
            f"target has shape {y.shape}, expected ({basis.n},) or ({basis.n}, c)"
        )
    return y


def _check_pair(basis, y, alpha):
    y = _check_target(basis, y)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (basis.m,) + y.shape[1:]:
        raise ValueError(
            f"coefficients have shape {alpha.shape}, expected {(basis.m,) + y.shape[1:]}"
        )
    return y, alpha


def l1_coefficients(basis, y, lam):
    """Exact minimizer soft(V_m' y, lam * sqrt(eig)) of the reduced objective.

    y is one target vector or an n x c block whose columns are solved
    independently. Coefficients on zero-eigenvalue directions carry zero
    weight and are never thresholded.
    """
    y = _check_target(basis, y)
    return soft_threshold(basis.project(y), _weights(basis, lam, y.ndim))


def objective(basis, y, lam, alpha):
    """Evaluate the reduced weighted-L1 objective at coefficients alpha.

    For an n x c target block and m x c coefficients the value is the sum of
    the per-column objectives.
    """
    y, alpha = _check_pair(basis, y, alpha)
    w = _weights(basis, lam, alpha.ndim)
    r = basis.vectors @ alpha - y
    return 0.5 * float(np.sum(r * r)) + float(np.sum(w * np.abs(alpha)))


def kkt_residual(basis, y, lam, alpha):
    """Largest violation of the subgradient optimality conditions at alpha.

    With g = V_m' (V_m alpha - y) and per-coordinate weight w_i =
    lam * sqrt(eig_i): coordinates at zero must have |g_i| <= w_i, active
    coordinates must have g_i + w_i * sign(alpha_i) = 0. For a block the
    largest violation over all columns is returned.
    """
    y, alpha = _check_pair(basis, y, alpha)
    w = _weights(basis, lam, alpha.ndim)
    g = basis.vectors.T @ (basis.vectors @ alpha - y)
    violation = np.where(
        alpha == 0.0,
        np.maximum(np.abs(g) - w, 0.0),
        np.abs(g + w * np.sign(alpha)),
    )
    return float(violation.max()) if violation.size else 0.0


def l1_fit(basis, y, lam):
    """The one checked L1 fit: l1_coefficients in Fortran order, and its kkt_residual.

    A residual above KKT_TOL * max|y| raises ConvergenceError.
    """
    alpha = np.asfortranarray(l1_coefficients(basis, y, lam))
    kkt = kkt_residual(basis, y, lam, alpha)
    bound = KKT_TOL * float(np.max(np.abs(y), initial=0.0))
    if not kkt <= bound:  # a NaN residual fails too
        raise ConvergenceError(
            f"KKT residual {kkt:.3e} exceeds {KKT_TOL:g} * max|y| = {bound:.3e}", residual=kkt)
    return alpha, kkt


def l2_system(lap, lam):
    """I + lam L, whose solve minimizes 0.5 ||f - y||^2 + (lam / 2) f' L f."""
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return sp.identity(lap.shape[0], format="csr") + lam * lap

