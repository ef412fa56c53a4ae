"""Symplectic spectra and von Neumann entropies of three-mode Gaussian states.

Covariance matrices use the Wigner convention in which the vacuum diagonal is
1/4, quadratures ordered (x1, p1, x2, p2, x3, p3). A thermal mode with mean
photon number N has diagonal (2N+1)/4, so the entropy of a state with
symplectic eigenvalues nu_j is sum_j g(2 nu_j - 1/2), with
g(N) = (N+1) log2(N+1) - N log2 N the entropy of a thermal mode in bits.

Every state the key-rate model builds joins its modes, (tapped, idler,
return), by 2x2 blocks I or Z = diag(1, -1), so its x-p cross blocks are zero
and its p block is D V_x D, with V_x its x block and D = diag(1, -1, 1). A
covariance here is that 3x3 x block, a plain array, and it stands for the
whole state. The symplectic eigenvalues are the square roots of the
eigenvalues of V_x V_p. With V_x = L_x L_x^T (Cholesky), V_p = L_p L_p^T with
L_p = D L_x D, and V_x V_p is similar to B B^T with B = L_x^T L_p, so the
nu_j are the singular values of B: no square is taken and no eigenvalue
pairing is needed. Every step of the Cholesky factorization commutes with the
sign flips of D, so D L_x D is the factor of D V_x D bit for bit, and no
second factorization is needed.

`symplectic_eigenvalues` takes a stack of x blocks in one LAPACK batch per
step (one Cholesky factor, one SVD); LAPACK works matrix by matrix, so a
part's spectrum is the one-matrix call's bit for bit. Nothing is cached: a
spectrum is an array, and `von_neumann_entropy` reads it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

VACUUM_EIGENVALUE = 0.25
# tolerance below the vacuum floor before a state is declared unphysical
PHYSICALITY_TOL = 1e-9
_SYMMETRY_RTOL = 1e-12


# D: the p block of a covariance is D V_x D
_P_SIGNS = np.array([1.0, -1.0, 1.0])


def scalar_or_array(values):
    """A 0-d result as a Python float; any other shape as the array itself."""
    return float(values) if np.ndim(values) == 0 else values


def elementwise(fun, values):
    """A scalar function mapped over an array; a 0-d input gives a float."""
    values = np.asarray(values)
    out = [fun(v) for v in values.ravel().tolist()]
    return out[0] if values.ndim == 0 else np.array(out).reshape(values.shape)


def symplectic_eigenvalues(v_x) -> np.ndarray:
    """Symplectic eigenvalues of a three-mode state with zero x-p cross
    blocks, given by its x block, shape (3,), or of each matrix in a stack,
    shape (..., 3); descending.

    Parameters
    ----------
    v_x : array_like
        The x block V_x, a real array of shape (..., 3, 3) over the modes
        (tapped, idler, return); each matrix symmetric to within 1e-12
        relative and positive definite. It stands for the state whose p
        block is D V_x D, D = diag(1, -1, 1).

    The spectrum is the singular values of L_x^T L_p, where L_x is the
    Cholesky factor of V_x, taken in one `np.linalg.cholesky` call over the
    stack, and L_p = D L_x D that of the p block, followed by one
    `np.linalg.svd` call. It is not checked against the vacuum floor:
    `von_neumann_entropy` does that when it reads a spectrum.

    Raises
    ------
    ValidationError
        If the shape is not (..., 3, 3), an entry is not finite, or a matrix
        is not symmetric or not positive definite (it has no Cholesky
        factor, and then neither has its p block).
    """
    arr = np.asarray(v_x, dtype=float)
    if arr.ndim < 2 or arr.shape[-2:] != (3, 3):
        raise ValidationError(f"covariance x block must be 3x3, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValidationError("covariance has non-finite entries")
    scale = np.maximum(np.abs(arr).max(axis=(-2, -1)), 1.0)
    if (np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1)) > _SYMMETRY_RTOL * scale).any():
        raise ValidationError("covariance is not symmetric within 1e-12")
    # the factor reads the lower triangle, which the symmetry check bounds
    try:
        l_x = np.linalg.cholesky(arr)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance is not positive definite") from None
    # the p block's factor, by exact sign flips
    l_p = _P_SIGNS[:, None] * l_x * _P_SIGNS
    return np.linalg.svd(l_x.swapaxes(-1, -2) @ l_p, compute_uv=False)


def _thermal_entropies(n: np.ndarray) -> np.ndarray:
    # g(N) elementwise; N below 1e-12, negative N included, gives 0
    tiny = n < 1e-12
    n = np.maximum(n, 1e-12)
    n1 = n + 1
    g = n1 * np.log2(n1) - n * np.log2(n)
    g[tiny] = 0.0
    return g


def von_neumann_entropy(nus):
    """Entropy in bits of the Gaussian state with the given symplectic
    spectrum, as `symplectic_eigenvalues` returns it.

    One spectrum, shape (3,), gives a float; a stack of shape (..., 3) gives
    an array of shape (...), each element equal to the single-spectrum call.

    Raises
    ------
    ValidationError
        If any eigenvalue falls below 1/4 - 1e-9, naming the least of them.
    """
    nus = np.asarray(nus)
    if nus.min(initial=np.inf) < VACUUM_EIGENVALUE - PHYSICALITY_TOL:
        raise ValidationError(f"symplectic eigenvalue below vacuum floor: {float(nus.min())!r}")
    # eigenvalues within PHYSICALITY_TOL below 1/4 map to N = 0
    g = _thermal_entropies(2.0 * nus - 0.5)
    # summed from the largest eigenvalue down
    return scalar_or_array(g[..., 0] + g[..., 1] + g[..., 2])
