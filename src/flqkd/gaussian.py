"""Symplectic spectra and von Neumann entropies of three-mode Gaussian states.

Covariance matrices use the Wigner convention in which the vacuum diagonal is
1/4, quadratures ordered (x1, p1, x2, p2, x3, p3). A thermal mode with mean
photon number N has diagonal (2N+1)/4, so the entropy of a state with
symplectic eigenvalues nu_j is sum_j g(2 nu_j - 1/2) with g the usual
bosonic entropy function in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

VACUUM_EIGENVALUE = 0.25
# tolerance below the vacuum floor before a state is declared unphysical
PHYSICALITY_TOL = 1e-9
_SYMMETRY_RTOL = 1e-12


# the symplectic form, one 2x2 block [[0, 1], [-1, 0]] per mode; + 0.0 turns
# the -0.0 entries of the product into 0.0
OMEGA = np.kron(np.eye(3), [[0.0, 1.0], [-1.0, 0.0]]) + 0.0
OMEGA.setflags(write=False)


def scalar_or_array(values):
    """A 0-d result as a Python float; any other shape as the array itself."""
    return float(values) if np.ndim(values) == 0 else values


def elementwise(fun, values):
    """A scalar function mapped over an array; a 0-d input gives a float."""
    values = np.asarray(values)
    out = [fun(v) for v in values.ravel().tolist()]
    return out[0] if values.ndim == 0 else np.array(out).reshape(values.shape)


@dataclass(frozen=True)
class Covariance3Mode:
    """Validated 6x6 Wigner covariance matrix, or a stack of them.

    Parameters
    ----------
    entries : array_like
        Real array of shape (..., 6, 6); each matrix symmetric to within
        1e-12 relative and positive definite. Stored read-only.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim < 2 or arr.shape[-2:] != (6, 6):
            raise ValidationError(f"covariance must be 6x6, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("covariance has non-finite entries")
        transposed = arr.swapaxes(-1, -2)
        scale = np.maximum(np.abs(arr).max(axis=(-2, -1)), 1.0)
        if (np.abs(arr - transposed).max(axis=(-2, -1)) > _SYMMETRY_RTOL * scale).any():
            raise ValidationError("covariance is not symmetric within 1e-12")
        try:
            np.linalg.cholesky(0.5 * (arr + transposed))
        except np.linalg.LinAlgError:
            raise ValidationError("covariance is not positive definite") from None
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def unstack(self) -> tuple[Covariance3Mode, ...]:
        """The covariances along the leading axis, validated with the stack."""
        if self.entries.ndim < 3:
            raise ValidationError("one 6x6 covariance has no leading axis to split")
        parts = []
        for view in self.entries:
            part = object.__new__(Covariance3Mode)
            object.__setattr__(part, "entries", view)
            parts.append(part)
        return tuple(parts)


def symplectic_eigenvalues(cov) -> np.ndarray:
    """Symplectic eigenvalues of a validated covariance, shape (3,), or of
    each matrix in a stack, shape (..., 3); descending.

    The eigenvalues of Omega @ cov come in conjugate pairs +/- i nu_j; the
    moduli of the three positive-imaginary-part eigenvalues are the nu_j.

    Raises
    ------
    ValidationError
        If a matrix is not symmetric positive definite 6x6, or if any
        eigenvalue falls below 1/4 - 1e-9.
    """
    if not isinstance(cov, Covariance3Mode):
        cov = Covariance3Mode(cov)
    eig = np.linalg.eigvals(OMEGA @ cov.entries)
    upper = eig.imag > 0
    # PD symmetric input guarantees pure-imaginary +/- pairs. eigvals returns
    # the complex eigenvalues of a real matrix as exact conjugate pairs, so no
    # matrix has more than 3 above the real axis, and the total is 3 per
    # matrix only if every matrix has 3.
    if np.count_nonzero(upper) != eig.size // 2:
        raise ValidationError("eigenvalues of Omega @ cov failed to pair")
    moduli = np.abs(eig[upper]).reshape(eig.shape[:-1] + (3,))
    moduli.sort(axis=-1)
    if moduli.min(initial=np.inf) < VACUUM_EIGENVALUE - PHYSICALITY_TOL:
        raise ValidationError(f"symplectic eigenvalue below vacuum floor: {float(moduli.min())!r}")
    return moduli[..., ::-1]


def _thermal_entropies(n: np.ndarray) -> np.ndarray:
    # g(N) elementwise; N below 1e-12, negative N included, gives 0
    tiny = n < 1e-12
    n = np.maximum(n, 1e-12)
    n1 = n + 1
    g = n1 * np.log2(n1) - n * np.log2(n)
    g[tiny] = 0.0
    return g


def thermal_entropy(n: float) -> float:
    """Entropy g(N) = (N+1) log2(N+1) - N log2 N of a thermal state, in bits.

    g(0) = 0 by continuity; N below 1e-12 is treated as 0 to avoid log(0).
    """
    if n < 0:
        raise ValidationError(f"mean photon number must be >= 0, got {n!r}")
    return float(_thermal_entropies(np.array([n], dtype=float))[0])


def von_neumann_entropy(cov):
    """Entropy in bits of the Gaussian state with the given covariance.

    One 6x6 matrix gives a float; a stack of shape (..., 6, 6) gives an
    array of shape (...), each element equal to the single-matrix call.
    """
    # eigenvalues within PHYSICALITY_TOL below 1/4 map to N = 0
    g = _thermal_entropies(2.0 * symplectic_eigenvalues(cov) - 0.5)
    # summed from the largest eigenvalue down
    return scalar_or_array(g[..., 0] + g[..., 1] + g[..., 2])
