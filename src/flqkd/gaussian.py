"""Symplectic spectra and von Neumann entropies of three-mode Gaussian states.

Covariance matrices use the Wigner convention in which the vacuum diagonal is
1/4, quadratures ordered (x1, p1, x2, p2, x3, p3). A thermal mode with mean
photon number N has diagonal (2N+1)/4, so the entropy of a state with
symplectic eigenvalues nu_j is sum_j g(2 nu_j - 1/2) with g the usual
bosonic entropy function in bits.

Every state the key-rate model builds has zero x-p cross blocks, so a
covariance is its x block V_x = V[::2, ::2] and its p block V_p = V[1::2, 1::2],
and the symplectic eigenvalues are the square roots of the eigenvalues of
V_x V_p. With V_x = L_x L_x^T and V_p = L_p L_p^T (Cholesky), V_x V_p is
similar to B B^T with B = L_x^T L_p, so the nu_j are the singular values of
B: no square is taken and no eigenvalue pairing is needed. A covariance
with a nonzero x-p entry is refused.

A validated covariance carries its spectrum: `Covariance3Mode` takes the
symplectic eigenvalues of its whole stack in one LAPACK batch per step (two
Cholesky factors, one SVD) when it is built, and `unstack` hands each part
its own read-only slice, so the entropy routines read spectra and make no
LAPACK call of their own. LAPACK works matrix by matrix, so a part's
spectrum is the one-matrix call's bit for bit. `pi_phase_on_mode_3`
derives a covariance from a validated one by a phase of pi on its third
mode, a symplectic map, and hands it the same spectrum, so the derived
covariance costs no validation and no LAPACK call at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

VACUUM_EIGENVALUE = 0.25
# tolerance below the vacuum floor before a state is declared unphysical
PHYSICALITY_TOL = 1e-9
_SYMMETRY_RTOL = 1e-12


# a phase of pi on the third mode: both of its quadratures change sign
_MODE_3_FLIP = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])


def scalar_or_array(values):
    """A 0-d result as a Python float; any other shape as the array itself."""
    return float(values) if np.ndim(values) == 0 else values


def elementwise(fun, values):
    """A scalar function mapped over an array; a 0-d input gives a float."""
    values = np.asarray(values)
    out = [fun(v) for v in values.ravel().tolist()]
    return out[0] if values.ndim == 0 else np.array(out).reshape(values.shape)


@dataclass(frozen=True, eq=False)
class Covariance3Mode:
    """Validated 6x6 Wigner covariance matrix, or a stack of them, with its
    symplectic spectrum.

    Parameters
    ----------
    entries : array_like
        Real array of shape (..., 6, 6); each matrix symmetric to within
        1e-12 relative, with zero x-p cross blocks, and positive definite.
        Stored read-only.

    Attributes
    ----------
    spectrum : np.ndarray
        The symplectic eigenvalues of each matrix, shape (..., 3),
        descending and read-only: the singular values of L_x^T L_p, where
        L_x and L_p are the Cholesky factors of the x block V[..., ::2, ::2]
        and the p block V[..., 1::2, 1::2], each taken in one
        `np.linalg.cholesky` call over the stack and followed by one
        `np.linalg.svd` call. It is not checked against the vacuum floor:
        `symplectic_eigenvalues` does that when a part's spectrum is read.

    Raises
    ------
    ValidationError
        If the shape is not (..., 6, 6), an entry is not finite, a matrix is
        not symmetric, has a nonzero entry joining an x to a p quadrature,
        or is not positive definite (an x or p block that has no Cholesky
        factor).

    Two covariances compare equal only if they are the same object, and hash
    by identity: their arrays give no single truth value.
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim < 2 or arr.shape[-2:] != (6, 6):
            raise ValidationError(f"covariance must be 6x6, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("covariance has non-finite entries")
        scale = np.maximum(np.abs(arr).max(axis=(-2, -1)), 1.0)
        if (np.abs(arr - arr.swapaxes(-1, -2)).max(axis=(-2, -1)) > _SYMMETRY_RTOL * scale).any():
            raise ValidationError("covariance is not symmetric within 1e-12")
        if arr[..., ::2, 1::2].any() or arr[..., 1::2, ::2].any():
            raise ValidationError("covariance correlates x with p")
        # V is positive definite exactly when both blocks are; each factor
        # reads its block's lower triangle, which the symmetry check bounds
        try:
            l_x = np.linalg.cholesky(arr[..., ::2, ::2])
            l_p = np.linalg.cholesky(arr[..., 1::2, 1::2])
        except np.linalg.LinAlgError:
            raise ValidationError("covariance is not positive definite") from None
        spectrum = np.linalg.svd(l_x.swapaxes(-1, -2) @ l_p, compute_uv=False)
        arr.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "spectrum", spectrum)

    def unstack(self) -> tuple[Covariance3Mode, ...]:
        """The covariances along the leading axis, validated with the stack;
        each part's entries and spectrum are read-only slices of the stack's."""
        if self.entries.ndim < 3:
            raise ValidationError("one 6x6 covariance has no leading axis to split")
        return tuple(map(_validated, self.entries, self.spectrum))

    def pi_phase_on_mode_3(self) -> Covariance3Mode:
        """This covariance after a phase of pi on its third mode: S V S^T with
        S = diag(1, 1, 1, 1, -1, -1).

        S is orthogonal and symplectic, and its entries are exact sign
        flips, so S V S^T is exactly as symmetric and as positive definite
        as V, joins x to p nowhere, and its blocks F V_x F and F V_p F, with
        F = diag(1, 1, -1), have a product similar to V_x V_p: the result
        shares this covariance's spectrum, the same read-only array, and no
        check is skipped. Entries that change sign are negated exactly, and
        a zero stays 0.0, not -0.0.
        """
        entries = _MODE_3_FLIP[:, None] * self.entries * _MODE_3_FLIP + 0.0
        entries.setflags(write=False)
        return _validated(entries, self.spectrum)


def _validated(entries: np.ndarray, spectrum: np.ndarray) -> Covariance3Mode:
    # a covariance whose read-only entries and spectrum come from one that
    # was validated, built without validating them again
    cov = object.__new__(Covariance3Mode)
    object.__setattr__(cov, "entries", entries)
    object.__setattr__(cov, "spectrum", spectrum)
    return cov


def symplectic_eigenvalues(cov) -> np.ndarray:
    """Symplectic eigenvalues of a validated covariance, shape (3,), or of
    each matrix in a stack, shape (..., 3); descending and read-only.

    They are the spectrum the covariance took when it was validated: a raw
    array is validated here, in one LAPACK batch per step, and a
    `Covariance3Mode` costs no LAPACK call. The vacuum floor is checked
    here, over the spectrum read, so a part of a stack is refused for its
    own eigenvalues and names its own minimum.

    Raises
    ------
    ValidationError
        If a raw array is not a stack of symmetric positive definite 6x6
        matrices without x-p correlations (checked when it is validated
        here), or if any eigenvalue read falls below 1/4 - 1e-9.
    """
    if not isinstance(cov, Covariance3Mode):
        cov = Covariance3Mode(cov)
    nus = cov.spectrum
    if nus.min(initial=np.inf) < VACUUM_EIGENVALUE - PHYSICALITY_TOL:
        raise ValidationError(f"symplectic eigenvalue below vacuum floor: {float(nus.min())!r}")
    return nus


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
