"""Eavesdropper attack states, their entropies, and information bounds.

The collective attack injects light from one arm of an entangled-pair source
into the channel toward Bob and holds the other arm (the idler) in a quantum
memory. Conditioned on Bob's bit k, the eavesdropper's per-mode state is a
zero-mean three-mode Gaussian state over (tapped Alice-to-Bob light, idler,
amplified Bob-to-Alice return); its covariance is built here, and the
entropies of its symplectic spectra bound the Holevo information per use.

Covariances use the Wigner convention in which the vacuum diagonal is 1/4,
quadratures ordered (x1, p1, x2, p2, x3, p3). A thermal mode with mean photon
number N has diagonal (2N+1)/4, so a state with symplectic eigenvalues nu_j
has entropy sum_j g(2 nu_j - 1/2), in bits, with g(N) the thermal entropy
(N+1) log2(N+1) - N log2 N.

The covariance is six terms (a, e, b, c_ia, c_ab, c_ib), each joining two
modes, or one mode with itself, by a 2x2 block I or Z = diag(1, -1); so x
never meets p (the x-p cross blocks are zero) and the p block is D V_x D,
with V_x the x block and D = diag(1, -1, 1). A covariance is held as that
3x3 x block, a plain array, and it stands for the whole state. Bob encodes
his bit as a phase of 0 or pi on the return light, so the bit-1 state is the
bit-0 state with the return mode's x and p negated: a symplectic map, under
which both conditional states have one symplectic spectrum (Williamson's
theorem). So the bit-1 state is never built; its entropy is the bit-0
state's.

The symplectic eigenvalues are the square roots of the eigenvalues of
V_x V_p. With V_x = L_x L_x^T (Cholesky), V_p = L_p L_p^T with
L_p = D L_x D, and V_x V_p is similar to B B^T with B = L_x^T L_p, so the
nu_j are the singular values of B: no square is taken and no eigenvalue
pairing is needed. Every step of the Cholesky factorization commutes with the
sign flips of D, so D L_x D is the factor of D V_x D bit for bit, and no
second factorization is needed. `symplectic_eigenvalues` takes a stack of
x blocks in one LAPACK batch per step (one Cholesky factor, one SVD); LAPACK
works matrix by matrix, so a part's spectrum is the one-matrix call's bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, require_finite

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


@dataclass(frozen=True)
class SystemParams:
    """Full link budget shared by the rate computations.

    W is the optical bandwidth in Hz, R the modulation rate in bit/s. The
    number of modes per bit M = W/R and the receiver noise per unit gain
    gamma = N_B/G_B are derived properties, not constructor arguments, so
    they follow every change to W, R, N_B or G_B.
    """

    W: float
    R: float
    kappa: float
    eta: float
    kappa_B: float
    G_B: float
    N_B: float
    beta: float

    @property
    def M(self) -> float:
        """Modes per bit, W/R."""
        return self.W / self.R

    @property
    def gamma(self) -> float:
        """Receiver noise per unit gain, N_B/G_B."""
        return self.N_B / self.G_B

    def __post_init__(self) -> None:
        require_finite(self, (f.name for f in fields(self)))
        if self.W <= 0 or self.R <= 0:
            raise ValidationError("W and R must be positive")
        # an R small enough for W/R to overflow would make every M-scaled
        # quantity inf or nan
        if not 1.0 <= self.M < math.inf:
            raise ValidationError(f"M = W/R must be finite and >= 1, got {self.M!r}")
        if not 0.0 < self.kappa < 1.0:
            raise ValidationError(f"kappa must be in (0,1), got {self.kappa!r}")
        if not 0.0 < self.eta <= 1.0:
            raise ValidationError(f"eta must be in (0,1], got {self.eta!r}")
        if not 0.0 <= self.kappa_B < 1.0:
            raise ValidationError(f"kappa_B must be in [0,1), got {self.kappa_B!r}")
        if self.G_B < 1.0:
            raise ValidationError(f"G_B must be >= 1, got {self.G_B!r}")
        if not self.N_B > 0.0:
            raise ValidationError(f"N_B must be > 0, got {self.N_B!r}")
        if not 0.0 < self.beta <= 1.0:
            raise ValidationError(f"beta must be in (0,1], got {self.beta!r}")
        # the return path amplifies with gain G_B*(1 - kappa_B), and a
        # phase-insensitive amplifier adds at least gain - 1 photons of noise
        # (Caves, PRD 26, 1817 (1982)); below that Eve's state is unphysical.
        # The floor is met to 1e-9 of the gain, so that the quantum-limited
        # N_B = 1101 of the defaults passes: 0.71 is stored below 0.71.
        gain = self.G_B * (1.0 - self.kappa_B)
        if self.N_B + 1.0 < gain * (1.0 - 1e-9):
            raise ValidationError(
                f"N_B must be >= G_B*(1-kappa_B) - 1 = {gain - 1.0:.12g}, the amplifier's "
                f"quantum noise floor, got {self.N_B!r}"
            )


def check_brightness(n_s) -> None:
    """Raise ValidationError unless every source brightness is >= 0 (NaN is not)."""
    n_s = np.asarray(n_s)
    ok = n_s >= 0.0
    if not ok.all():
        raise ValidationError(f"source brightness must be >= 0, got {float(n_s[~ok][0])!r}")


def eve_injection_brightness(f_e: float, n_s, kappa: float):
    """Injected brightness N_E = kappa N_S f_E / [(1-kappa)(1-f_E)].

    Eve's light joins Alice's at a beam splitter of transmissivity kappa:
    Bob receives Alice's kappa N_S, as with no Eve, plus (1-kappa) N_E of
    Eve's, kappa N_S / (1-f_E) in all, of which Eve's share is f_E. So Bob's
    flux grows by 1/(1-f_E). The monitor's intruder (monitor._category_rates)
    differs: it replaces a fraction f_E of Bob's light and leaves his flux
    unchanged. At f_E = 1 N_E is infinite, outside this model's domain. n_s
    may be an array.
    """
    if not 0.0 <= f_e < 1.0:
        raise ValidationError(f"injection fraction must be in [0,1), got {f_e!r}")
    check_brightness(n_s)
    if not 0.0 < kappa < 1.0:
        raise ValidationError(f"kappa must be in (0,1), got {kappa!r}")
    return kappa * n_s * f_e / ((1.0 - kappa) * (1.0 - f_e))


def attack_state(params: SystemParams, n_s, f_e: float) -> np.ndarray:
    """The x blocks of the bit-0 covariance V_0 and of the equal-weight
    average over Bob's bit, as one stack [V_0, V_avg] of shape
    (2, *np.shape(n_s), 3, 3) over (tapped, idler, return).

    n_s may be an array. The bit-1 covariance V_1 = F V_0 F, with
    F = diag(1, 1, -1), is not built (see above), and the entries are not
    checked here: `symplectic_eigenvalues` checks them.
    """
    n_s = np.asarray(n_s, dtype=float)
    n_e = eve_injection_brightness(f_e, n_s, params.kappa)
    kap = params.kappa
    gb_loss = params.G_B * (1.0 - params.kappa_B)
    # a brightness too large for floats overflows to inf or nan here;
    # symplectic_eigenvalues rejects such entries, so numpy need not warn of them
    with np.errstate(over="ignore", invalid="ignore"):
        n_ab = (1.0 - kap) * n_s + kap * n_e
        c_ia = 2.0 * np.sqrt(kap * n_e * (n_e + 1.0))
        # signed: goes negative once the injected brightness exceeds the source's
        c_ab = 2.0 * math.sqrt(gb_loss * kap * (1.0 - kap)) * (n_s - n_e)
        c_ib = 2.0 * np.sqrt(gb_loss * (1.0 - kap) * n_e * (n_e + 1.0))
        n_ba = gb_loss * (kap * n_s + (1.0 - kap) * n_e) + params.N_B
        a = 2.0 * n_ab + 1.0
        e = 2.0 * n_e + 1.0
        b = 2.0 * n_ba + 1.0
    # the x blocks of V_0 and of the average, over (tapped, idler, return):
    # bit k flips the signal correlations c_ab and c_ib by (-1)^k, and the
    # average drops them. 0.0 - c_ia is 0.0, not -0.0, without injection.
    entries = np.zeros((2, *n_s.shape, 3, 3))
    entries[..., 0, 0], entries[..., 1, 1], entries[..., 2, 2] = a / 4.0, e / 4.0, b / 4.0
    entries[..., 0, 1] = entries[..., 1, 0] = (0.0 - c_ia) / 4.0
    entries[0, ..., 0, 2] = entries[0, ..., 2, 0] = c_ab / 4.0
    entries[0, ..., 1, 2] = entries[0, ..., 2, 1] = c_ib / 4.0
    return entries


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


def holevo_bound(params: SystemParams, n_s, f_e: float):
    """Upper bound on the eavesdropper's Holevo information, bits per use.

    Per-mode entropies are scaled by M through tensor-product additivity and
    the result is clamped to [0, 1]; one bit per use is all a binary-encoded
    channel can leak. n_s may be an array: the result then has its shape,
    each element equal bit for bit to the scalar call. At f_e = 1 the bound
    is its f_e -> 1 limit, 1 for a lit source and 0 for a dark one.
    """
    if f_e == 1.0:
        check_brightness(n_s)
        return scalar_or_array(np.where(np.asarray(n_s) > 0.0, 1.0, 0.0))
    nu_k0, nu_uncond = symplectic_eigenvalues(attack_state(params, n_s, f_e))
    s_uncond = von_neumann_entropy(nu_uncond)
    # bit 1's state has V_0's spectrum, but its entropy is still a call of
    # its own: the benchmark's tracer counts three per bound
    s_cond = 0.5 * (von_neumann_entropy(nu_k0) + von_neumann_entropy(nu_k0))
    chi = params.M * (s_uncond - s_cond)
    # the floor hides chi down to -6.4e-7 bits per use (default system, f_e = 0,
    # negative on 127 of 4000 n_s in [1e-6, 1]): the spectra's float error,
    # magnified by the difference of two ~15-bit entropies (ROADMAP item 2)
    return scalar_or_array(np.minimum(np.maximum(chi, 0.0), 1.0))


def chernoff_ber_passive(params: SystemParams, n_s):
    """Quantum Chernoff bound on a passive eavesdropper's bit-error rate.

    n_s may be an array: the result then has its shape, each element equal
    bit for bit to the scalar call (math.exp is taken element by element).
    """
    check_brightness(n_s)
    n_s = np.asarray(n_s, dtype=float)
    kap = params.kappa
    # a brightness too large for floats overflows to an infinite exponent,
    # whose exp is the right limit, 0
    with np.errstate(over="ignore"):
        exponent = 4.0 * params.M * kap * (1.0 - kap) * (1.0 - params.kappa_B) * n_s * n_s
    return 0.5 * elementwise(math.exp, -exponent)
