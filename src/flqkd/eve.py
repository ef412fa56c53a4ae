"""Eavesdropper attack states and information bounds.

The collective attack injects light from one arm of an entangled-pair source
into the channel toward Bob and holds the other arm (the idler) in a quantum
memory. Conditioned on Bob's bit k, the eavesdropper's per-mode state is a
zero-mean three-mode Gaussian state over (tapped Alice-to-Bob light, idler,
amplified Bob-to-Alice return); its covariance is built here and fed to the
entropy routines to bound the Holevo information per channel use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .gaussian import Covariance3Mode, elementwise, scalar_or_array, von_neumann_entropy


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


@dataclass(frozen=True)
class AttackState:
    """The eavesdropper's covariances given Bob's bit 0 or 1, and their
    equal-weight average. For an array of brightnesses each is a stack over
    it.
    """

    cov_k0: Covariance3Mode
    cov_k1: Covariance3Mode
    cov_uncond: Covariance3Mode


def check_brightness(n_s) -> None:
    """Raise DomainError unless every source brightness is >= 0 (NaN is not)."""
    n_s = np.asarray(n_s)
    ok = n_s >= 0.0
    if not ok.all():
        raise DomainError(f"source brightness must be >= 0, got {float(n_s[~ok][0])!r}")


def eve_injection_brightness(f_e: float, n_s, kappa: float):
    """Injected brightness N_E = kappa N_S f_E / [(1-kappa)(1-f_E)].

    The injection replaces a fraction f_E of the light reaching Bob while the
    total flux is unchanged, which fixes N_E as above. At f_E = 1 (total
    replacement) N_E is infinite, outside this model's domain. n_s may be
    an array.
    """
    if not 0.0 <= f_e < 1.0:
        raise DomainError(f"injection fraction must be in [0,1), got {f_e!r}")
    check_brightness(n_s)
    if not 0.0 < kappa < 1.0:
        raise DomainError(f"kappa must be in (0,1), got {kappa!r}")
    return kappa * n_s * f_e / ((1.0 - kappa) * (1.0 - f_e))


def _parse_layout(rows):
    # positions, term indices and bit-0 signs of the nonzero entries
    terms = ("a", "e", "b", "c_ia", "c_ab", "c_ib")
    nonzero = [(i, j, cell) for i, row in enumerate(rows) for j, cell in enumerate(row) if cell]
    sign0 = np.array([-1.0 if cell[0] == "-" else 1.0 for _, _, cell in nonzero])
    which = np.array([terms.index(cell.lstrip("-")) for _, _, cell in nonzero])
    # bit 1 flips the signal correlations c_ab and c_ib: (-1)^k
    flip = np.where(np.isin(which, [terms.index("c_ab"), terms.index("c_ib")]), -1.0, 1.0)
    return (
        np.array([i for i, _, _ in nonzero]),
        np.array([j for _, j, _ in nonzero]),
        which,
        np.stack([sign0, sign0 * flip]),
    )


# 4 V_0, with quadratures (x1, p1, x2, p2, x3, p3) of (tapped, idler, return)
_ROWS, _COLS, _TERMS, _SIGNS = _parse_layout(
    (
        ("a", "", "-c_ia", "", "c_ab", ""),
        ("", "a", "", "c_ia", "", "c_ab"),
        ("-c_ia", "", "e", "", "c_ib", ""),
        ("", "c_ia", "", "e", "", "-c_ib"),
        ("c_ab", "", "c_ib", "", "b", ""),
        ("", "c_ab", "", "-c_ib", "", "b"),
    )
)


def attack_state(params: SystemParams, n_s, f_e: float) -> AttackState:
    """Assemble both conditional covariances and their equal-weight average.

    n_s may be an array; the three covariances are validated as one stack.
    """
    n_s = np.asarray(n_s, dtype=float)
    n_e = eve_injection_brightness(f_e, n_s, params.kappa)
    kap = params.kappa
    gb_loss = params.G_B * (1.0 - params.kappa_B)
    # a brightness too large for floats overflows to inf or nan here;
    # Covariance3Mode rejects such entries, so numpy need not warn of them
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
        # shape (..., 6): the brightness axes first, as in the entries
        terms = np.array([a, e, b, c_ia, c_ab, c_ib]).transpose((*range(1, n_s.ndim + 1), 0)) / 4.0
        # the stack (V_0, V_1, (V_0 + V_1)/2)
        entries = np.zeros((3,) + n_s.shape + (6, 6))
        signs = _SIGNS.reshape((2,) + (1,) * n_s.ndim + (-1,))
        entries[:2, ..., _ROWS, _COLS] = terms[..., _TERMS] * signs
        entries[2] = 0.5 * (entries[0] + entries[1])
    return AttackState(*Covariance3Mode(entries).unstack())


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
    state = attack_state(params, n_s, f_e)
    s_uncond = von_neumann_entropy(state.cov_uncond)
    s_cond = 0.5 * (von_neumann_entropy(state.cov_k0) + von_neumann_entropy(state.cov_k1))
    chi = params.M * (s_uncond - s_cond)
    # floor absorbs -1e-12-scale noise on the uncond >= cond inequality
    return scalar_or_array(np.minimum(np.maximum(chi, 0.0), 1.0))


def chernoff_ber_passive(params: SystemParams, n_s):
    """Quantum Chernoff bound on a passive eavesdropper's bit-error rate.

    n_s may be an array: the result then has its shape, each element equal
    bit for bit to the scalar call (math.exp is taken element by element).
    """
    check_brightness(n_s)
    n_s = np.asarray(n_s, dtype=float)
    kap = params.kappa
    exponent = 4.0 * params.M * kap * (1.0 - kap) * (1.0 - params.kappa_B) * n_s * n_s
    return 0.5 * elementwise(math.exp, -exponent)
