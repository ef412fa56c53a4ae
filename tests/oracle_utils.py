"""Shared oracle values and generators for the test suite.

High-precision reference numbers were frozen from a 60-digit mpmath run;
tests compare the package's own routines against these constants so the
suite does not depend on mpmath being importable at collection time.
The brute-force symplectic solvers below *do* use mpmath and are kept
deliberately independent of the package's Cholesky-and-SVD route; they read
the state a 3x3 x block stands for through its p block D V_x D, one of them
on the whole 6x6 covariance. `holevo_chi` builds the attack state itself, in
mpmath from the float parameters, so no float rounding of the package's
enters it. Every mpmath oracle here works at its own precision under
`mp.workdps` and leaves mpmath's process-wide precision as it found it.
The thermal entropy g(N) is written here with `math.log2`, one float at a
time, apart from the package's array form.

It also holds the inputs that the key-rate and CLI tests share: the M = 2e4
system the frozen values are computed at, the fast monitor configuration,
the repository root, and the benchmark's workload definitions.
"""

from __future__ import annotations

import math
import runpy
from pathlib import Path

import numpy as np

from flqkd.eve import SystemParams

ROOT = Path(__file__).resolve().parents[1]

# a monitor-sim run of two 1.5 s trials at one fraction
FAST_MONITOR = {
    "system": {"kappa": 0.5},
    "monitor": {
        "pair_rate": 2e5,
        "ase_rate_at_source": 2e5,
        "duration": 1.5,
        "trials": 2,
        "sweep_f_e": [0.5],
        "rng_seed": 4242,
    },
}


def bench_workloads() -> dict:
    """The globals of perfbench/workloads.py, run from its source: the
    benchmark's trial length, operating points and strata. The file is only
    read; no bytecode is written beside it."""
    return runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))


# Q(x) = erfc(x/sqrt(2))/2 from x = 0 into the far tail, where Q is
# below 1e-15.
Q_ORACLE = {
    0.0: 0.5,
    0.05: 0.48006119416162754,
    0.1: 0.46017216272297102,
    0.25: 0.40129367431707628,
    0.5: 0.3085375387259869,
    0.75: 0.2266273523768682,
    1.0: 0.15865525393145705,
    1.25: 0.10564977366685526,
    1.5: 0.066807201268858066,
    1.75: 0.04005915686381709,
    2.0: 0.022750131948179207,
    2.5: 0.0062096653257761352,
    3.0: 0.0013498980316300945,
    3.5: 0.00023262907903552504,
    4.0: 3.1671241833119921e-5,
    4.5: 3.3976731247300604e-6,
    5.0: 2.8665157187919391e-7,
    5.5: 1.8989562465887719e-8,
    6.0: 9.8658764503769814e-10,
    6.5: 4.0160005838591178e-11,
    7.0: 1.279812543885835e-12,
    7.5: 3.1908916729108962e-14,
    8.0: 6.2209605742717841e-16,
}

# The key-rate optima at configs/default.json with n_sigma = 1 and 5 (f_E =
# 0.0007 + n_sigma * 0.002, 0.0027 and 0.0107 as floats), from a 50-digit
# mpmath model fed the float parameters exactly: Q by erfc, chi from
# sqrt(eig(V_x V_p)) of both covariances, and a golden-section search on SKE
# over N_S in [0.004, 0.012] to 1e-22.
OPT_N_S_AT_N_SIGMA_1 = 0.0082437464927250538
OPT_SKE_AT_N_SIGMA_1 = 0.55767829528622481
OPT_N_S_AT_N_SIGMA_5 = 0.0056450769027949543
OPT_SKE_AT_N_SIGMA_5 = 0.32865631913068673

ERFC_ORACLE = {
    0.0: 1.0,
    0.01: 0.98871658444415038,
    0.1: 0.8875370839817151,
    0.5: 0.47950012218695346,
    1.0: 0.15729920705028513,
    1.4: 0.047714880237351204,
    1.5: 0.033894853524689273,
    1.6: 0.023651616655355984,
    2.0: 0.0046777349810472658,
    3.0: 2.2090496998585441e-5,
    4.0: 1.5417257900280019e-8,
    5.0: 1.5374597944280349e-12,
    5.7: 7.5662116218624858e-16,
    8.0: 1.1224297172982927e-29,
    10.0: 2.0884875837625448e-45,
}

# configs/default.json's system read at M = 2e4 (W = 2.0 THz, not 2.2);
# the 200-photons-per-bit anchor below assumes it
PARAMS = SystemParams(
    W=2.0e12,
    R=1e8,
    kappa=0.1,
    eta=0.9,
    kappa_B=0.71,
    G_B=3.8e3,
    N_B=9.7e3,
    beta=0.94,
)

# Alice's BER at N_S = 0.01 (200 photons per bit).
BER_AT_200PPB = 0.021570136673656913

G_HALF = 1.3774437510817343          # thermal entropy at N = 0.5
NE_00027 = 3.0081219292088639e-6     # Eve brightness, f_E = 0.0027, N_S = 0.01
QCB_EXAMPLE = 0.40577876545976337    # exp(-0.2088)/2
SH_011 = 0.500084041835472           # 1 - h2(0.11)
PIRANDOLA_01 = 0.15200309344504998   # -log2(1 - 0.1)
DB_AT_055 = 5.585102630465462        # 10*log10(0.55 / PIRANDOLA_01)
TMS_C_HALF = 0.43301270189221932     # 2*sqrt(N(N+1))/4 at N = 0.5


def thermal_entropy(n):
    """g(N) = (N+1) log2(N+1) - N log2 N, the entropy in bits of a thermal
    mode of mean photon number N >= 0, one float at a time; g(0) = 0."""
    if n == 0:
        return 0.0
    return (n + 1) * math.log2(n + 1) - n * math.log2(n)


_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA6 = np.kron(np.eye(3), _OMEGA_BLOCK)
# D: the p block of a covariance in flqkd.eve is D V_x D
P_SIGNS = np.array([1.0, -1.0, 1.0])
# F: a phase of pi on the return mode, the third, negates its x and p; the
# bit-1 attack state, which flqkd.eve never builds, is F V_0 F
F = np.diag([1.0, 1.0, -1.0])


def full_covariance(v_x):
    """The 6x6 covariance, quadratures (x1, p1, x2, p2, x3, p3), of the state
    held as the x block v_x (or a stack of them): its p block is D v_x D and
    its x-p cross blocks are zero."""
    v_x = np.asarray(v_x, dtype=float)
    v = np.zeros((*v_x.shape[:-2], 6, 6))
    v[..., ::2, ::2] = v_x
    v[..., 1::2, 1::2] = P_SIGNS[:, None] * v_x * P_SIGNS
    return v


def random_physical_covariance(rng, pure=False):
    """Random 3-mode x block V_x = S N S^T with known symplectic spectrum.

    S = expm(D K), for a random antisymmetric 3x3 K and D = diag(1, -1, 1),
    satisfies S^T D S = D, so S^-T = D S D: the symplectic map S (+) S^-T on
    the (x, p) blocks joins no x to a p, the p block of S (N (+) N) S^T is
    D V_x D, and the spectrum equals the thermal diagonal N by construction.
    Returns (V_x, nus_desc).
    """
    import mpmath as mp

    k = rng.uniform(-0.5, 0.5, (3, 3))
    ns = np.zeros(3) if pure else rng.uniform(0.0, 2.0, 3)
    nus = (2.0 * ns + 1.0) / 4.0
    with mp.workdps(40):
        s = mp.expm(mp.diag(P_SIGNS.tolist()) * mp.matrix((k - k.T).tolist()))
        v = s * mp.diag([mp.mpf(v) for v in nus]) * s.T
        vf = np.array([[float(v[i, j]) for j in range(3)] for i in range(3)])
    vf = 0.5 * (vf + vf.T)
    return vf, np.sort(nus)[::-1]


def brute_force_spectrum(v_x, dps=40):
    """Symplectic eigenvalues of the state held as the x block v_x, via
    mpmath's QR eigensolver on Omega V of its 6x6 covariance.

    Independent of the package route (the Cholesky factor of the x block
    and an SVD, in double precision).
    """
    import mpmath as mp

    with mp.workdps(dps):
        m = mp.matrix(OMEGA6.tolist()) * mp.matrix(full_covariance(v_x).tolist())
        eigs, _ = mp.eig(m)
        nus = sorted((abs(e) for e in eigs if mp.im(e) > 0), reverse=True)
    assert len(nus) == 3
    return np.array([float(x) for x in nus])


def block_spectrum(v_x, dps=50):
    """Symplectic eigenvalues of the state held as the x block v_x, a float
    array or an mpmath matrix, as the square roots of the eigenvalues of
    V_x V_p, with V_x = v_x and its p block V_p = D v_x D, in mpmath at dps
    digits; descending, as mpf values. mpmath's arithmetic reads an mpf
    operand exactly, so these keep their digits at any later precision."""
    import mpmath as mp

    with mp.workdps(dps):
        v_x = mp.matrix(v_x.tolist())
        d = mp.diag(P_SIGNS.tolist())
        eigs = mp.eig(v_x * (d * v_x * d), left=False, right=False)
        return sorted((mp.sqrt(mp.re(e)) for e in eigs), reverse=True)


def spectrum_entropy(nus, dps=50):
    """sum_j g(2 nu_j - 1/2), the entropy in bits of the state with the
    symplectic spectrum nus, in mpmath at dps digits, as an mpf; an
    eigenvalue at or below the vacuum's 1/4 adds 0."""
    import mpmath as mp

    with mp.workdps(dps):
        total = mp.mpf(0)
        for nu in nus:
            n = 2 * nu - mp.mpf(0.5)
            if n > 0:
                total += (n + 1) * mp.log(n + 1, 2) - n * mp.log(n, 2)
        return total


def holevo_chi(params, n_s, f_e, dps=60):
    """The Holevo bound M [S(V_avg) - S(V_0)] at one brightness, unclamped,
    with the six terms of flqkd.eve.attack_state recomputed in mpmath at dps
    digits from the float parameters (M = W/R exactly), and each spectrum
    from block_spectrum."""
    import mpmath as mp

    with mp.workdps(dps):
        kap, n_s, f_e = mp.mpf(params.kappa), mp.mpf(n_s), mp.mpf(f_e)
        gb_loss = mp.mpf(params.G_B) * (1 - mp.mpf(params.kappa_B))
        n_e = kap * n_s * f_e / ((1 - kap) * (1 - f_e))
        a = 2 * ((1 - kap) * n_s + kap * n_e) + 1
        e = 2 * n_e + 1
        b = 2 * (gb_loss * (kap * n_s + (1 - kap) * n_e) + mp.mpf(params.N_B)) + 1
        c_ia = 2 * mp.sqrt(kap * n_e * (n_e + 1))
        c_ab = 2 * mp.sqrt(gb_loss * kap * (1 - kap)) * (n_s - n_e)
        c_ib = 2 * mp.sqrt(gb_loss * (1 - kap) * n_e * (n_e + 1))

        def entropy(c_ab, c_ib):
            v_x = mp.matrix([[a, -c_ia, c_ab], [-c_ia, e, c_ib], [c_ab, c_ib, b]]) / 4
            return spectrum_entropy(block_spectrum(v_x, dps), dps)

        m = mp.mpf(params.W) / mp.mpf(params.R)
        # the average over Bob's bit drops the signal correlations c_ab and c_ib
        return float(m * (entropy(0, 0) - entropy(c_ab, c_ib)))
