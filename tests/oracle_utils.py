"""Shared oracle values and generators for the test suite.

High-precision reference numbers were frozen from a 60-digit mpmath run;
tests compare the package's own routines against these constants so the
suite does not depend on mpmath being importable at collection time.
The brute-force symplectic solvers below *do* use mpmath and are kept
deliberately independent of the package's Cholesky-and-SVD route.
"""

from __future__ import annotations

import numpy as np

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

# The key-rate optimum at configs/default.json with n_sigma = 1 (f_E =
# 0.0007 + 0.002), from a 50-digit mpmath model fed the float parameters
# exactly: Q by erfc, chi from sqrt(eig(V_x V_p)) of both covariances, and a
# golden-section search on SKE to 1e-22 in N_S.
OPT_N_S_AT_N_SIGMA_1 = 0.0082437464927250538
OPT_SKE_AT_N_SIGMA_1 = 0.55767829528622481

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

# Alice's BER at N_S = 0.01 (200 photons per bit when W = 2e12, R = 1e8)
# with M = 2e4, kappa = 0.1, eta = 0.9, kappa_B = 0.71, G_B = 3.8e3,
# N_B = 9.7e3.
BER_AT_200PPB = 0.021570136673656913

G_HALF = 1.3774437510817343          # thermal entropy at N = 0.5
NE_00027 = 3.0081219292088639e-6     # Eve brightness, f_E = 0.0027, N_S = 0.01
QCB_EXAMPLE = 0.40577876545976337    # exp(-0.2088)/2
SH_011 = 0.500084041835472           # 1 - h2(0.11)
PIRANDOLA_01 = 0.15200309344504998   # -log2(1 - 0.1)
DB_AT_055 = 5.585102630465462        # 10*log10(0.55 / PIRANDOLA_01)
TMS_C_HALF = 0.43301270189221932     # 2*sqrt(N(N+1))/4 at N = 0.5

_OMEGA_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA6 = np.kron(np.eye(3), _OMEGA_BLOCK)


def random_physical_covariance(rng, pure=False):
    """Random 3-mode covariance V = S D S^T with known symplectic spectrum
    and no x-p correlations.

    S = S_x (+) S_x^-T on the (x, p) blocks, with S_x = expm(A) for a random
    3x3 A, is symplectic and joins no x to a p, so the x block of V is
    S_x D S_x^T, its p block S_x^-T D S_x^-1, and the spectrum of V equals
    the thermal diagonal D by construction.  Returns (V, nus_desc).
    """
    import mpmath as mp

    mp.mp.dps = 40
    a = rng.uniform(-0.5, 0.5, (3, 3))
    s_x = mp.expm(mp.matrix(a.tolist()))
    s_p = mp.expm(-mp.matrix(a.T.tolist()))
    ns = np.zeros(3) if pure else rng.uniform(0.0, 2.0, 3)
    nus = (2.0 * ns + 1.0) / 4.0
    d = mp.diag([mp.mpf(v) for v in nus])
    vf = np.zeros((6, 6))
    for start, s in ((0, s_x), (1, s_p)):
        block = s * d * s.T
        vf[start::2, start::2] = [[float(block[i, j]) for j in range(3)] for i in range(3)]
    vf = 0.5 * (vf + vf.T)
    return vf, np.sort(nus)[::-1]


def random_mixing_covariance(rng):
    """Random 3-mode covariance V = S D S^T whose symplectic S = expm(Omega A),
    for a random symmetric 6x6 A, mixes x with p.  Physical, but outside
    the x-p-decoupled domain of `flqkd.gaussian.Covariance3Mode`.  Returns
    (V, nus_desc).
    """
    import mpmath as mp

    mp.mp.dps = 40
    a = rng.uniform(-0.5, 0.5, (6, 6))
    a = 0.5 * (a + a.T)
    s = mp.expm(mp.matrix(OMEGA6.tolist()) * mp.matrix(a.tolist()))
    nus = (2.0 * rng.uniform(0.0, 2.0, 3) + 1.0) / 4.0
    d = mp.diag([mp.mpf(v) for v in np.repeat(nus, 2)])
    v = s * d * s.T
    vf = np.array([[float(v[i, j]) for j in range(6)] for i in range(6)])
    vf = 0.5 * (vf + vf.T)
    return vf, np.sort(nus)[::-1]


def brute_force_spectrum(entries, dps=40):
    """Symplectic eigenvalues via mpmath's QR eigensolver on Omega V.

    Independent of the package route (Cholesky factors of the x and p
    blocks and an SVD, in double precision).
    """
    import mpmath as mp

    mp.mp.dps = dps
    m = mp.matrix(OMEGA6.tolist()) * mp.matrix(np.asarray(entries).tolist())
    eigs, _ = mp.eig(m)
    nus = sorted((abs(e) for e in eigs if mp.im(e) > 0), reverse=True)
    assert len(nus) == 3
    return np.array([float(x) for x in nus])


def block_spectrum(entries, dps=50):
    """Symplectic eigenvalues of a covariance with zero x-p blocks, as the
    square roots of the eigenvalues of V_x V_p, in mpmath at dps digits;
    descending, as mpf values."""
    import mpmath as mp

    mp.mp.dps = dps
    entries = np.asarray(entries)
    v_x = mp.matrix(entries[::2, ::2].tolist())
    v_p = mp.matrix(entries[1::2, 1::2].tolist())
    eigs = mp.eig(v_x * v_p, left=False, right=False)
    return sorted((mp.sqrt(mp.re(e)) for e in eigs), reverse=True)
