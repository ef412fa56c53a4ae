"""Symplectic spectra of x blocks, and von Neumann entropy."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_utils as ou
from flqkd.errors import ValidationError
from flqkd.eve import symplectic_eigenvalues, von_neumann_entropy


def _diag_cov(n1, n2, n3):
    return np.diag([(2.0 * n + 1.0) / 4.0 for n in (n1, n2, n3)])


def _entropy(v):
    return von_neumann_entropy(symplectic_eigenvalues(v))


def test_vacuum_spectrum_and_entropy():
    nus = symplectic_eigenvalues(_diag_cov(0.0, 0.0, 0.0))
    assert np.allclose(nus, 0.25, rtol=0, atol=1e-14)
    assert von_neumann_entropy(nus) == 0.0


def test_single_thermal_mode_spectrum():
    nus = symplectic_eigenvalues(_diag_cov(1.0, 0.0, 0.0))
    assert np.allclose(nus, [0.75, 0.25, 0.25], rtol=1e-13)
    assert math.isclose(von_neumann_entropy(nus), 2.0, rel_tol=1e-12)


def test_two_mode_squeezed_plus_vacuum_is_pure():
    # TMS(N=0.5) on modes 1,2: diagonal 0.5, cross block diag(+c, -c); the
    # x block holds +c, and the p block D V_x D holds -c
    c = ou.TMS_C_HALF
    v = np.diag([0.5, 0.5, 0.25])
    v[0, 1] = v[1, 0] = c
    nus = symplectic_eigenvalues(v)
    assert np.allclose(nus, 0.25, rtol=0, atol=1e-12)
    assert von_neumann_entropy(nus) < 1e-10


def _thermal_entropy(n):
    # the entropy of one thermal mode of mean photon number n, the others vacuum
    return _entropy(_diag_cov(n, 0.0, 0.0))


def test_thermal_entropy_values():
    assert _thermal_entropy(0.0) == 0.0
    assert math.isclose(_thermal_entropy(1.0), 2.0, rel_tol=1e-14)
    assert math.isclose(_thermal_entropy(0.5), ou.G_HALF, rel_tol=1e-14)


@given(st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1.0001, max_value=4.0))
def test_thermal_entropy_monotone(n, factor):
    assert _thermal_entropy(n * factor) > _thermal_entropy(n)


def test_entropy_matches_thermal_sum_for_diagonal():
    ns = (0.3, 1.7, 0.001)
    expected = sum(ou.thermal_entropy(n) for n in ns)
    assert math.isclose(_entropy(_diag_cov(*ns)), expected, rel_tol=1e-10)


def test_spectrum_matches_brute_force_sample():
    rng = np.random.default_rng(23)
    for _ in range(8):
        v, known = ou.random_physical_covariance(rng)
        pkg = symplectic_eigenvalues(v)
        bf = ou.brute_force_spectrum(v)
        assert np.max(np.abs(pkg - bf) / bf) < 1e-9
        assert np.max(np.abs(pkg - known) / known) < 1e-9


def test_pure_states_have_negligible_entropy():
    rng = np.random.default_rng(29)
    for _ in range(5):
        v, _ = ou.random_physical_covariance(rng, pure=True)
        assert _entropy(v) < 1e-8


def test_stacked_entropies_equal_single_matrix_calls():
    rng = np.random.default_rng(31)
    stack = np.array([ou.random_physical_covariance(rng)[0] for _ in range(6)]).reshape(2, 3, 3, 3)
    entropies = _entropy(stack)
    assert entropies.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = _entropy(stack[idx])
        assert type(single) is float
        assert single == entropies[idx]


def test_stacked_spectra_equal_single_matrix_calls():
    rng = np.random.default_rng(37)
    stack = np.array([ou.random_physical_covariance(rng)[0] for _ in range(6)]).reshape(2, 3, 3, 3)
    spectra = symplectic_eigenvalues(stack)
    assert spectra.shape == (2, 3, 3)
    for idx in np.ndindex(2, 3):
        single = symplectic_eigenvalues(stack[idx])
        assert single.shape == (3,)
        assert single[0] >= single[1] >= single[2]
        assert single.tobytes() == spectra[idx].tobytes()


def test_stack_is_rejected_when_one_matrix_is_bad():
    good = np.diag(np.full(3, 0.5))
    asymmetric = good.copy()
    asymmetric[0, 1] = 1e-3
    indefinite = np.diag([0.5, 0.5, -0.1])
    nonfinite = good.copy()
    nonfinite[2, 2] = np.inf
    for bad in (asymmetric, indefinite, nonfinite):
        with pytest.raises(ValidationError):
            symplectic_eigenvalues(np.array([good, bad, good]))
    with pytest.raises(ValidationError, match="^symplectic eigenvalue below vacuum floor"):
        _entropy(np.array([good, np.diag(np.full(3, 0.1))]))


def test_each_part_is_refused_for_its_own_spectrum():
    # parts 1 and 2 lie below the vacuum floor at different depths; the floor
    # is checked when an entropy reads a part, so each names its own minimum
    good = np.diag(np.full(3, 0.5))
    shallow, deep = np.diag(np.full(3, 0.125)), np.diag(np.full(3, 0.0625))
    parts = symplectic_eigenvalues(np.array([good, shallow, deep]))
    assert von_neumann_entropy(parts[0]) > 0.0
    for part, alone in ((parts[1], shallow), (parts[2], deep)):
        depth = re.escape(repr(float(symplectic_eigenvalues(alone).min())))
        with pytest.raises(ValidationError, match=f"^symplectic eigenvalue below vacuum floor: {depth}$"):
            von_neumann_entropy(part)


def test_a_raw_array_costs_one_lapack_batch(monkeypatch):
    # one Cholesky factor, of the x block, and one SVD, each over the whole stack
    calls, cholesky, svd = [], np.linalg.cholesky, np.linalg.svd

    def counted_cholesky(a):
        calls.append(("cholesky", a.shape))
        return cholesky(a)

    def counted_svd(a, compute_uv):
        calls.append(("svd", a.shape))
        return svd(a, compute_uv=compute_uv)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    rng = np.random.default_rng(43)
    stack = np.array([ou.random_physical_covariance(rng)[0] for _ in range(6)]).reshape(2, 3, 3, 3)
    symplectic_eigenvalues(stack)
    symplectic_eigenvalues(stack[0, 0])
    assert calls == [
        ("cholesky", (2, 3, 3, 3)), ("svd", (2, 3, 3, 3)),
        ("cholesky", (3, 3)), ("svd", (3, 3)),
    ]


def test_the_callers_array_is_left_writeable_and_unchanged():
    # a covariance is the caller's array: it is neither copied into an
    # object nor frozen, and the spectrum is a fresh writeable array
    rng = np.random.default_rng(47)
    v = ou.random_physical_covariance(rng)[0]
    before = v.copy()
    nus = symplectic_eigenvalues(v)
    assert v.flags.writeable and nus.flags.writeable
    assert v.tobytes() == before.tobytes()
    nus[0] = 0.0
    assert symplectic_eigenvalues(v)[0] > 0.25


def test_entropy_forgives_eigenvalues_within_the_tolerance_below_the_floor():
    # 1/4 - 1e-9 is the least eigenvalue that is read as vacuum
    assert von_neumann_entropy(np.full(3, 0.25 - 0.5e-9)) == 0.0
    with pytest.raises(ValidationError, match="^symplectic eigenvalue below vacuum floor"):
        von_neumann_entropy(np.array([0.5, 0.25, 0.25 - 2e-9]))


def test_rejects_wrong_shape():
    # a covariance is its 3x3 x block; the full 6x6 matrix is refused too
    for shape in (4, 6):
        with pytest.raises(ValidationError, match=r"^covariance x block must be 3x3"):
            symplectic_eigenvalues(np.eye(shape))


def test_rejects_asymmetric():
    v = np.diag(np.full(3, 0.5))
    v[0, 1] = 1e-3
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(v)


def test_rejects_non_positive_definite():
    v = np.diag([0.5, 0.5, -0.1])
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(v)


def test_rejects_nonfinite():
    v = np.diag(np.full(3, 0.5))
    v[2, 2] = np.nan
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(v)


def test_unphysical_spectrum_raises():
    # positive definite but nu < 1/4 violates the uncertainty bound
    nus = symplectic_eigenvalues(np.diag(np.full(3, 0.1)))
    with pytest.raises(ValidationError, match=r"^symplectic eigenvalue below vacuum floor: 0\.1"):
        von_neumann_entropy(nus)

