"""Covariance container, symplectic spectra, and von Neumann entropy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_utils as ou
from flqkd.errors import DomainError, UnphysicalStateError, ValidationError
from flqkd.gaussian import (
    Covariance3Mode,
    symplectic_eigenvalues,
    thermal_entropy,
    von_neumann_entropy,
)


def _diag_cov(n1, n2, n3):
    d = np.repeat([(2.0 * n + 1.0) / 4.0 for n in (n1, n2, n3)], 2)
    return Covariance3Mode(np.diag(d))


def test_vacuum_spectrum_and_entropy():
    cov = _diag_cov(0.0, 0.0, 0.0)
    nus = symplectic_eigenvalues(cov)
    assert np.allclose(nus, 0.25, rtol=0, atol=1e-14)
    assert von_neumann_entropy(cov) == 0.0


def test_single_thermal_mode_spectrum():
    cov = _diag_cov(1.0, 0.0, 0.0)
    nus = symplectic_eigenvalues(cov)
    assert np.allclose(nus, [0.75, 0.25, 0.25], rtol=1e-13)
    assert math.isclose(von_neumann_entropy(cov), 2.0, rel_tol=1e-12)


def test_two_mode_squeezed_plus_vacuum_is_pure():
    # TMS(N=0.5) on modes 1,2: diagonal 0.5, cross block diag(+c, -c).
    c = ou.TMS_C_HALF
    v = np.diag([0.5, 0.5, 0.5, 0.5, 0.25, 0.25])
    v[0, 2] = v[2, 0] = c
    v[1, 3] = v[3, 1] = -c
    cov = Covariance3Mode(v)
    nus = symplectic_eigenvalues(cov)
    assert np.allclose(nus, 0.25, rtol=0, atol=1e-12)
    assert von_neumann_entropy(cov) < 1e-10


def test_thermal_entropy_values():
    assert thermal_entropy(0.0) == 0.0
    assert math.isclose(thermal_entropy(1.0), 2.0, rel_tol=1e-14)
    assert math.isclose(thermal_entropy(0.5), ou.G_HALF, rel_tol=1e-14)


def test_thermal_entropy_rejects_negative():
    with pytest.raises(DomainError):
        thermal_entropy(-0.01)


@given(st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1.0001, max_value=4.0))
def test_thermal_entropy_monotone(n, factor):
    assert thermal_entropy(n * factor) > thermal_entropy(n)


def test_entropy_matches_thermal_sum_for_diagonal():
    ns = (0.3, 1.7, 0.001)
    cov = _diag_cov(*ns)
    expected = sum(thermal_entropy(n) for n in ns)
    assert math.isclose(von_neumann_entropy(cov), expected, rel_tol=1e-10)


def test_spectrum_descending_and_eigenvalue_pairing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        v, _ = ou.random_physical_covariance(rng)
        cov = Covariance3Mode(v)
        nus = symplectic_eigenvalues(cov)
        assert nus[0] >= nus[1] >= nus[2] >= 0.25 - 1e-9
        # eigenvalues of Omega V come in +-i nu pairs, so they sum to ~0
        raw = np.linalg.eigvals(ou.OMEGA6 @ v)
        assert abs(raw.sum()) < 1e-9


def test_spectrum_matches_brute_force_sample():
    rng = np.random.default_rng(23)
    for _ in range(8):
        v, known = ou.random_physical_covariance(rng)
        pkg = np.asarray(symplectic_eigenvalues(Covariance3Mode(v)))
        bf = ou.brute_force_spectrum(v)
        assert np.max(np.abs(pkg - bf) / bf) < 1e-9
        assert np.max(np.abs(pkg - known) / known) < 1e-9


def test_pure_states_have_negligible_entropy():
    rng = np.random.default_rng(29)
    for _ in range(5):
        v, _ = ou.random_physical_covariance(rng, pure=True)
        assert von_neumann_entropy(Covariance3Mode(v)) < 1e-8


def test_stacked_entropies_equal_single_matrix_calls():
    rng = np.random.default_rng(31)
    stack = np.array([ou.random_physical_covariance(rng)[0] for _ in range(6)]).reshape(2, 3, 6, 6)
    entropies = von_neumann_entropy(stack)
    assert entropies.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        single = von_neumann_entropy(stack[idx])
        assert type(single) is float
        assert single == entropies[idx]


def test_stack_is_rejected_when_one_matrix_is_bad():
    good = np.diag(np.full(6, 0.5))
    asymmetric = good.copy()
    asymmetric[0, 1] = 1e-3
    indefinite = np.diag([0.5, 0.5, 0.5, 0.5, 0.5, -0.1])
    nonfinite = good.copy()
    nonfinite[2, 2] = np.inf
    for bad in (asymmetric, indefinite, nonfinite):
        with pytest.raises(ValidationError):
            Covariance3Mode(np.array([good, bad, good]))
    with pytest.raises(UnphysicalStateError):
        von_neumann_entropy(np.array([good, np.diag(np.full(6, 0.1))]))


def test_unstack_splits_the_leading_axis():
    stack = Covariance3Mode(np.array([np.diag(np.full(6, 0.5 + k)) for k in range(3)]))
    parts = stack.unstack()
    assert [p.entries[0, 0] for p in parts] == [0.5, 1.5, 2.5]
    with pytest.raises(ValidationError):
        parts[0].unstack()
    with pytest.raises(ValidationError):
        symplectic_eigenvalues(stack)


def test_rejects_wrong_shape():
    with pytest.raises(ValidationError):
        Covariance3Mode(np.eye(4))


def test_rejects_asymmetric():
    v = np.diag(np.full(6, 0.5))
    v[0, 1] = 1e-3
    with pytest.raises(ValidationError):
        Covariance3Mode(v)


def test_rejects_non_positive_definite():
    v = np.diag([0.5, 0.5, 0.5, 0.5, 0.5, -0.1])
    with pytest.raises(ValidationError):
        Covariance3Mode(v)


def test_rejects_nonfinite():
    v = np.diag(np.full(6, 0.5))
    v[2, 2] = np.nan
    with pytest.raises(ValidationError):
        Covariance3Mode(v)


def test_unphysical_spectrum_raises():
    # positive definite but nu < 1/4 violates the uncertainty bound
    cov = Covariance3Mode(np.diag(np.full(6, 0.1)))
    with pytest.raises(UnphysicalStateError):
        symplectic_eigenvalues(cov)


def test_entries_are_read_only():
    cov = _diag_cov(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        cov.entries[0, 0] = 9.0
