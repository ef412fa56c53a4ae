"""Covariance container, symplectic spectra, and von Neumann entropy."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle_utils as ou
from flqkd.errors import ValidationError
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
    with pytest.raises(ValidationError):
        thermal_entropy(-0.01)


@given(st.floats(min_value=1e-6, max_value=1e3), st.floats(min_value=1.0001, max_value=4.0))
def test_thermal_entropy_monotone(n, factor):
    assert thermal_entropy(n * factor) > thermal_entropy(n)


def test_entropy_matches_thermal_sum_for_diagonal():
    ns = (0.3, 1.7, 0.001)
    cov = _diag_cov(*ns)
    expected = sum(thermal_entropy(n) for n in ns)
    assert math.isclose(von_neumann_entropy(cov), expected, rel_tol=1e-10)


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


def test_stacked_spectra_equal_single_matrix_calls():
    rng = np.random.default_rng(37)
    stack = np.array([ou.random_physical_covariance(rng)[0] for _ in range(6)]).reshape(2, 3, 6, 6)
    spectra = symplectic_eigenvalues(stack)
    assert spectra.shape == (2, 3, 3)
    for idx in np.ndindex(2, 3):
        single = symplectic_eigenvalues(Covariance3Mode(stack[idx]))
        assert single.shape == (3,)
        assert single[0] >= single[1] >= single[2]
        assert single.tobytes() == spectra[idx].tobytes()


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
    with pytest.raises(ValidationError, match="^symplectic eigenvalue below vacuum floor"):
        von_neumann_entropy(np.array([good, np.diag(np.full(6, 0.1))]))


def test_unstack_splits_the_leading_axis():
    stack = Covariance3Mode(np.array([np.diag(np.full(6, 0.5 + k)) for k in range(3)]))
    parts = stack.unstack()
    assert [p.entries[0, 0] for p in parts] == [0.5, 1.5, 2.5]
    with pytest.raises(ValidationError):
        parts[0].unstack()


def test_unstacked_parts_carry_read_only_single_matrix_spectra():
    rng = np.random.default_rng(41)
    stack = Covariance3Mode(np.array([ou.random_physical_covariance(rng)[0] for _ in range(4)]))
    for part in stack.unstack():
        fresh = symplectic_eigenvalues(np.array(part.entries))
        assert part.spectrum.shape == (3,)
        assert part.spectrum.tobytes() == fresh.tobytes()
        assert symplectic_eigenvalues(part) is part.spectrum
        for array in (part.entries, part.spectrum):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0


def test_each_part_is_refused_for_its_own_spectrum():
    # parts 1 and 2 lie below the vacuum floor at different depths; the floor
    # is checked when a part is read, so each names its own minimum
    good = np.diag(np.full(6, 0.5))
    shallow, deep = np.diag(np.full(6, 0.125)), np.diag(np.full(6, 0.0625))
    parts = Covariance3Mode(np.array([good, shallow, deep])).unstack()
    assert von_neumann_entropy(parts[0]) > 0.0
    for part, alone in ((parts[1], shallow), (parts[2], deep)):
        depth = re.escape(repr(float(Covariance3Mode(alone).spectrum.min())))
        with pytest.raises(ValidationError, match=f"^symplectic eigenvalue below vacuum floor: {depth}$"):
            von_neumann_entropy(part)


def test_a_raw_array_costs_one_lapack_batch(monkeypatch):
    # one Cholesky factor per block and one SVD, each over the whole stack
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
    stack = np.array([ou.random_physical_covariance(rng)[0] for _ in range(6)]).reshape(2, 3, 6, 6)
    symplectic_eigenvalues(stack)
    symplectic_eigenvalues(stack[0, 0])
    assert calls == [
        *2 * [("cholesky", (2, 3, 3, 3))], ("svd", (2, 3, 3, 3)),
        *2 * [("cholesky", (3, 3))], ("svd", (3, 3)),
    ]
    # a validated covariance's spectrum is read, not recomputed
    cov = Covariance3Mode(stack)
    calls.clear()
    symplectic_eigenvalues(cov)
    von_neumann_entropy(cov)
    for part in cov.unstack():
        von_neumann_entropy(part)
    assert calls == []


def test_a_covariance_that_correlates_x_with_p_is_refused():
    # a physical state whose symplectic map mixes x with p lies outside the
    # class's domain, alone or in a stack, however small the correlation
    rng = np.random.default_rng(53)
    mixed, _ = ou.random_mixing_covariance(rng)
    good = np.diag(np.full(6, 0.5))
    barely = good.copy()
    barely[0, 5] = barely[5, 0] = 1e-300
    for bad in (mixed, barely, np.array([good, mixed]), np.array([good, barely])):
        with pytest.raises(ValidationError, match="^covariance correlates x with p$"):
            Covariance3Mode(bad)
        with pytest.raises(ValidationError, match="^covariance correlates x with p$"):
            symplectic_eigenvalues(bad)


def test_a_phase_of_pi_keeps_the_spectrum():
    # on a random stack: S V S exactly, the same spectrum object, and a
    # fresh validation agreeing with it
    rng = np.random.default_rng(47)
    cov = Covariance3Mode(np.array([ou.random_physical_covariance(rng)[0] for _ in range(4)]))
    s = np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0])
    flipped = cov.pi_phase_on_mode_3()
    assert np.array_equal(flipped.entries, s @ cov.entries @ s)
    assert flipped.spectrum is cov.spectrum
    with pytest.raises(ValueError, match="read-only"):
        flipped.entries[0, 0, 0] = 9.0
    fresh = symplectic_eigenvalues(np.array(flipped.entries))
    assert np.max(np.abs(fresh - cov.spectrum) / fresh) < 1e-10


def test_covariances_compare_and_hash_by_identity():
    v = np.diag(np.full(6, 0.5))
    cov, again = Covariance3Mode(v), Covariance3Mode(v)
    assert cov == cov and cov != again
    assert len({cov, again, cov}) == 2


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
    with pytest.raises(ValidationError, match=r"^symplectic eigenvalue below vacuum floor: 0\.1"):
        symplectic_eigenvalues(cov)


def test_entries_are_read_only():
    cov = _diag_cov(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        cov.entries[0, 0] = 9.0
