"""Attack-state covariances, Holevo bound, and passive-eavesdropper BER."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import oracle_utils as ou
from flqkd.errors import DomainError, ValidationError
from flqkd.eve import (
    SystemParams,
    attack_state,
    chernoff_ber_passive,
    eve_injection_brightness,
    holevo_bound,
)
from flqkd.gaussian import symplectic_eigenvalues, thermal_entropy, von_neumann_entropy

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

# index pairs carrying the Alice<->Bob and idler<->Bob correlations
_C_AB_POS = [(0, 4), (4, 0), (1, 5), (5, 1)]
_C_IB_POS = [(2, 4), (4, 2), (3, 5), (5, 3)]


def test_injection_brightness_examples():
    assert eve_injection_brightness(0.0, 0.01, 0.1) == 0.0
    assert math.isclose(
        eve_injection_brightness(0.5, 0.01, 0.1), 1.0 / 900.0, rel_tol=1e-12
    )
    assert math.isclose(
        eve_injection_brightness(0.0027, 0.01, 0.1), ou.NE_00027, rel_tol=1e-12
    )


def test_injection_brightness_monotone_in_f_e():
    vals = [eve_injection_brightness(f, 0.01, 0.1) for f in (0.0, 1e-4, 1e-3, 1e-2, 0.1)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bit_values_differ_only_in_signal_correlation_signs():
    st = attack_state(PARAMS, 0.01, 0.0027)
    c0, c1 = st.cov_k0.entries, st.cov_k1.entries
    diff = c1 - c0
    mask = np.zeros((6, 6), dtype=bool)
    for i, j in _C_AB_POS + _C_IB_POS:
        mask[i, j] = True
    assert np.array_equal(c1[mask], -c0[mask])
    assert np.all(diff[~mask] == 0.0)
    assert np.all(c0[mask] != 0.0)


def test_unconditional_state_has_no_signal_correlations():
    st = attack_state(PARAMS, 0.01, 0.0027)
    assert np.array_equal(
        st.cov_uncond.entries, 0.5 * (st.cov_k0.entries + st.cov_k1.entries)
    )
    for i, j in _C_AB_POS + _C_IB_POS:
        assert st.cov_uncond.entries[i, j] == 0.0


def test_no_injection_leaves_idler_in_vacuum():
    cov = attack_state(PARAMS, 0.01, 0.0).cov_k0.entries
    idler = cov[2:4, 2:4]
    assert np.allclose(idler, 0.25 * np.eye(2), rtol=0, atol=1e-15)
    # idler decoupled from reference and return modes
    assert np.all(cov[2:4, 0:2] == 0.0)
    assert np.all(cov[2:4, 4:6] == 0.0)


def test_dark_source_state_is_thermal_background():
    cov = attack_state(PARAMS, 0.0, 0.0).cov_k0.entries
    expected = np.diag(
        np.repeat([(2 * 0.0 + 1) / 4, (2 * 0.0 + 1) / 4, (2 * PARAMS.N_B + 1) / 4], 2)
    )
    assert np.allclose(cov, expected, rtol=1e-12)


def test_bit_symmetry_of_spectra():
    rng = np.random.default_rng(41)
    for _ in range(12):
        n_s = 10.0 ** rng.uniform(-4, 0)
        f_e = 10.0 ** rng.uniform(-5, -1)
        st = attack_state(PARAMS, n_s, f_e)
        a = np.asarray(symplectic_eigenvalues(st.cov_k0))
        b = np.asarray(symplectic_eigenvalues(st.cov_k1))
        assert np.max(np.abs(a - b) / b) < 1e-10


def test_holevo_zero_only_when_nothing_leaks():
    # dark source: nothing to learn
    assert holevo_bound(PARAMS, 0.0, 0.0) == 0.0
    # passive collection of the lost light still carries information
    assert holevo_bound(PARAMS, 0.01, 0.0) > 0.0
    assert holevo_bound(PARAMS, 0.01, 0.0027) > holevo_bound(PARAMS, 0.01, 0.0)


def test_holevo_clamped_to_unit_interval():
    rng = np.random.default_rng(43)
    for _ in range(12):
        n_s = 10.0 ** rng.uniform(-4, 0)
        f_e = 10.0 ** rng.uniform(-5, -0.5)
        chi = holevo_bound(PARAMS, n_s, f_e)
        assert 0.0 <= chi <= 1.0
    # strong injection saturates the one-bit cap exactly
    assert holevo_bound(PARAMS, 0.01, 0.5) == 1.0


def test_holevo_at_total_injection_is_its_limit():
    # N_E is infinite at f_e = 1; the bound is the f_e -> 1 limit
    assert holevo_bound(PARAMS, 0.0, 1.0) == 0.0
    for n_s in np.logspace(-12, 0, 25).tolist():
        assert holevo_bound(PARAMS, n_s, 1.0) == 1.0
        assert holevo_bound(PARAMS, n_s, 1.0 - 1e-12) == 1.0
    grid = np.array([0.0, 1e-6, 0.5])
    assert holevo_bound(PARAMS, grid, 1.0).tolist() == [0.0, 1.0, 1.0]
    assert type(holevo_bound(PARAMS, 0.01, 1.0)) is float
    with pytest.raises(DomainError):
        holevo_bound(PARAMS, -1e-3, 1.0)
    # the covariances themselves stay undefined there
    with pytest.raises(DomainError):
        eve_injection_brightness(1.0, 0.01, 0.1)
    with pytest.raises(DomainError):
        attack_state(PARAMS, 0.01, 1.0)
    with pytest.raises(DomainError):
        holevo_bound(PARAMS, 0.01, 1.5)


def test_array_attack_state_stacks_the_scalar_states():
    grid = np.array([0.0, 1e-4, 0.01, 0.3])
    batch = attack_state(PARAMS, grid, 0.0027)
    assert batch.cov_uncond.entries.shape == (4, 6, 6)
    for k, n_s in enumerate(grid.tolist()):
        one = attack_state(PARAMS, n_s, 0.0027)
        for name in ("cov_k0", "cov_k1", "cov_uncond"):
            assert np.array_equal(getattr(one, name).entries, getattr(batch, name).entries[k])
    chi = holevo_bound(PARAMS, grid, 0.0027)
    assert chi.tolist() == [holevo_bound(PARAMS, x, 0.0027) for x in grid.tolist()]


def _layout_terms(params, n_s, f_e):
    # the six covariance terms of Zhuang et al., PRA 94, 012322 (2016), with
    # the injected brightness written out rather than taken from eve
    n_s = np.asarray(n_s, dtype=float)
    kap, gain = params.kappa, params.G_B * (1.0 - params.kappa_B)
    n_e = kap * n_s * f_e / ((1.0 - kap) * (1.0 - f_e))
    a = 1.0 + 2.0 * ((1.0 - kap) * n_s + kap * n_e)
    e = 1.0 + 2.0 * n_e
    b = 1.0 + 2.0 * (gain * (kap * n_s + (1.0 - kap) * n_e) + params.N_B)
    c_ia = 2.0 * np.sqrt(kap * n_e * (n_e + 1.0))
    c_ab = 2.0 * np.sqrt(gain * kap * (1.0 - kap)) * (n_s - n_e)
    c_ib = 2.0 * np.sqrt(gain * (1.0 - kap) * n_e * (n_e + 1.0))
    return a, e, b, c_ia, c_ab, c_ib


@pytest.mark.parametrize(
    "n_s, f_e",
    [
        (0.01, 0.0027),
        (0.01, 0.0),
        (0.01, 0.95),
        (np.array([0.0, 1e-4, 0.01, 0.3]), 0.0027),
        (np.array([[1e-5, 0.01], [0.3, 2.0]]), 0.95),
    ],
    ids=["scalar", "no-injection", "c_ab-negative", "array", "2d-c_ab-negative"],
)
def test_covariances_have_the_block_layout(n_s, f_e):
    # every term joins two modes by I or Z = diag(1, -1), so the x-p cross
    # blocks vanish and the x and p blocks are 3x3 matrices of the terms
    a, e, b, c_ia, c_ab, c_ib = _layout_terms(PARAMS, n_s, f_e)
    if f_e == 0.95:
        assert np.all(c_ab < 0.0)
    st = attack_state(PARAMS, n_s, f_e)
    for cov, sign in ((st.cov_k0, 1.0), (st.cov_k1, -1.0), (st.cov_uncond, 0.0)):
        v = cov.entries
        assert v.shape == np.shape(n_s) + (6, 6)
        assert np.all(v[..., 0::2, 1::2] == 0.0) and np.all(v[..., 1::2, 0::2] == 0.0)
        ab, ib = sign * c_ab, sign * c_ib
        x = [[a, -c_ia, ab], [-c_ia, e, ib], [ab, ib, b]]
        p = [[a, c_ia, ab], [c_ia, e, -ib], [ab, -ib, b]]
        for block, expected in ((v[..., 0::2, 0::2], x), (v[..., 1::2, 1::2], p)):
            expected = np.moveaxis(np.array(expected), (0, 1), (-2, -1)) / 4.0
            # atol 0: a zero term (c_ia without injection, the average's
            # signal correlations) must come out exactly zero
            assert np.allclose(block, expected, rtol=1e-12, atol=0.0)


def test_holevo_matches_entropy_difference_before_clamp():
    st = attack_state(PARAMS, 0.01, 0.0027)
    per_mode = von_neumann_entropy(st.cov_uncond) - 0.5 * (
        von_neumann_entropy(st.cov_k0) + von_neumann_entropy(st.cov_k1)
    )
    raw = PARAMS.M * per_mode
    assert math.isclose(holevo_bound(PARAMS, 0.01, 0.0027), min(max(raw, 0.0), 1.0), rel_tol=1e-12)


def test_holevo_nondecreasing_in_injection():
    grid = [0.0, 5e-4, 1e-3, 2e-3, 4e-3, 8e-3]
    chis = [holevo_bound(PARAMS, 0.01, f) for f in grid]
    assert all(b >= a - 1e-12 for a, b in zip(chis, chis[1:]))


def test_no_injection_reduces_to_two_mode_state():
    # with f_E = 0 the idler factors out; entropy must match the 4x4 block
    st = attack_state(PARAMS, 0.01, 0.0)
    full = st.cov_k0.entries
    keep = [0, 1, 4, 5]
    sub = full[np.ix_(keep, keep)]
    raw = np.linalg.eigvals(np.kron(np.eye(2), ou.OMEGA6[:2, :2]) @ sub)
    nus = np.sort(np.abs(raw.imag[raw.imag > 0]))[::-1]
    s_two = sum(thermal_entropy(max(2 * nu - 0.5, 0.0)) for nu in nus)
    assert math.isclose(von_neumann_entropy(st.cov_k0), s_two, rel_tol=0, abs_tol=1e-9)


def test_chernoff_examples():
    assert chernoff_ber_passive(PARAMS, 0.0) == 0.5
    # 4 M kappa (1-kappa) (1-kappa_B) N_S^2 = 0.2088 at these parameters
    n_s = math.sqrt(0.2088 / (4 * PARAMS.M * 0.1 * 0.9 * 0.29))
    assert math.isclose(chernoff_ber_passive(PARAMS, n_s), ou.QCB_EXAMPLE, rel_tol=1e-12)


def test_array_chernoff_bound_equals_the_scalar_calls_bit_for_bit():
    grid = np.concatenate(([0.0], np.logspace(-4, -1, 80), [0.3, 1.0]))
    batch = chernoff_ber_passive(PARAMS, grid)
    assert batch.shape == grid.shape
    for k, n_s in enumerate(grid.tolist()):
        value = chernoff_ber_passive(PARAMS, n_s)
        assert type(value) is float
        assert value.hex() == float(batch[k]).hex(), n_s
    assert chernoff_ber_passive(PARAMS, grid[1:].reshape(2, -1)).shape == (2, 41)
    with pytest.raises(DomainError):
        chernoff_ber_passive(PARAMS, np.array([1e-3, -1e-3]))


def test_chernoff_monotone_decreasing_in_brightness():
    vals = [chernoff_ber_passive(PARAMS, n) for n in (0.0, 1e-4, 1e-3, 1e-2, 0.1)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 0.5 for v in vals)


def test_modes_and_gain_noise_are_derived():
    for field, value in (("W", 2.2e12), ("R", 1.1e8), ("N_B", 5e3), ("G_B", 2e3)):
        p = replace(PARAMS, **{field: value})
        assert getattr(p, field) == value
        assert p.M == p.W / p.R
        assert p.gamma == p.N_B / p.G_B
    with pytest.raises(TypeError):
        replace(PARAMS, M=2.0e4)
    with pytest.raises(TypeError):
        replace(PARAMS, gamma=2.5)


def test_parameter_range_checks():
    good = dict(W=2.0e12, R=1e8, kappa=0.1, eta=0.9, kappa_B=0.71,
                G_B=3.8e3, N_B=9.7e3, beta=0.94)
    for key, bad in [("kappa", 0.0), ("kappa", 1.0), ("eta", 1.5), ("kappa_B", -0.1),
                     ("G_B", 0.0), ("N_B", -1.0), ("beta", 1.01), ("W", 0.0), ("R", 0.0),
                     # gamma = N_B/G_B divides Alice's BER argument
                     ("N_B", 0.0), ("N_B", math.nan)]:
        kw = dict(good)
        kw[key] = bad
        with pytest.raises(ValidationError):
            SystemParams(**kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("field", ["W", "R", "kappa", "eta", "kappa_B", "G_B", "N_B", "beta"])
def test_parameters_refuse_non_finite_values(field, value):
    # W = inf once gave a key rate of -6e6 bit/s, and NaN or inf elsewhere
    # failed later with a message about a BER or a covariance
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        replace(PARAMS, **{field: value})


def test_injection_fraction_domain():
    with pytest.raises(DomainError):
        attack_state(PARAMS, 0.01, 1.0)
    with pytest.raises(DomainError):
        attack_state(PARAMS, 0.01, -1e-3)
