"""Attack-state covariances, Holevo bound, and passive-eavesdropper BER."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

import oracle_utils as ou
from flqkd import eve
from flqkd.config import load_run_config
from flqkd.errors import ValidationError
from flqkd.eve import (
    SystemParams,
    attack_state,
    chernoff_ber_passive,
    eve_injection_brightness,
    holevo_bound,
)
from flqkd.gaussian import Covariance3Mode, symplectic_eigenvalues, thermal_entropy, von_neumann_entropy
from flqkd.monitor import _detector_loads

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


def test_bobs_flux_against_f_e_in_both_halves():
    # ROADMAP item 11 pins the two attack models as they stand, so that the
    # change joining them edits this test on purpose. The key-rate model adds
    # Eve's light to Alice's kappa n_s, so Bob's flux grows by 1/(1 - f_e);
    # the monitor's intruder replaces a fraction f_e of it.
    kappa, n_s = 0.1, 0.01
    for f_e in (0.0, 0.0027, 0.25, 0.5, 0.75):
        n_e = eve_injection_brightness(f_e, n_s, kappa)
        assert kappa * n_s + (1.0 - kappa) * n_e == pytest.approx(kappa * n_s / (1.0 - f_e), rel=1e-14)
    cfg = load_run_config(None).monitor
    loads = [_detector_loads(replace(cfg, f_e_true=f_e))["bob_tap"] for f_e in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert loads == pytest.approx([loads[0]] * len(loads), rel=1e-14)


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
        # V_1 shares V_0's spectrum; validating its entries afresh, in a
        # LAPACK batch of its own, is the independent check
        b = np.asarray(symplectic_eigenvalues(np.array(st.cov_k1.entries)))
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
    with pytest.raises(ValidationError):
        holevo_bound(PARAMS, -1e-3, 1.0)
    # the covariances themselves stay undefined there
    with pytest.raises(ValidationError):
        eve_injection_brightness(1.0, 0.01, 0.1)
    with pytest.raises(ValidationError):
        attack_state(PARAMS, 0.01, 1.0)
    with pytest.raises(ValidationError):
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


@pytest.mark.parametrize("n_s", [0.01, np.array([0.0, 1e-4, 0.01, 0.3])], ids=["scalar", "array"])
def test_holevo_bound_costs_one_lapack_batch(monkeypatch, n_s):
    # V_0 and the average are one validated stack, whose spectra are taken
    # by one Cholesky call per block and one SVD call; V_1 shares V_0's, and
    # each entropy reads a slice
    lapack_calls, entropy_calls = [], []
    cholesky, svd, entropy = np.linalg.cholesky, np.linalg.svd, eve.von_neumann_entropy

    def counted_cholesky(a):
        lapack_calls.append(("cholesky", a.shape))
        return cholesky(a)

    def counted_svd(a, compute_uv):
        lapack_calls.append(("svd", a.shape))
        return svd(a, compute_uv=compute_uv)

    def counted_entropy(cov):
        entropy_calls.append(cov.entries.shape)
        return entropy(cov)

    monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    monkeypatch.setattr(eve, "von_neumann_entropy", counted_entropy)
    holevo_bound(PARAMS, n_s, 0.0027)
    blocks = (2, *np.shape(n_s), 3, 3)
    assert lapack_calls == [("cholesky", blocks), ("cholesky", blocks), ("svd", blocks)]
    assert entropy_calls == 3 * [(*np.shape(n_s), 6, 6)]


def test_attack_state_compares_and_hashes_by_identity():
    state = attack_state(PARAMS, np.array([0.01, 0.02]), 0.0027)
    again = attack_state(PARAMS, np.array([0.01, 0.02]), 0.0027)
    assert state == state and state != again
    assert len({state, again, state}) == 2


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


def _assert_blocks(v, terms, sign):
    # every term joins two modes by I or Z = diag(1, -1), so the x-p cross
    # blocks vanish and the x and p blocks are 3x3 matrices of the terms;
    # sign multiplies the signal correlations c_ab and c_ib
    a, e, b, c_ia, c_ab, c_ib = terms
    assert v.shape == np.shape(a) + (6, 6)
    assert np.all(v[..., 0::2, 1::2] == 0.0) and np.all(v[..., 1::2, 0::2] == 0.0)
    ab, ib = sign * c_ab, sign * c_ib
    x = [[a, -c_ia, ab], [-c_ia, e, ib], [ab, ib, b]]
    p = [[a, c_ia, ab], [c_ia, e, -ib], [ab, -ib, b]]
    for block, expected in ((v[..., 0::2, 0::2], x), (v[..., 1::2, 1::2], p)):
        expected = np.moveaxis(np.array(expected), (0, 1), (-2, -1)) / 4.0
        # atol 0: a zero term (c_ia without injection, the average's
        # signal correlations) must come out exactly zero
        assert np.allclose(block, expected, rtol=1e-12, atol=0.0)


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
    terms = _layout_terms(PARAMS, n_s, f_e)
    if f_e == 0.95:
        assert np.all(terms[4] < 0.0)  # c_ab
    st = attack_state(PARAMS, n_s, f_e)
    for cov, sign in ((st.cov_k0, 1.0), (st.cov_k1, -1.0), (st.cov_uncond, 0.0)):
        _assert_blocks(cov.entries, terms, sign)


@settings(deadline=None)
@given(
    strategies.floats(min_value=0.0, max_value=10.0),
    strategies.floats(min_value=0.0, max_value=0.99),
    strategies.floats(min_value=1e-3, max_value=0.999),
)
@example(0.01, 0.0, 0.1)
@example(0.0, 0.0027, 0.1)
def test_bit_one_state_is_bit_zero_after_a_return_phase_of_pi(n_s, f_e, kappa):
    params = replace(PARAMS, kappa=kappa)
    n_s = np.array([n_s, 0.5 * n_s])
    st = attack_state(params, n_s, f_e)
    v1 = st.cov_k1.entries
    # the paper's bit-1 blocks, built from the formulas, not from V_0
    _assert_blocks(v1, _layout_terms(params, n_s, f_e), -1.0)
    # exact sign flips of V_0: read-only, and no -0.0 where a term is zero
    assert not v1.flags.writeable and not np.signbit(v1[v1 == 0.0]).any()
    # a fresh validation passes, so deriving V_1 dropped no refusal
    Covariance3Mode(v1)
    # the spectrum is V_0's own read-only slice, taken once
    assert st.cov_k1.spectrum is st.cov_k0.spectrum
    assert not st.cov_k1.spectrum.flags.writeable


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
    with pytest.raises(ValidationError):
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
                     ("N_B", 0.0), ("N_B", math.nan),
                     # below the amplifier's noise floor G_B*(1-kappa_B) - 1 = 1101
                     ("N_B", 1100.9)]:
        kw = dict(good)
        kw[key] = bad
        with pytest.raises(ValidationError):
            SystemParams(**kw)
    # the quantum-limited amplifier itself, although its float floor is 1101.0000000000002
    SystemParams(**dict(good, N_B=1101.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg-inf"])
@pytest.mark.parametrize("field", ["W", "R", "kappa", "eta", "kappa_B", "G_B", "N_B", "beta"])
def test_parameters_refuse_non_finite_values(field, value):
    # W = inf once gave a key rate of -6e6 bit/s, and NaN or inf elsewhere
    # failed later with a message about a BER or a covariance
    with pytest.raises(ValidationError, match=f"^{field} must be finite"):
        replace(PARAMS, **{field: value})


def test_holevo_bound_is_total_just_above_the_noise_floor():
    # N_B a thousandth of a photon above the amplifier's floor G_B - 1, where
    # the 6x6 eigvals spectrum once fell below the vacuum floor
    params = SystemParams(W=1e6, R=1e6, kappa=0.5, eta=0.9, kappa_B=0.0, G_B=1e5, N_B=99999.001, beta=0.94)
    chi = holevo_bound(params, np.logspace(-6, 0, 40), 0.999999)
    assert np.all((chi >= 0.0) & (chi <= 1.0))


def _systems_at_the_noise_floor():
    # every system of the grid whose amplifier has a positive noise floor,
    # with N_B one part in 1e12 above it
    for r, m, kappa, g_b, kappa_b in itertools.product(
        (1e6, 1e8, 1e10), (1.0, 1e2, 1e4, 1e6), (0.01, 0.1, 0.5, 0.9), (2.0, 1e2, 1e4, 1e5), (0.0, 0.5, 0.9)
    ):
        floor = g_b * (1.0 - kappa_b) - 1.0
        if floor > 0.0:
            yield SystemParams(W=m * r, R=r, kappa=kappa, eta=0.9, kappa_B=kappa_b, G_B=g_b,
                               N_B=floor * (1.0 + 1e-12), beta=0.94)


@pytest.mark.parametrize("f_e", [0.99, 0.999])
def test_holevo_bound_is_total_at_the_noise_floor_of_every_grid_system(f_e):
    # the 6x6 eigvals spectrum fell below the vacuum floor on 12 of these
    # 480 systems at f_e = 0.999
    systems = list(_systems_at_the_noise_floor())
    assert len(systems) == 480
    grid = np.logspace(-6, 0, 40)
    for params in systems:
        chi = holevo_bound(params, grid, f_e)
        assert np.all((chi >= 0.0) & (chi <= 1.0)), params


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="the spectrum's float error dips below the vacuum floor as f_e -> 1 (ROADMAP items 2 and 9)")
def test_holevo_bound_is_total_at_the_noise_floor_as_f_e_nears_one():
    # at f_e = 0.999999 every kappa = 0.9 system of the grid above is still
    # refused, this one with an eigenvalue ~2.7e-8 below 1/4; item 9's
    # property replaces this record once item 2's route lands
    params = SystemParams(W=1e6, R=1e6, kappa=0.9, eta=0.9, kappa_B=0.0, G_B=2.0, N_B=1.0 + 1e-12, beta=0.94)
    try:
        chi = holevo_bound(params, np.logspace(-6, 0, 40), 0.999999)
    except ValidationError as exc:
        # the expected failure is the vacuum-floor refusal, and no other
        if not str(exc).startswith("symplectic eigenvalue below vacuum floor"):
            raise AssertionError(exc) from exc
        raise
    assert np.all((chi >= 0.0) & (chi <= 1.0))


def test_attack_state_spectra_match_a_50_digit_spectrum():
    # 300 attack states of random systems above the noise floor, against the
    # 50-digit spectrum of the same float matrices. Each eigenvalue is
    # within 8 eps |V| (backward-stable scale), and 99% are within
    # 2.5 eps nu_max: over twenty such samples the 99th percentile of
    # the Cholesky-and-SVD route is 1.8-2.3 and that of eigvals(Omega V)
    # 2.9-3.8, in units of eps nu_max.
    rng = np.random.default_rng(3707)
    eps = np.finfo(float).eps
    systems = list(_systems_at_the_noise_floor())
    scaled = []
    for _ in range(300):
        params = systems[rng.integers(len(systems))]
        floor = params.G_B * (1.0 - params.kappa_B) - 1.0
        params = replace(params, N_B=floor * (1.0 + 10.0 ** rng.uniform(-3.0, 1.0)))
        state = attack_state(params, 10.0 ** rng.uniform(-6.0, 0.0), rng.uniform(0.0, 0.95))
        for cov in (state.cov_k0, state.cov_uncond):
            exact = ou.block_spectrum(cov.entries)
            errors = np.array([float(abs(nu - ref)) for nu, ref in zip(symplectic_eigenvalues(cov).tolist(), exact)])
            assert errors.max() <= 8.0 * eps * np.linalg.norm(cov.entries, 2), params
            scaled.extend(errors / (eps * float(exact[0])))
    assert np.percentile(scaled, 99) <= 2.5


def test_injection_fraction_domain():
    with pytest.raises(ValidationError):
        attack_state(PARAMS, 0.01, 1.0)
    with pytest.raises(ValidationError):
        attack_state(PARAMS, 0.01, -1e-3)
