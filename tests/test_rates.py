"""Q-function, BER/information rates, optimizer, and repeaterless limit."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_utils as ou
from flqkd import rates
from flqkd.config import load_run_config
from flqkd.errors import ValidationError
from flqkd.eve import SystemParams, holevo_bound
from flqkd.rates import (
    ConfidenceSpec,
    _golden_max,
    alice_ber,
    f_e_upper_bound,
    optimize_brightness,
    pirandola_limit,
    q_function,
    search_grid,
    shannon_info,
    skr_lower_bound,
)

ROOT = Path(__file__).resolve().parents[1]
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


def _erfc(x):
    # erfc(x) = 2 Q(x sqrt 2): the package's Q-function read as erfc
    return 2.0 * q_function(x * math.sqrt(2.0))


def test_erfc_against_oracle():
    # carries the oracle out to x = 10, deep in the tail
    for x, ref in ou.ERFC_ORACLE.items():
        assert math.isclose(_erfc(x), ref, rel_tol=1e-13), x


def test_erfc_negative_symmetry():
    for x in (0.3, 1.0, 2.5, 6.0):
        assert math.isclose(_erfc(-x), 2.0 - _erfc(x), rel_tol=1e-14)
    for x, ref in ou.ERFC_ORACLE.items():
        assert math.isclose(_erfc(-x), 2.0 - ref, rel_tol=1e-13), x


def test_q_function_against_oracle():
    for x, ref in ou.Q_ORACLE.items():
        assert math.isclose(q_function(x), ref, rel_tol=1e-12), x


def test_q_function_negative_arguments():
    for x, ref in ou.Q_ORACLE.items():
        if x == 0.0:
            continue
        assert math.isclose(q_function(-x), 1.0 - ref, rel_tol=1e-12), x


@given(st.floats(min_value=-8.0, max_value=8.0))
def test_q_function_complement_identity(x):
    assert math.isclose(q_function(x) + q_function(-x), 1.0, rel_tol=0, abs_tol=1e-14)


def test_q_function_monotone_decreasing():
    xs = [-6.0, -2.0, -0.5, 0.0, 0.5, 2.0, 6.0]
    qs = [q_function(x) for x in xs]
    assert all(b < a for a, b in zip(qs, qs[1:]))


def test_alice_ber_anchor():
    assert math.isclose(alice_ber(0.01, PARAMS), ou.BER_AT_200PPB, rel_tol=1e-10)


def test_alice_ber_decreases_with_brightness():
    vals = [alice_ber(n, PARAMS) for n in (1e-4, 1e-3, 1e-2, 1e-1)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert alice_ber(0.0, PARAMS) == 0.5


def test_shannon_info_values():
    assert shannon_info(0.0) == 1.0
    assert shannon_info(0.5) == 0.0
    assert math.isclose(shannon_info(0.11), ou.SH_011, rel_tol=1e-12)
    assert math.isclose(shannon_info(0.11), shannon_info(0.89), rel_tol=1e-12)


def test_shannon_info_domain():
    for p in (-0.01, 1.01):
        with pytest.raises(ValidationError):
            shannon_info(p)


def test_rate_point_internal_consistency():
    pt = skr_lower_bound(0.01, 0.0027, PARAMS)
    assert pt.n_s == 0.01
    assert math.isclose(pt.ppb, 0.01 * PARAMS.W / PARAMS.R, rel_tol=1e-14)
    assert math.isclose(pt.i_ab, shannon_info(pt.ber), rel_tol=1e-14)
    assert math.isclose(pt.ske, PARAMS.beta * pt.i_ab - pt.chi_ub, rel_tol=1e-13)
    assert math.isclose(pt.skr, pt.ske * PARAMS.R, rel_tol=1e-14)


def test_skr_passive_point_keeps_leakage_term():
    pt = skr_lower_bound(0.01, 0.0, PARAMS)
    assert pt.chi_ub > 0.0
    assert pt.chi_ub == holevo_bound(PARAMS, 0.01, 0.0)
    assert pt.ske == pytest.approx(PARAMS.beta * pt.i_ab - pt.chi_ub, rel=1e-13)


def test_optimizer_finds_interior_maximum():
    res = optimize_brightness(0.0027, PARAMS, n_s_range=(1e-5, 1.0))
    assert res.positive_key
    assert 1e-5 < res.n_s_opt < 1.0
    best = res.point.skr
    # the objective carries ~2e-6 relative noise (eigenvalue round-off on the
    # near-vacuum modes, amplified by the M multiplier), so nearby probes may
    # nominally beat the returned optimum by up to that much
    for factor in (0.99, 0.995, 1.005, 1.01):
        probe = skr_lower_bound(res.n_s_opt * factor, 0.0027, PARAMS).skr
        assert probe <= best * (1.0 + 1e-5)
    for factor in (0.5, 2.0):
        assert skr_lower_bound(res.n_s_opt * factor, 0.0027, PARAMS).skr < best * 0.999


def test_optimizer_flags_no_positive_key():
    # a channel this noisy keeps beta*I below chi everywhere
    noisy = SystemParams(
        W=2.0e12, R=1e8, kappa=0.1, eta=0.9, kappa_B=0.71,
        G_B=3.8e3, N_B=9.7e5, beta=0.94,
    )
    res = optimize_brightness(0.3, noisy, n_s_range=(1e-5, 1.0))
    assert not res.positive_key
    assert res.point.skr <= 0.0


def test_optimizer_validates_range():
    with pytest.raises(ValidationError):
        optimize_brightness(0.0027, PARAMS, n_s_range=(1.0, 0.5))
    with pytest.raises(ValidationError):
        optimize_brightness(0.0027, PARAMS, n_s_range=(-1.0, 0.5))
    # an infinite end is refused before logspace runs, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"^need 0 <= lo < hi < inf, got "):
            optimize_brightness(0.0027, PARAMS, n_s_range=(1e-5, math.inf))


_RATE_FIELDS = ("n_s", "ppb", "ber", "i_ab", "chi_ub", "ske", "skr")


@pytest.mark.parametrize("f_e", [0.0, 0.0027, 0.3])
def test_array_rate_points_equal_scalar_calls_bit_for_bit(f_e):
    # the optimizer's own grid, from n_s = 0 up
    grid = search_grid((0.0, 1.0))
    assert grid[0] == 0.0 and grid[-1] == 1.0
    batch = skr_lower_bound(grid, f_e, PARAMS)
    for name in _RATE_FIELDS:
        assert getattr(batch, name).shape == grid.shape
    for k, x in enumerate(grid.tolist()):
        point = skr_lower_bound(x, f_e, PARAMS)
        for name in _RATE_FIELDS:
            value = getattr(point, name)
            assert type(value) is float, name
            assert value == getattr(batch, name)[k], (name, x)


def test_array_rate_point_keeps_its_shape():
    grid = np.array([[1e-3, 1e-2], [0.0, 0.1]])
    batch = skr_lower_bound(grid, 0.0027, PARAMS)
    assert batch.chi_ub.shape == (2, 2)
    assert batch.skr[1, 1] == skr_lower_bound(0.1, 0.0027, PARAMS).skr


@pytest.mark.parametrize("bad", [-1e-3, math.nan])
def test_array_with_one_bad_brightness_raises_like_the_scalar_call(bad):
    with pytest.raises(ValidationError) as scalar:
        skr_lower_bound(bad, 0.0027, PARAMS)
    grid = np.array([1e-3, 1e-2, bad, 0.1])
    with pytest.raises(type(scalar.value)):
        skr_lower_bound(grid, 0.0027, PARAMS)


@pytest.mark.parametrize("n_s_range", [(0.013, 1.0), (0.017, 1.0)])
def test_optimizer_stays_inside_its_range(n_s_range):
    # the optimum sits below these ranges, so the search ends at lo
    res = optimize_brightness(0.0027, PARAMS, n_s_range=n_s_range)
    assert n_s_range[0] <= res.n_s_opt <= n_s_range[1]
    assert res.n_s_opt == n_s_range[0]


def test_optimizer_returns_the_upper_end_exactly():
    res = optimize_brightness(0.0027, PARAMS, n_s_range=(1e-5, 1e-3))
    assert res.n_s_opt == 1e-3


def _assert_same_search(scalar_fun, lo, hi):
    """The batched search returns the frozen one-point search's float and
    asks for every point that search asks for."""
    batched_asked, frozen_asked = [], []

    def batched(xs):
        batched_asked.extend(xs.tolist())
        return np.array([scalar_fun(x) for x in xs.tolist()])

    def frozen(x):
        frozen_asked.append(x)
        return scalar_fun(x)

    got = _golden_max(batched, lo, hi)
    assert type(got) is float
    assert repr(got) == repr(ou.frozen_golden_max(frozen, lo, hi))
    assert set(frozen_asked) <= set(batched_asked)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=0.03),
    st.floats(min_value=-5.0, max_value=-0.2),
    st.floats(min_value=1.01, max_value=3.0),
)
# a bracket above the optimum: the search runs into its lower end
@example(0.0027, math.log10(0.013), 1.5)
def test_batched_golden_search_matches_one_point_search_on_the_rate(f_e, log_lo, ratio):
    lo = 10.0**log_lo
    _assert_same_search(lambda x: skr_lower_bound(x, f_e, PARAMS).skr, lo, lo * ratio)


_OBJECTIVES = {
    "constant": lambda m: lambda x: 1.0,
    # unimodal with flat steps: ties on every plateau
    "plateaus": lambda m: lambda x: -float(math.floor(abs(x - m) * 7.0)),
    "nan above the peak": lambda m: lambda x: math.nan if x > m else -((x - m) ** 2),
    "nan on every other step": lambda m: lambda x: math.nan if math.floor(x * 3.0) % 2 else -abs(x - m),
    "increasing": lambda m: lambda x: x,
    "decreasing": lambda m: lambda x: -x,
}


@given(
    st.sampled_from(sorted(_OBJECTIVES)),
    st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
    st.floats(min_value=1e-9, max_value=1e3, allow_subnormal=False),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_batched_golden_search_matches_one_point_search_on_ties_and_nans(kind, lo, width, at):
    hi = lo + width
    _assert_same_search(_OBJECTIVES[kind](lo + at * width), lo, hi)


_CLOSING_IN_ON_ZERO = """
import json
import oracle_utils as ou
from flqkd.rates import _golden_max
cases = {"-x on [0, w]": (lambda x: -x, 0.0, 2.5), "peak at 0": (lambda x: -abs(x), -1.0, 3.0)}
out = {}
for name, (fun, lo, hi) in cases.items():
    batched, frozen = [], []
    got = _golden_max(lambda xs: (batched.extend(xs.tolist()), fun(xs))[1], lo, hi)
    want = ou.frozen_golden_max(lambda x: (frozen.append(x), fun(x))[1], lo, hi)
    out[name] = [repr(got), repr(want), set(frozen) <= set(batched)]
print(json.dumps(out))
"""


def test_golden_search_closing_in_on_zero_ends():
    # the relative tolerance alone never ends these searches, so they run in
    # a child process that a hang cannot stall
    paths = [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run(
        [sys.executable, "-c", _CLOSING_IN_ON_ZERO], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    for name, (got, want, superset) in json.loads(child.stdout).items():
        assert got == want, name
        assert superset, name
        assert abs(float(got)) < 1e-300, name


def _keyrate_grid_scenarios():
    """(f_e, params): the centers of the benchmark's keyrate-grid strata,
    f_e in [0, 0.03) by 6 and kappa in [0.05, 0.3) by 4, on the default
    configuration."""
    system = load_run_config(str(ROOT / "configs" / "default.json")).system
    f_es = [0.03 * (k + 0.5) / 6 for k in range(6)]
    kappas = [0.05 + 0.25 * (k + 0.5) / 4 for k in range(4)]
    return [(f_e, replace(system, kappa=kappa)) for f_e in f_es for kappa in kappas]


def test_optimizer_batches_its_golden_steps(monkeypatch):
    # one grid call, the golden steps in batches of three, one final point:
    # 31 calls when each golden step made its own
    calls = []

    def counted(n_s, *args):
        calls.append(np.size(n_s))
        return skr_lower_bound(n_s, *args)

    monkeypatch.setattr(rates, "skr_lower_bound", counted)
    for f_e, params in _keyrate_grid_scenarios():
        calls.clear()
        rates.optimize_brightness(f_e, params, n_s_range=(1e-5, 1.0))
        assert len(calls) <= 13, (f_e, params.kappa, calls)
        assert calls[0] == 64 and calls[-1] == 1


def test_search_grid_ends_are_exact():
    assert search_grid((1e-5, 1.0))[0] == 1e-5
    grid = search_grid((0.013, 1.0))
    assert (grid[0], grid[-1], grid.size) == (0.013, 1.0, 64)
    assert np.all(np.diff(grid) > 0)
    zero = search_grid((0.0, 2.0))
    assert (zero[0], zero[1], zero[-1], zero.size) == (0.0, 2e-12, 2.0, 65)


def test_search_grid_needs_two_points():
    # a grid holds both ends of its range, so it needs two points
    for points in (1, 0):
        with pytest.raises(ValidationError, match=f"^need at least 2 grid points, got {points}$"):
            search_grid((1e-5, 1.0), points)
    for points in (2.5, True):
        with pytest.raises(ValidationError, match=f"^need an integer number of grid points, got {points}$"):
            search_grid((1e-5, 1.0), points)
    assert search_grid((1e-5, 1.0), 2).tolist() == [1e-5, 1.0]


def test_total_injection_leaves_no_key():
    for n_s in (0.0, 1e-3, 0.0089, 1.0):
        assert not skr_lower_bound(n_s, 1.0, PARAMS).ske > 0.0
    res = optimize_brightness(1.0, PARAMS)
    assert not res.positive_key
    assert res.point.chi_ub == 1.0


def test_pirandola_examples():
    assert math.isclose(pirandola_limit(0.1), ou.PIRANDOLA_01, rel_tol=1e-12)
    assert math.isclose(
        10.0 * math.log10(0.55 / pirandola_limit(0.1)), ou.DB_AT_055, rel_tol=1e-12
    )


def test_pirandola_domain():
    for kappa in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValidationError):
            pirandola_limit(kappa)


def test_f_e_upper_bound_examples():
    assert math.isclose(
        f_e_upper_bound(ConfidenceSpec(0.0007, 0.002, 1)), 0.0027, rel_tol=1e-12
    )
    assert math.isclose(
        f_e_upper_bound(ConfidenceSpec(0.0007, 0.002, 3)), 0.0067, rel_tol=1e-12
    )
    assert f_e_upper_bound(ConfidenceSpec(0.0007, 0.0, 5)) == 0.0007


def test_f_e_upper_bound_clamps():
    assert f_e_upper_bound(ConfidenceSpec(0.0, 0.0, 1)) == 0.0
    # a bound of 1 or more is f_e = 1, which holevo_bound defines
    assert f_e_upper_bound(ConfidenceSpec(0.9, 0.5, 3)) == 1.0
    assert f_e_upper_bound(ConfidenceSpec(0.99, 0.1, 1)) == 1.0


def test_confidence_spec_validation():
    # a negative measured value is legitimate noise around zero; the bound
    # clamps at zero after adding the sigma term
    assert f_e_upper_bound(ConfidenceSpec(-0.01, 0.002, 1)) == 0.0
    with pytest.raises(ValidationError):
        ConfidenceSpec(0.0007, -0.002, 1)
    for n_sigma in (0, True, 2.0):
        with pytest.raises(ValidationError, match="^n_sigma must be a positive integer"):
            ConfidenceSpec(0.0007, 0.002, n_sigma)


@pytest.mark.parametrize(
    "f_e_hat, sigma, n_sigma",
    [
        (math.nan, 0.1, 1),
        (math.inf, 0.0, 1),
        (-math.inf, 0.1, 1),
        (0.0, math.nan, 1),
        (0.0, math.inf, 1),
        (0.0, 0.1, math.inf),
        (0.0, 0.1, math.nan),
        (0.0, 0.1, 10**400),
    ],
    ids=[
        "f_e_hat-nan", "f_e_hat-inf", "f_e_hat-neg-inf", "sigma-nan", "sigma-inf",
        "n_sigma-inf", "n_sigma-nan", "n_sigma-beyond-float",
    ],
)
def test_confidence_spec_refuses_non_finite_values(f_e_hat, sigma, n_sigma):
    # each passed, or failed outside the package's errors
    with pytest.raises(ValidationError, match="must be finite"):
        ConfidenceSpec(f_e_hat, sigma, n_sigma)
