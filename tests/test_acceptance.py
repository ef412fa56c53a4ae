"""Acceptance gate: every headline number and invariant, one verdict line each.

Each test prints a PASS/FAIL line to the terminal (outside pytest capture) so
a full run yields a human-readable scorecard. The key-rate criteria are
checked under both readings of the default operating point, since the quoted
bandwidth (2.2 THz) and mode count (2.0e4 at R = 100 Mbit/s) disagree by 10%:
both must land inside the +-10% tolerance.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np

import oracle_utils as ou
from flqkd.cli import main
from flqkd.eve import SystemParams, attack_state, holevo_bound
from flqkd.gaussian import Covariance3Mode, symplectic_eigenvalues, von_neumann_entropy
from flqkd.monitor import MonitorSimConfig, sweep_injection
from flqkd.rates import alice_ber, optimize_brightness, pirandola_limit, q_function

_COMMON = dict(kappa=0.1, eta=0.9, kappa_B=0.71, G_B=3.8e3, N_B=9.7e3, beta=0.94)
# W = 2.2 THz reading (M = 22000) and M = 2.0e4 reading (W = 2.0 THz)
PARAM_SETS = {
    "M=22000": SystemParams(W=2.2e12, R=1e8, **_COMMON),
    "M=20000": SystemParams(W=2.0e12, R=1e8, **_COMMON),
}

BIAS_CONFIG = MonitorSimConfig(
    pair_rate=2.46e5,
    ase_rate_at_source=2.46e5,
    kappa=0.9,
    f_e_true=0.0,
    tap_alice=1e-3,
    tap_bob=1e-3,
    det_eff_idler=0.95,
    det_eff_alice=0.95,
    det_eff_bob=0.95,
    dead_time=5e-8,
    coinc_window=1e-9,
    shift_offset=2e-7,
    duration=51.0,
    rng_seed=271828,
)


def _report(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_headline_active_key_rate(capsys):
    t0 = time.perf_counter()
    results = {}
    for label, params in PARAM_SETS.items():
        res = optimize_brightness(0.0027, params)
        results[label] = (res.point.skr, res.point.ske)
    wall = time.perf_counter() - t0
    ok = wall < 5.0
    for label, (skr, ske) in results.items():
        ok = ok and abs(skr - 55e6) <= 0.10 * 55e6 and abs(ske - 0.55) <= 0.10 * 0.55
    detail = "; ".join(
        f"{lbl}: skr={skr / 1e6:.2f} Mbit/s, ske={ske:.4f}" for lbl, (skr, ske) in results.items()
    )
    _report(capsys, "headline active rate (55 Mbit/s, 0.55 b/use, <5s)", ok,
            f"{detail}; wall={wall:.2f}s")


def test_passive_key_rate(capsys):
    ok = True
    details = []
    for label, params in PARAM_SETS.items():
        res = optimize_brightness(0.0, params)
        skr, ske = res.point.skr, res.point.ske
        ok = ok and abs(skr - 66e6) <= 0.10 * 66e6 and abs(ske - 0.66) <= 0.10 * 0.66
        details.append(f"{label}: skr={skr / 1e6:.2f} Mbit/s, ske={ske:.4f}")
    _report(capsys, "passive rate (66 Mbit/s, 0.66 b/use)", ok, "; ".join(details))


def test_confidence_ladder(capsys):
    targets = {2: 49e6, 3: 43e6, 4: 38e6, 5: 34e6}
    ok = True
    details = []
    for label, params in PARAM_SETS.items():
        skrs = []
        for n in (1, 2, 3, 4, 5):
            f_e = 7e-4 + n * 2e-3
            skrs.append(optimize_brightness(f_e, params).point.skr)
        ok = ok and all(b < a for a, b in zip(skrs, skrs[1:]))  # strict ordering
        for n, target in targets.items():
            ok = ok and abs(skrs[n - 1] - target) <= 0.10 * target
        details.append(label + ": " + "/".join(f"{s / 1e6:.1f}" for s in skrs[1:]))
    _report(capsys, "confidence ladder (49/43/38/34 Mbit/s, decreasing)", ok, "; ".join(details))


def test_repeaterless_limit_comparison(capsys):
    limit = pirandola_limit(0.1)
    adv = 10.0 * math.log10(0.55 / limit)
    ok = abs(limit - 0.15200) <= 1e-4 and abs(adv - 5.6) <= 0.1
    _report(capsys, "one-way limit (0.15200 b/mode, 5.6 dB at ske=0.55)", ok,
            f"limit={limit:.6f}, advantage={adv:.3f} dB")


def test_gaussian_oracle_suite(capsys):
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        v, known = ou.random_physical_covariance(rng)
        pkg = np.asarray(symplectic_eigenvalues(Covariance3Mode(v)))
        bf = ou.brute_force_spectrum(v)
        worst = max(worst, float(np.max(np.abs(pkg - bf) / bf)))
        worst = max(worst, float(np.max(np.abs(pkg - known) / known)))
    worst_entropy = 0.0
    for _ in range(20):
        v, _ = ou.random_physical_covariance(rng, pure=True)
        worst_entropy = max(worst_entropy, von_neumann_entropy(Covariance3Mode(v)))
    ok = worst < 1e-9 and worst_entropy < 1e-8
    _report(capsys, "gaussian oracle suite (100 spectra @1e-9, 20 pure @1e-8)", ok,
            f"worst spectrum dev={worst:.2e}, worst pure entropy={worst_entropy:.2e}")


def test_bit_symmetry_and_holevo_range(capsys):
    params = PARAM_SETS["M=20000"]
    rng = np.random.default_rng(97)
    worst = 0.0
    chi_ok = True
    for _ in range(50):
        n_s = 10.0 ** rng.uniform(-4, 0)
        f_e = 10.0 ** rng.uniform(-5, -0.31)
        state = attack_state(params, n_s, f_e)
        nu0 = np.asarray(symplectic_eigenvalues(state.cov_k0))
        # V_1 shares V_0's spectrum, so V_1 is validated afresh for the check
        nu1 = np.asarray(symplectic_eigenvalues(np.array(state.cov_k1.entries)))
        worst = max(worst, float(np.max(np.abs(nu0 - nu1) / nu1)))
        chi = holevo_bound(params, n_s, f_e)
        chi_ok = chi_ok and 0.0 <= chi <= 1.0
    ok = worst < 1e-10 and chi_ok
    _report(capsys, "bit symmetry (50 draws @1e-10) and holevo in [0,1]", ok,
            f"worst spectrum split={worst:.2e}, range ok={chi_ok}")


def test_ber_and_q_function_oracles(capsys):
    params = PARAM_SETS["M=20000"]  # the 200 photons/bit anchor assumes M = 2e4
    ber = alice_ber(0.01, params)
    ber_dev = abs(ber - ou.BER_AT_200PPB) / ou.BER_AT_200PPB
    q_dev = 0.0
    for x, ref in ou.Q_ORACLE.items():
        q_dev = max(q_dev, abs(q_function(x) - ref) / ref)
        if x > 0.0:
            q_dev = max(q_dev, abs(q_function(-x) - (1.0 - ref)) / (1.0 - ref))
    ok = ber_dev < 1e-10 and q_dev < 1e-12
    _report(capsys, "BER anchor @1e-10 and q_function @1e-12 on |x|<=8", ok,
            f"ber={ber:.8f} (dev {ber_dev:.1e}), worst q dev={q_dev:.1e}")


def test_monitor_estimator_bias(capsys):
    cfg = BIAS_CONFIG
    det_i = cfg.pair_rate * cfg.det_eff_idler
    expected_a = det_i * cfg.tap_alice * cfg.det_eff_alice * cfg.duration
    expected_b = (
        det_i * (1 - cfg.tap_alice) * cfg.kappa * cfg.tap_bob * cfg.det_eff_bob * cfg.duration
    )
    assert expected_a >= 1e4 and expected_b >= 1e4  # duration sizing

    t0 = time.perf_counter()
    rows = sweep_injection(cfg, [0.0, 0.25, 0.5, 0.75, 1.0], trials=24)
    wall = time.perf_counter() - t0
    ok = wall < 120.0
    worst = 0.0
    for r in rows:
        tol = 3.0 * r.std_dev / math.sqrt(r.trials)
        worst = max(worst, abs(r.mean_estimate - r.f_e_true) / tol)
        ok = ok and abs(r.mean_estimate - r.f_e_true) <= tol
    _report(capsys, "monitor bias (5 fractions, 24 trials, 3 sigma/sqrt(n), <2min)", ok,
            f"worst |bias|/tol={worst:.2f}, wall={wall:.1f}s")


def test_monitor_calibration_free(capsys):
    base = replace(BIAS_CONFIG, duration=30.0, f_e_true=0.5)

    def suite(cfg, seed):
        row = sweep_injection(replace(cfg, rng_seed=seed), [0.5], trials=16)[0]
        return row.mean_estimate, row.std_dev / math.sqrt(row.trials)

    m0, se0 = suite(base, 271828)
    perturbations = [
        ("kappa/2", replace(base, kappa=0.45), 271829),
        ("det_eff_bob/2", replace(base, det_eff_bob=0.475), 271830),
        ("ase*2", replace(base, ase_rate_at_source=4.92e5), 271831),
    ]
    ok = True
    details = []
    for name, cfg, seed in perturbations:
        m1, se1 = suite(cfg, seed)
        combined = math.sqrt(se0**2 + se1**2)
        ratio = abs(m1 - m0) / (3.0 * combined)
        ok = ok and abs(m1 - m0) < 3.0 * combined
        details.append(f"{name}: shift/3se={ratio:.2f}")
    _report(capsys, "calibration-free invariance (3 perturbation suites)", ok, ", ".join(details))


def test_cli_determinism(capsys, tmp_path):
    cfg = {
        "system": {"kappa": 0.5},
        "sweep": {"points": 16},
        "monitor": {
            "pair_rate": 2e5, "ase_rate_at_source": 2e5,
            "duration": 1.5, "trials": 2, "sweep_f_e": [0.5], "rng_seed": 4242,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    ok = True
    for command in ("rate-curve", "optimize", "ber-curve", "monitor-sim", "limit"):
        pair = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}.csv"
            code = main([command, "--config", str(path), "--out", str(out)])
            assert code == 0
            pair.append(out.read_bytes())
        ok = ok and pair[0] == pair[1]
    capsys.readouterr()
    _report(capsys, "determinism (all 5 commands byte-identical on re-run)", ok,
            "rate-curve/optimize/ber-curve/monitor-sim/limit re-run compared")
