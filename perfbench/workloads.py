"""The benchmark's workloads: seeded inputs, the timed operation, output checks.

Every workload is a closed loop from one thread: the benchmark runs the next
operation when the previous one returns. Inputs are a pure function of the
workload name and the seed; the program receives only those inputs.

- monitor-nominal: simulate_monitor + estimate_fe trials at the operating
  point of the acceptance bias gate. Dead-time filtering dominates; ~1.2% of
  idler events fall within one dead time of their predecessor.
- monitor-saturated: the same source and event volume with a 5 us dead time
  (idler rate x dead time ~ 1.2, the saturation warning fires) and a 20 us
  accidental shift that clears the dead-time shadow. ~69% of events sit in
  short-gap clusters, the case a cluster-based dead-time filter leaves open.
- keyrate-grid: the four analytic CLI commands in-process on
  configs/default.json, then optimize_brightness over a seeded grid of
  (f_e, kappa) scenarios. The monitor does no work here.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np

import flqkd.cli
import flqkd.monitor
import flqkd.rates
from flqkd.config import load_run_config
from flqkd.monitor import MonitorCounts, MonitorSimConfig

# the acceptance bias gate's operating point (tests/test_acceptance.py)
_NOMINAL = dict(
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
    rng_seed=0,
)
_SATURATED = dict(_NOMINAL, dead_time=5e-6, shift_offset=2e-5)

# ~2.35e5 generated events/s, so a trial spans more than two segments of
# 4e6 events and exercises the carry-over between segments
TRIAL_SECONDS = 36.0
WARMUP_SECONDS = 1.0
# pooled estimator residual must lie within this many standard errors
POOLED_K = 5.0
INPUT_COUNT = 200

CLI_COMMANDS = {
    "rate-curve": "rate_curve.csv",
    "optimize": "optimize.csv",
    "ber-curve": "ber_curve.csv",
    "limit": "limit.csv",
}
CLI_REPEATS = 5
N_S_RANGE = (1e-5, 1.0)
GRID_POINTS = 64
F_E_STRATA = (0.0, 0.03, 6)
KAPPA_STRATA = (0.05, 0.3, 4)


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    width = (hi - lo) / n
    return [lo + (k + rng.random()) * width for k in range(n)]


class MonitorWorkload:
    primary = "trial"
    min_items = 2

    def __init__(self, name: str, params: dict, saturated: bool, seed: int):
        self.params = params
        self.saturated = saturated
        self.inputs = self.make_inputs(name, seed)
        self.base = None

    @staticmethod
    def make_inputs(name: str, seed: int) -> list[tuple[float, int]]:
        """(f_e_true, rng_seed) per trial; f_e stratified over [0, 1)."""
        rng = random.Random(f"{name}/{seed}")
        out = []
        while len(out) < INPUT_COUNT:
            values = _stratified(rng, 0.0, 1.0, 5)
            rng.shuffle(values)
            out.extend((round(f, 6), rng.getrandbits(63)) for f in values)
        return out[:INPUT_COUNT]

    def setup(self) -> None:
        self.base = MonitorSimConfig(**self.params, duration=TRIAL_SECONDS)
        warm = replace(self.base, duration=WARMUP_SECONDS, f_e_true=0.5)
        flqkd.monitor.estimate_fe(flqkd.monitor.simulate_monitor(warm))

    def items(self):
        for item in self.inputs:
            yield "trial", item

    def run(self, kind, item):
        f_e, rng_seed = item
        counts = flqkd.monitor.simulate_monitor(replace(self.base, f_e_true=f_e, rng_seed=rng_seed))
        estimate, sigma = flqkd.monitor.estimate_fe(counts)
        return counts, estimate, sigma

    def check(self, kind, item, out) -> bool:
        counts, estimate, sigma = out
        rates = (counts.s_a, counts.c_ia, counts.c_ia_shift, counts.s_b, counts.c_ib, counts.c_ib_shift)
        return (
            isinstance(counts, MonitorCounts)
            and counts.duration == TRIAL_SECONDS
            and all(math.isfinite(r) for r in rates)
            and math.isfinite(estimate)
            and math.isfinite(sigma)
            and sigma > 0.0
            # the saturation warning fires on the saturated idler only
            and any(w.startswith("idler") for w in counts.warnings) == self.saturated
        )

    def pooled_check(self, results) -> tuple[bool, dict]:
        """Mean residual (estimate - f_e_true) within POOLED_K standard errors."""
        if not results:
            return False, {}
        residuals = [out[1] - item[0] for item, out in results]
        se = math.sqrt(sum(out[2] ** 2 for _, out in results)) / len(results)
        z = (sum(residuals) / len(residuals)) / se
        return abs(z) <= POOLED_K, {"pooled_z": z, "pooled_trials": len(results)}

    def extra_metrics(self, samples: dict) -> dict:
        trials = samples.get("trial", [])
        return {"sim_s_per_wall_s": TRIAL_SECONDS * len(trials) / sum(trials) if trials else 0.0}


class KeyrateWorkload:
    primary = "optimize"
    min_items = CLI_REPEATS + 2

    def __init__(self, name: str, root: Path, seed: int):
        self.root = root
        self.inputs = self.make_inputs(name, seed)
        self.config_path = str(root / "configs" / "default.json")
        self.expected = {}
        self.scenarios = []
        self._first = {}

    @staticmethod
    def make_inputs(name: str, seed: int) -> list[tuple[float, float]]:
        """(f_e, kappa) scenarios: a jittered grid in a seeded order."""
        rng = random.Random(f"{name}/{seed}")
        f_es = _stratified(rng, *F_E_STRATA)
        kappas = _stratified(rng, *KAPPA_STRATA)
        grid = [(round(f, 8), round(k, 8)) for f in f_es for k in kappas]
        rng.shuffle(grid)
        return grid

    def setup(self) -> None:
        system = load_run_config(self.config_path).system
        self.scenarios = [(f_e, replace(system, kappa=kappa)) for f_e, kappa in self.inputs]
        for command, csv_name in CLI_COMMANDS.items():
            self.expected[command] = (self.root / "outputs" / csv_name).read_text(encoding="utf-8")
        f_e, params = self.scenarios[0]
        flqkd.rates.optimize_brightness(f_e, params, n_s_range=N_S_RANGE)

    def items(self):
        for _ in range(CLI_REPEATS):
            yield "cli", None
        while True:
            yield from (("optimize", i) for i in range(len(self.scenarios)))

    def run(self, kind, item):
        if kind == "cli":
            outputs = []
            for command in CLI_COMMANDS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = flqkd.cli.main([command, "--config", self.config_path])
                outputs.append((command, code, buf.getvalue()))
            return outputs
        f_e, params = self.scenarios[item]
        return flqkd.rates.optimize_brightness(f_e, params, n_s_range=N_S_RANGE)

    def _grid_best(self, item) -> float:
        f_e, params = self.scenarios[item]
        grid = np.logspace(math.log10(N_S_RANGE[0]), math.log10(N_S_RANGE[1]), GRID_POINTS)
        return max(flqkd.rates.skr_lower_bound(float(x), f_e, params).skr for x in grid)

    def check(self, kind, item, out) -> bool:
        if kind == "cli":
            # byte-equal to the committed reference tables
            return all(code == 0 and text == self.expected[cmd] for cmd, code, text in out)
        first = self._first.get(item)
        if first is not None:
            return out == first
        ok = (
            N_S_RANGE[0] <= out.n_s_opt <= N_S_RANGE[1]
            and math.isfinite(out.point.skr)
            and out.point.skr >= self._grid_best(item)
        )
        if ok:
            self._first[item] = out
        return ok

    def pooled_check(self, results) -> tuple[bool, dict]:
        return True, {}

    def extra_metrics(self, samples: dict) -> dict:
        cli = samples.get("cli", [])
        return {"cli_s": float(np.median(cli)) if cli else 0.0}


WORKLOADS = ("monitor-nominal", "monitor-saturated", "keyrate-grid")


def make_workload(name: str, root: Path, seed: int):
    if name == "monitor-nominal":
        return MonitorWorkload(name, _NOMINAL, False, seed)
    if name == "monitor-saturated":
        return MonitorWorkload(name, _SATURATED, True, seed)
    if name == "keyrate-grid":
        return KeyrateWorkload(name, root, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
