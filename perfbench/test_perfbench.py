"""Tests of the benchmark's own code: tracer arithmetic, patching, counts and
seeded inputs. Run with the repository's pytest command."""

from __future__ import annotations

import importlib
import json
from dataclasses import replace
from pathlib import Path

import flqkd.config
import flqkd.monitor
import flqkd.rates
import pytest

import reference
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_covered_children():
    spans = [
        ("op", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("b", 2.0, 3.0, 1, 0),
        ("a", 5.0, 6.0, 0, 0),
        ("op", 20.0, 21.0, -1, 1),
    ]
    inclusive, self_time, calls = tracing.span_totals(spans)
    assert inclusive == {"op": 11.0, "a": 4.0, "b": 1.0}
    # op: 10 - (3 + 1) + 1; a: (3 - 1) + 1; b has no children
    assert self_time == {"op": 7.0, "a": 3.0, "b": 1.0}
    assert calls == {"op": 2, "a": 2, "b": 1}


def _current(sites):
    return [getattr(importlib.import_module(m), a) for m, a in sites]


def test_wrappers_restore_originals():
    sites = [site for _, layer_sites in tracing.TARGETS for site in layer_sites]
    before = _current(sites)
    tracer = tracing.Tracer()
    with tracer.installed():
        during = _current(sites)
        assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(_current(sites), before))
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_current(sites), before))
    assert not tracer.absent


def test_missing_names_are_absent_layers_not_errors():
    targets = tracing.TARGETS + (
        ("gone.attr", (("flqkd.monitor", "_no_such_function"),)),
        ("gone.module", (("flqkd._no_such_module", "f"),)),
    )
    tracer = tracing.Tracer(targets)
    with tracer.installed():
        pass
    assert tracer.absent == {
        "gone.attr (flqkd.monitor._no_such_function)",
        "gone.module (flqkd._no_such_module.f)",
    }
    assert not hasattr(flqkd.monitor, "_no_such_function")


def _traced_trial(params, duration):
    cfg = flqkd.monitor.MonitorSimConfig(**params, duration=duration)
    plain = flqkd.monitor.simulate_monitor(replace(cfg, f_e_true=0.5, rng_seed=7))
    tracer = tracing.Tracer()
    tracer.trial = 0
    with tracer.installed(), tracer.span("op.trial"):
        counts = flqkd.monitor.simulate_monitor(replace(cfg, f_e_true=0.5, rng_seed=7))
        flqkd.monitor.estimate_fe(counts)
    assert counts == plain
    return tracer, tracing.layer_metrics(tracer, 0.0)


@pytest.mark.parametrize("params", [workloads._NOMINAL, workloads._SATURATED])
def test_traced_counts_agree(params):
    tracer, m = _traced_trial(params, 0.5)
    c = tracer.counts
    # every generated event enters one detector, paired idler events two
    assert c["kernels.dead_time.events_in"] == c["monitor.gen.events"] + c["monitor.merge.paired_events"]
    assert m["kernels.dead_time.events_in"] == c["kernels.dead_time.events_in"]
    assert 0 < c["kernels.coinc.hits"] <= c["kernels.coinc.triggers"]
    assert 0 < c["kernels.dead_time.kept"] <= c["kernels.dead_time.events_in"]
    assert m["monitor.merge.calls_per_trial"] == 1.0
    assert m["monitor.estimate_fe.us_per_call"] > 0.0
    # self times of the whole trial add up to its inclusive time
    inclusive, self_time, _ = tracing.span_totals(tracer.spans)
    assert sum(self_time.values()) == pytest.approx(inclusive["op.trial"], rel=1e-9)
    assert all(t >= 0.0 for t in self_time.values())
    assert all(s[4] == 0 for s in tracer.spans)


def test_short_gap_fraction_separates_the_monitor_workloads():
    _, nominal = _traced_trial(workloads._NOMINAL, 0.2)
    _, saturated = _traced_trial(workloads._SATURATED, 0.2)
    assert saturated["kernels.dead_time.short_gap_frac"] > 10 * nominal["kernels.dead_time.short_gap_frac"]


def test_optimizer_evaluations_are_counted_per_call():
    system = flqkd.config.load_run_config(str(ROOT / "configs" / "default.json")).system
    tracer = tracing.Tracer()
    with tracer.installed():
        flqkd.rates.optimize_brightness(0.003, system)
        flqkd.rates.optimize_brightness(0.01, system)
    m = tracing.layer_metrics(tracer, 0.0)
    _, _, calls = tracing.span_totals(tracer.spans)
    assert m["rates.optimize.evals_per_call"] == calls["rates.skr_lower_bound"] / 2
    assert calls["eve.holevo_bound"] == calls["rates.skr_lower_bound"]
    assert calls["gaussian.von_neumann_entropy"] == 3 * calls["eve.holevo_bound"]


def test_reference_scaling_follows_the_samples_around_a_time():
    r = reference.REFERENCE_S
    assert reference.scale(2.0, r, r) == pytest.approx(2.0)
    # on a host at half speed the reference takes twice as long
    assert reference.scale(2.0, 2 * r, 2 * r) == pytest.approx(1.0)
    assert reference.scale(3.0, r, 2 * r) == pytest.approx(2.0)
    assert reference.Reference().sample() > 0.0


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    a = workloads.make_workload(name, ROOT, 3).inputs
    b = workloads.make_workload(name, ROOT, 3).inputs
    c = workloads.make_workload(name, ROOT, 4).inputs
    assert a == b
    assert a != c


def test_keyrate_cli_outputs_match_committed_tables():
    wl = workloads.make_workload("keyrate-grid", ROOT, 1)
    wl.setup()
    assert wl.check("cli", None, wl.run("cli", None))
    assert wl.check("optimize", 0, wl.run("optimize", 0))


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    per_layer = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert list(per_layer) == [m["name"] for m in spec["per_layer"]]
    child = {"op_s_p50": 1.0, "ops_per_s": 1.0}
    assert list(run.end_to_end(child, [1.0], 1.0)) == [m["name"] for m in spec["end_to_end"]]
