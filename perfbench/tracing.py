"""In-memory span tracer for the benchmark's traced run.

The tracer replaces functions of the program where the program looks them up
(a module attribute read at call time), records one span per call (name,
start, end, parent span, trial id) plus counts taken at the same boundary,
and puts the originals back when it is uninstalled. A name the program no
longer has is reported as an absent layer.

Each target below names the span and every module attribute through which
the program reaches that layer; patching only the defining module would miss
the calls made through names imported elsewhere.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# span name -> the (module, attribute) pairs the program calls it through
TARGETS = (
    ("monitor.simulate", (("flqkd.monitor", "_simulate"),)),
    ("monitor.gen", (("flqkd.monitor", "_poisson_times"),)),
    ("monitor.merge", (("flqkd.monitor", "_merge_sorted"),)),
    ("kernels.dead_time", (("flqkd.monitor", "dead_time_filter"),)),
    ("kernels.coinc", (("flqkd.monitor", "count_coincidences"),)),
    ("monitor.estimate_fe", (("flqkd.monitor", "estimate_fe"),)),
    ("rates.optimize", (("flqkd.rates", "optimize_brightness"), ("flqkd.cli", "optimize_brightness"))),
    ("rates.skr_lower_bound", (("flqkd.rates", "skr_lower_bound"),)),
    ("rates.alice_ber", (("flqkd.rates", "alice_ber"), ("flqkd.cli", "alice_ber"))),
    ("eve.holevo_bound", (("flqkd.rates", "holevo_bound"), ("flqkd.cli", "holevo_bound"))),
    ("eve.attack_state", (("flqkd.eve", "attack_state"),)),
    ("gaussian.von_neumann_entropy", (("flqkd.eve", "von_neumann_entropy"),)),
    ("config.load_run_config", (("flqkd.cli", "load_run_config"),)),
    ("output.render", (("flqkd.cli", "render_csv"), ("flqkd.cli", "render_svg"))),
    ("cli.main", (("flqkd.cli", "main"),)),
)

# time the tracer spends on its own analysis; excluded from every self time
ANALYSIS = "trace.analysis"


def _count_gen(tracer, args, result):
    tracer.counts["monitor.gen.events"] += result.size


def _count_merge(tracer, args, result):
    # the extra inputs are idler events whose partner was also detected; each
    # such event enters two detectors' streams
    tracer.counts["monitor.merge.paired_events"] += sum(a.size for a in args[1:])


def _count_dead_time(tracer, args, result):
    times, dead_time = args[0], args[1]
    counts = tracer.counts
    counts["kernels.dead_time.events_in"] += times.size
    counts["kernels.dead_time.kept"] += result[0].size
    with tracer.span(ANALYSIS):
        counts["kernels.dead_time.short_gaps"] += int(np.count_nonzero(np.diff(times) < dead_time))


def _count_coinc(tracer, args, result):
    counts = tracer.counts
    counts["kernels.coinc.triggers"] += args[0].size
    counts["kernels.coinc.partner_events"] += args[1].size
    counts["kernels.coinc.hits"] += int(result)


_COUNTERS = {
    "monitor.gen": _count_gen,
    "monitor.merge": _count_merge,
    "kernels.dead_time": _count_dead_time,
    "kernels.coinc": _count_coinc,
}


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        # (name, start, end, parent index or -1, trial id)
        self.spans: list = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.trial = -1
        self.analysis_s = 0.0
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, name, start, parent) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.trial)

    @contextlib.contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start, parent)
            if name == ANALYSIS:
                self.analysis_s += self.spans[idx][2] - start

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name, start, parent)
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = []
        try:
            for name, sites in self.targets:
                for module_name, attr in sites:
                    try:
                        module = importlib.import_module(module_name)
                    except ImportError:
                        self.absent.add(f"{name} ({module_name}.{attr})")
                        continue
                    original = getattr(module, attr, None)
                    if original is None:
                        self.absent.add(f"{name} ({module_name}.{attr})")
                        continue
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = min((s[1] for s in self.spans), default=0.0)
        return {
            "span_names": names,
            "span_fields": ["name", "start_ns", "end_ns", "parent", "trial"],
            "spans": [
                [index[n], round((a - origin) * 1e9), round((b - origin) * 1e9), p, t]
                for n, a, b, p, t in self.spans
            ],
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


def span_totals(spans) -> tuple[dict, dict, dict]:
    """Inclusive time, self time and call count per span name.

    A span's self time is its duration minus the durations of its direct
    children; on one thread the children never overlap, so they cover
    exactly that much of the parent's interval.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_time: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    for (name, start, end, _, _), cover in zip(spans, covered):
        inclusive[name] += end - start
        self_time[name] += end - start - cover
        calls[name] += 1
    return inclusive, self_time, calls


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Per-trial values divide by the traced monitor trials; per-call values by
    the calls of that layer. A layer that did not run on this workload, or
    that the program no longer has, reads 0.
    """
    inclusive, self_time, calls = span_totals(tracer.spans)
    c = tracer.counts

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def per_call(name, scale):
        return ratio(inclusive[name], calls[name], scale)

    trials = calls["op.trial"]
    cli_calls = calls["cli.main"]
    dead_in = c["kernels.dead_time.events_in"]
    triggers = c["kernels.coinc.triggers"]
    partners = c["kernels.coinc.partner_events"]
    optimize_evals = sum(
        1 for name, _, _, parent, _ in tracer.spans
        if name == "rates.skr_lower_bound" and parent >= 0
        and tracer.spans[parent][0] == "rates.optimize"
    )
    return {
        "kernels.dead_time.s_per_trial": ratio(inclusive["kernels.dead_time"], trials),
        "kernels.dead_time.ns_per_event": ratio(inclusive["kernels.dead_time"], dead_in, 1e9),
        "kernels.dead_time.events_in": ratio(dead_in, trials),
        "kernels.dead_time.kept_frac": ratio(c["kernels.dead_time.kept"], dead_in),
        "kernels.dead_time.short_gap_frac": ratio(c["kernels.dead_time.short_gaps"], dead_in),
        "monitor.simulate.s_per_trial": ratio(inclusive["monitor.simulate"], trials),
        "monitor.self.s_per_trial": ratio(self_time["monitor.simulate"], trials),
        "monitor.gen.s_per_trial": ratio(inclusive["monitor.gen"], trials),
        "monitor.gen.events": ratio(c["monitor.gen.events"], trials),
        "monitor.merge.s_per_trial": ratio(inclusive["monitor.merge"], trials),
        "monitor.merge.calls_per_trial": ratio(calls["monitor.merge"], trials),
        "kernels.coinc.s_per_trial": ratio(inclusive["kernels.coinc"], trials),
        "kernels.coinc.ns_per_trigger": ratio(inclusive["kernels.coinc"], triggers, 1e9),
        "kernels.coinc.triggers": ratio(triggers, trials),
        "kernels.coinc.partner_events": ratio(partners, trials),
        "kernels.coinc.hits": ratio(c["kernels.coinc.hits"], trials),
        "monitor.useful_event_frac": ratio(c["kernels.coinc.hits"], c["monitor.gen.events"]),
        "kernels.bytes_in_computed": ratio(8 * (dead_in + triggers + partners), trials),
        "monitor.estimate_fe.us_per_call": per_call("monitor.estimate_fe", 1e6),
        "rates.optimize.evals_per_call": ratio(optimize_evals, calls["rates.optimize"]),
        "rates.skr_lower_bound.us_per_call": per_call("rates.skr_lower_bound", 1e6),
        "eve.holevo_bound.us_per_call": per_call("eve.holevo_bound", 1e6),
        "eve.attack_state.us_per_call": per_call("eve.attack_state", 1e6),
        "gaussian.von_neumann_entropy.us_per_call": per_call("gaussian.von_neumann_entropy", 1e6),
        "rates.alice_ber.us_per_call": per_call("rates.alice_ber", 1e6),
        "config.load_run_config.ms": ratio(inclusive["config.load_run_config"], cli_calls, 1e3),
        "output.render.ms": ratio(inclusive["output.render"], cli_calls, 1e3),
        "cli.self.ms": ratio(self_time["cli.main"], cli_calls, 1e3),
        "cli.main.ms": ratio(inclusive["cli.main"], cli_calls, 1e3),
        "trace.overhead_frac": overhead_frac,
    }


def self_time_ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Span names by total self time, largest first (seconds)."""
    _, self_time, _ = span_totals(tracer.spans)
    return sorted(self_time.items(), key=lambda kv: kv[1], reverse=True)
