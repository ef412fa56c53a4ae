"""Paired A/B trials of a base tree against this tree, in one process.

Usage, from the repository root:

    python3 tools/ab_trials.py --base ../flqkd-parent --workload monitor-saturated --trials 60

--base names a checkout of the tree to compare against (for example a
`git archive` of the parent commit). Both trees' `src/flqkd` packages are
copied into a temporary directory under two names and imported side by
side. The trials are the benchmark's own operations on the inputs that
perfbench/workloads.py makes for --workload and --seed: a simulate_monitor
+ estimate_fe trial for the monitor workloads, one optimize_brightness call
for keyrate-grid. Each pair runs the same input on both trees, alternating
which tree goes first, and the two results must be equal: for a monitor
trial, the simulator's six rates, duration and warnings, by name, so that
trees that store MonitorCounts differently still compare; for keyrate-grid,
the repr of the result. The estimate is timed but not compared, since its
last digit may move with its arithmetic; the Tier-1 suite checks it against
exact rationals. The report gives each side's
median time, the median paired ratio (this tree over the base) with its
quartiles, and how many pairs this tree won.

It also gives each side's traced peak: the most memory one untimed
operation on the first input had allocated at once, as tracemalloc counts
it (numpy reports its array buffers there). An allocation's size does not
depend on the heap it comes from, so this compares the two code paths'
memory exactly. The two trees do share one heap here, so a change in the
resident memory a trial maps and unmaps, and in the page faults that
follow, shows up on both sides or on neither. A claim about the benchmark's
metrics still rests on interleaved `perfbench/run.py` runs; this tool
resolves smaller differences in the computation itself, and checks the
results on the way.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (read-only: inputs and operating points)


def _load_copy(src: Path, name: str, tmp: Path):
    """Import the flqkd package at src under the top-level name `name`."""
    shutil.copytree(src, tmp / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


# what a monitor trial's result must agree on across the two trees
_COMPARED = ("s_a", "c_ia", "c_ia_shift", "s_b", "c_ib", "c_ib_shift", "duration", "warnings")


def _trial(pkg, wl):
    """The timed operation of the workload wl, made by the package pkg."""
    if isinstance(wl, workloads.MonitorWorkload):
        monitor = importlib.import_module(f"{pkg.__name__}.monitor")
        base = monitor.MonitorSimConfig(**wl.params, duration=workloads.TRIAL_SECONDS)

        def run(item):
            f_e, rng_seed = item
            counts = monitor.simulate_monitor(replace(base, f_e_true=f_e, rng_seed=rng_seed))
            monitor.estimate_fe(counts)
            return {name: getattr(counts, name) for name in _COMPARED}

        return run
    config = importlib.import_module(f"{pkg.__name__}.config")
    rates = importlib.import_module(f"{pkg.__name__}.rates")
    system = config.load_run_config(wl.config_path).system

    def run(item):
        f_e, kappa = item
        return rates.optimize_brightness(f_e, replace(system, kappa=kappa), n_s_range=workloads.N_S_RANGE)

    return run


def _traced_peak(run, item) -> int:
    """The peak of what run(item) allocates, in bytes."""
    tracemalloc.start()
    try:
        run(item)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _timed(run, item):
    start = time.perf_counter()
    out = run(item)
    return time.perf_counter() - start, repr(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path, help="root of the tree to compare against")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--trials", type=int, default=40, help="pairs to run")
    parser.add_argument("--seed", type=int, default=1, help="seed of the workload's inputs")
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    wl = workloads.make_workload(args.workload, ROOT, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        runs = {
            side: _trial(_load_copy(root / "src" / "flqkd", f"flqkd_ab_{side}", Path(tmp)), wl)
            for side, root in (("base", args.base.resolve()), ("head", ROOT))
        }
        # one untimed operation each, so that neither side pays for first
        # use, then one more each under tracemalloc; numpy's lazy imports
        # are shared, so the first side would pay for them in its peak
        for run in runs.values():
            run(wl.inputs[0])
        peaks = {side: _traced_peak(run, wl.inputs[0]) for side, run in runs.items()}
        times = {"base": [], "head": []}
        for k in range(args.trials):
            item = wl.inputs[k % len(wl.inputs)]
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            outs = {}
            for side in order:
                elapsed, outs[side] = _timed(runs[side], item)
                times[side].append(elapsed)
            if outs["base"] != outs["head"]:
                print(f"results differ on {item!r}:\n  base {outs['base']}\n  head {outs['head']}", file=sys.stderr)
                return 1

    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    quartiles = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{args.workload}, seed {args.seed}: {args.trials} pairs, results equal")
    print(f"traced peak MB: base {peaks['base'] / 1e6:.3f}, head {peaks['head'] / 1e6:.3f}")
    print(
        f"median s: base {statistics.median(times['base']):.5f}, "
        f"head {statistics.median(times['head']):.5f}"
    )
    print(
        f"head/base: median {statistics.median(ratios):.3f}, "
        f"quartiles [{quartiles[0]:.3f}, {quartiles[2]:.3f}], "
        f"head faster in {sum(r < 1.0 for r in ratios)} of {len(ratios)}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
