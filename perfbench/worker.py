"""One workload in its own process; prints one JSON result line on stdout.

--mode setup only sets up; --mode memory sets up and runs each kind of
operation once, for peak RSS; --mode measure does the same, untimed, then
runs the closed loop for --seconds, sampling the host-speed reference
(reference.py) between operations. run.py starts this script; it is not
meant to be called by hand. setup_s is counted from the first line of this
file, so it includes importing flqkd.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flqkd  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

_MAX_TRACEBACKS = 3


def _percentiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        value = samples[0] if samples else 0.0
        return value, value
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), deciles[-1]


def _op_stats(samples: list[float], prefix: str) -> dict[str, float]:
    p50, p90 = _percentiles(samples)
    return {
        f"{prefix}op_s_p50": p50,
        f"{prefix}op_s_p90": p90,
        f"{prefix}ops_per_s": len(samples) / sum(samples) if samples else 0.0,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _backend() -> str:
    kernels = sys.modules.get("flqkd._kernels")
    backend = getattr(kernels, "backend", None)
    return backend() if backend is not None else "absent"


def run_each_kind_once(wl) -> None:
    """One full-size operation of each kind, untimed: the first one pays for
    growing the heap, which later operations reuse."""
    seen = set()
    for kind, item in wl.items():
        if kind not in seen:
            wl.run(kind, item)
            seen.add(kind)
        if kind == wl.primary:
            return


@contextlib.contextmanager
def _tracing(tracer: tracing.Tracer, kind: str):
    with tracer.installed(), tracer.span(f"op.{kind}"):
        yield


def measure(wl, seconds: float, trace: bool, tracer: tracing.Tracer, ref: reference.Reference) -> dict:
    samples: dict[str, list[float]] = {}
    scaled: dict[str, list[float]] = {}
    # untraced operations timed since the last reference sample, scaled once
    # the sample after them is taken
    pending: list[tuple[str, float]] = []
    ref_samples = [ref.sample()]
    last_ref = time.perf_counter()

    def sample_reference():
        nonlocal last_ref
        ref_samples.append(ref.sample())
        for kind, elapsed in pending:
            scaled.setdefault(kind, []).append(reference.scale(elapsed, ref_samples[-2], ref_samples[-1]))
        pending.clear()
        last_ref = time.perf_counter()

    traced_total = untraced_total = 0.0
    attempted = failed = 0
    results = []
    tracebacks = 0
    deadline = time.perf_counter() + seconds
    for op_id, (kind, item) in enumerate(wl.items()):
        if op_id >= wl.min_items and time.perf_counter() >= deadline:
            break
        # a traced run repeats each operation untraced and traced, alternating
        # which goes first, so the difference is the tracing overhead
        passes = ((False, True) if op_id % 2 == 0 else (True, False)) if trace else (False,)
        outs = {}
        for traced in passes:
            attempted += 1
            tracer.trial = op_id
            analysis_before = tracer.analysis_s
            try:
                with _tracing(tracer, kind) if traced else contextlib.nullcontext():
                    start = time.perf_counter()
                    out = wl.run(kind, item)
                    elapsed = time.perf_counter() - start
                ok = wl.check(kind, item, out)
            except Exception:
                ok = False
                if tracebacks < _MAX_TRACEBACKS:
                    traceback.print_exc(file=sys.stderr)
                    tracebacks += 1
            if not ok:
                failed += 1
                continue
            outs[traced] = (out, elapsed)
            if traced:
                traced_total += elapsed - (tracer.analysis_s - analysis_before)
            else:
                samples.setdefault(kind, []).append(elapsed)
                pending.append((kind, elapsed))
        if len(outs) == 2:
            untraced_total += outs[False][1]
            # tracing must not change what the program computes
            if outs[True][0] != outs[False][0]:
                failed += 1
        if False in outs and kind == wl.primary:
            results.append((item, outs[False][0]))
        if time.perf_counter() - last_ref >= reference.SAMPLE_EVERY_S:
            sample_reference()
    if pending:
        sample_reference()
    pooled_ok, pooled = wl.pooled_check(results)
    attempted += 1
    failed += 0 if pooled_ok else 1
    return {
        "samples": samples,
        "scaled": scaled,
        "ref_samples": ref_samples,
        "attempted": attempted,
        "failed": failed,
        "pooled": pooled,
        "overhead_frac": (traced_total - untraced_total) / untraced_total if untraced_total else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "memory", "measure"), default="measure")
    parser.add_argument("--trace-out", metavar="PATH")
    args = parser.parse_args(argv)

    if not Path(flqkd.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"flqkd imported from {flqkd.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = workloads.make_workload(args.workload, ROOT, args.seed)
    wl.setup()
    setup_wall_s = time.perf_counter() - _T0
    if args.mode == "memory":
        # no reference here: its arrays would count towards the peak
        run_each_kind_once(wl)
        print(json.dumps({"peak_rss_mb": _peak_rss_mb()}))
        return 0
    ref = reference.Reference()
    setup_ref_s = ref.sample()
    setup = {
        "setup_s": reference.scale(setup_wall_s, setup_ref_s, setup_ref_s),
        "setup_wall_s": setup_wall_s,
    }
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0
    run_each_kind_once(wl)

    tracer = tracing.Tracer()
    run = measure(wl, args.seconds, bool(args.trace), tracer, ref)
    result = {
        **setup,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "pooled": run["pooled"],
        "op_kind": wl.primary,
        "op_samples": len(run["samples"].get(wl.primary, [])),
        **_op_stats(run["scaled"].get(wl.primary, []), ""),
        **_op_stats(run["samples"].get(wl.primary, []), "wall_"),
        "ref_s_median": statistics.median(run["ref_samples"]),
        "ref_sample_count": len(run["ref_samples"]),
        "samples": run["samples"],
        "extra": wl.extra_metrics(run["samples"]),
        "backend": _backend(),
    }
    if args.trace:
        result["per_layer"] = tracing.layer_metrics(tracer, run["overhead_frac"])
        result["absent_layers"] = sorted(tracer.absent)
        result["self_time_s"] = tracing.self_time_ranking(tracer)
        if args.trace_out:
            out = Path(args.trace_out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
