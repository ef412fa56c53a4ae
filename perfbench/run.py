"""flqkd benchmark: one workload, one seed, one measured run.

Usage, from the repository root:

    python3 perfbench/run.py --workload monitor-nominal --seed 1 --seconds 30 --trace 0

Workloads are defined in perfbench/workloads.py. Each run starts fresh
interpreters, BLAS/OpenMP capped at one thread: a few that only set up, for
a median set-up time; one that runs each kind of operation once, for peak
RSS; then one that sets up and runs the closed loop for --seconds.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json. Their times are scaled to the speed of a host-speed
reference timed next to them (see reference.py). The report line gives the
wall times too, and the 90th percentiles of operation time: the tail of
operations with a fixed cost is set by the host's speed switching within a
second, so its spread from run to run (up to 0.15 of the median on a 2-vCPU
host, scaled or not) is too wide to gate on. With --trace 1 each operation also runs once with the tracer
installed, the line carries the per-layer metrics, and the spans go to
perfbench/out/trace-<workload>.json. The line before it is a report with run
metadata, sample counts and workload-specific figures.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup-only interpreters started per run, besides the measured one
SETUP_RUNS = 4
# the whole run, set-up interpreters included, must end within this
RUN_BUDGET_S = 170.0
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _child_env(mode: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    if mode == "memory":
        # pin glibc's mmap threshold at its 128 KiB default instead of letting
        # it adapt: freed large arrays then go back to the OS, so peak RSS
        # follows the program's live memory rather than the allocator's history.
        # Timed runs keep the default, which reuses freed memory.
        env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_worker(args, mode: str, deadline: float, extra: tuple[str, ...] = ()) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run budget exhausted before the measured run")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(mode), stdout=subprocess.PIPE, timeout=timeout, text=True
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _git_commit() -> str:
    # read .git directly: a checkout without one must not pick up a parent repo
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def metadata() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": _numba_imports(),
    }


def end_to_end(child: dict, setup_samples: list[float], peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_samples),
        "op_s_p50": child["op_s_p50"],
        "ops_per_s": child["ops_per_s"],
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flqkd" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no flqkd sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        setups = [_run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS)]
        peak_rss_mb = None if args.trace else _run_worker(args, "memory", deadline)["peak_rss_mb"]
        trace_out = HERE / "out" / f"trace-{args.workload}.json"
        child = _run_worker(args, "measure", deadline, ("--trace-out", str(trace_out)) if args.trace else ())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(child)
    setup_samples = [s["setup_s"] for s in setups]

    if args.trace:
        values, table = child["per_layer"], spec["per_layer"]
    else:
        values, table = end_to_end(child, setup_samples, peak_rss_mb), spec["end_to_end"]
    names = [m["name"] for m in table]
    if set(values) != set(names):
        print(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 1

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": dict(metadata(), backend=child["backend"]),
        "setup_s_samples": setup_samples,
        "setup_wall_s_samples": [s["setup_wall_s"] for s in setups],
        "peak_rss_mb": peak_rss_mb,
        "failed_frac": child["failed"] / child["attempted"],
        **{k: v for k, v in child.items() if k not in ("samples", "per_layer", "setup_s", "setup_wall_s", "backend")},
        "op_s_samples": child["samples"].get(child["op_kind"], []),
    }
    if args.trace:
        report["trace_file"] = str(trace_out.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
