"""Command-line front end.

Subcommands: rate-curve, optimize, ber-curve, monitor-sim, limit. Every
command reads one JSON config (defaults when omitted), writes one CSV table
(stdout when --out is omitted) and an optional SVG rendering, and is
deterministic for a fixed config.

Exit codes: 0 success, 2 config error (also an --out or --svg path that
cannot be written, or two of --config, --out and --svg naming one file), 3
numerical error (an argument the model refuses, or an unphysical state), 4
estimator undefined.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from itertools import combinations

import numpy as np

from ._output import render_csv, render_svg, write_text_atomic
from .config import RunConfig, dump_config, load_run_config
from .errors import ConfigError, EstimatorUndefinedError, FlqkdError
# holevo_bound is not called here; perfbench/tracing.py patches this name
from .eve import chernoff_ber_passive, holevo_bound  # noqa: F401
from .monitor import SweepRow, sweep_injection
from .rates import (
    alice_ber,
    f_e_upper_bound,
    optimize_brightness,
    pirandola_limit,
    search_grid,
    skr_lower_bound,
)


def _sweep_grid(cfg: RunConfig) -> np.ndarray:
    s = cfg.settings["sweep"]
    if s["log_scale"]:
        return search_grid((s["n_s_min"], s["n_s_max"]), s["points"])
    return np.linspace(s["n_s_min"], s["n_s_max"], s["points"])


# Each command returns its table, column name -> values in CSV order, and
# its chart: render_svg's arguments, each series (label, x values, y values).


def _cmd_rate_curve(cfg: RunConfig):
    grid = _sweep_grid(cfg)
    active = skr_lower_bound(grid, f_e_upper_bound(cfg.confidence), cfg.system)
    passive = skr_lower_bound(grid, 0.0, cfg.system)
    table = {
        "ppb": active.ppb, "n_s": active.n_s, "ber": active.ber, "i_ab": active.i_ab,
        "chi_ub_active": active.chi_ub, "chi_ub_passive": passive.chi_ub,
        "ske_active": active.ske, "ske_passive": passive.ske,
        "skr_active": active.skr, "skr_passive": passive.skr,
    }
    chart = dict(
        series=[(name, table["ppb"], table[name]) for name in ("skr_active", "skr_passive")],
        x_label="photons per bit",
        y_label="secret key rate (bit/s)",
        log_x=cfg.settings["sweep"]["log_scale"],
        title="key rate vs brightness",
    )
    return table, chart


def _cmd_optimize(cfg: RunConfig):
    f_es = [f_e_upper_bound(level) for level in cfg.confidence_levels]
    results = [optimize_brightness(f_e, cfg.system) for f_e in f_es]
    table = {
        "n_sigma": [level.n_sigma for level in cfg.confidence_levels],
        "f_e_ub": f_es,
        "n_s_opt": [r.n_s_opt for r in results],
        "ppb_opt": [r.point.ppb for r in results],
        "ske": [r.point.ske for r in results],
        "skr": [r.point.skr for r in results],
        "positive_key": [r.positive_key for r in results],
    }
    chart = dict(
        series=[("skr", table["n_sigma"], table["skr"])],
        x_label="confidence multiplier n_sigma",
        y_label="secret key rate (bit/s)",
        title="optimized key rate vs confidence level",
    )
    return table, chart


def _cmd_ber_curve(cfg: RunConfig):
    grid = _sweep_grid(cfg)
    # a brightness too large for floats gives ppb = inf, which the table prints
    with np.errstate(over="ignore"):
        ppb = cfg.system.M * grid
    table = {
        "ppb": ppb,
        "ber_alice_theory": alice_ber(grid, cfg.system),
        "ber_eve_qcb": chernoff_ber_passive(cfg.system, grid),
    }
    chart = dict(
        series=[(name, table["ppb"], table[name]) for name in ("ber_alice_theory", "ber_eve_qcb")],
        x_label="photons per bit",
        y_label="bit-error rate",
        log_x=cfg.settings["sweep"]["log_scale"],
        log_y=True,
        title="receiver vs eavesdropper BER",
    )
    return table, chart


def _cmd_monitor_sim(cfg: RunConfig):
    monitor = cfg.settings["monitor"]
    values = [0.0] + [v for v in monitor["sweep_f_e"] if v != 0.0]
    rows = sweep_injection(cfg.monitor, values, monitor["trials"])
    table = {f.name: [getattr(r, f.name) for r in rows] for f in fields(SweepRow)}
    table["warnings"] = [";".join(w) for w in table["warnings"]]
    chart = dict(
        series=[
            ("mean estimate", table["f_e_true"], table["mean_estimate"]),
            ("truth", [0.0, 1.0], [0.0, 1.0]),
        ],
        x_label="injected fraction",
        y_label="estimated fraction",
        title="intrusion estimator sweep",
    )
    return table, chart


def _cmd_limit(cfg: RunConfig):
    limit = pirandola_limit(cfg.system.kappa)
    best = optimize_brightness(f_e_upper_bound(cfg.confidence), cfg.system)
    ske = best.point.ske
    table = {
        "kappa": [cfg.system.kappa],
        "limit_bits_per_mode": [limit],
        "ske": [ske],
        "advantage_db": [10.0 * math.log10(ske / limit) if ske > 0 else float("nan")],
        "positive_key": [best.positive_key],
    }
    chart = dict(
        series=[
            ("achieved ske", [0.0, 1.0], [ske, ske]),
            ("one-way limit", [0.0, 1.0], [limit, limit]),
        ],
        x_label="",
        y_label="bits per use",
        title="key efficiency vs one-way limit",
    )
    return table, chart


_IMPL = {
    "rate-curve": _cmd_rate_curve,
    "optimize": _cmd_optimize,
    "ber-curve": _cmd_ber_curve,
    "monitor-sim": _cmd_monitor_sim,
    "limit": _cmd_limit,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flqkd",
        description="Floodlight-QKD key-rate model and intrusion-monitor simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _IMPL:
        sp = sub.add_parser(name, help=f"run the {name.replace('-', ' ')} computation")
        sp.add_argument("--config", metavar="PATH", help="JSON run configuration")
        sp.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
        sp.add_argument("--svg", metavar="PATH", help="also render an SVG chart")
        sp.add_argument(
            "--dump-config",
            action="store_true",
            help="print the effective configuration as JSON and exit",
        )
    return parser


def _write(files: dict[str, str]) -> None:
    try:
        write_text_atomic(files)
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror or exc}") from None
    for path in files:
        print(f"wrote {path}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # neither output may overwrite the config file or the other output
        named = [(f"--{key}", getattr(args, key)) for key in ("config", "out", "svg") if getattr(args, key)]
        for (flag, path), (other, other_path) in combinations(named, 2):
            if os.path.realpath(path) == os.path.realpath(other_path):
                raise ConfigError(f"{flag} {path} and {other} {other_path} name the same file")
        cfg = load_run_config(args.config)
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        table, chart = _IMPL[args.command](cfg)
        # plain Python values, so a column formats the same from any source
        table = {name: np.asarray(column).tolist() for name, column in table.items()}
        # every text is rendered and every file written before stdout gets
        # the table, so a failed run writes nothing
        csv_text = render_csv(table, cfg.settings["output"]["precision"])
        files = {}
        if args.out:
            files[args.out] = csv_text
        if args.svg:
            files[args.svg] = render_svg(**chart)
        _write(files)
        if not args.out:
            sys.stdout.write(csv_text)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EstimatorUndefinedError as exc:
        print(f"estimator undefined: {exc}", file=sys.stderr)
        return 4
    except FlqkdError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
