"""Command-line front end.

Subcommands: rate-curve, optimize, ber-curve, monitor-sim, limit. Every
command reads one JSON config (defaults when omitted), writes one CSV table
(stdout when --out is omitted) and an optional SVG rendering, and is
deterministic for a fixed config and seed.

Exit codes: 0 success, 2 config error, 3 numerical/domain error,
4 estimator undefined.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ._output import render_csv, render_svg, write_text_atomic
from .config import RunConfig, dump_config, load_run_config
from .errors import (
    ConfigError,
    DomainError,
    EstimatorUndefinedError,
    UnphysicalStateError,
    ValidationError,
)
# holevo_bound is not called here; perfbench/tracing.py patches this name
from .eve import chernoff_ber_passive, holevo_bound  # noqa: F401
from .monitor import sweep_injection
from .rates import (
    ConfidenceSpec,
    alice_ber,
    f_e_upper_bound,
    optimize_brightness,
    pirandola_limit,
    skr_lower_bound,
)

def _resolve_f_e(cfg: RunConfig) -> float:
    if cfg.f_e_explicit is not None:
        return cfg.f_e_explicit
    return f_e_upper_bound(cfg.confidence)


def _sweep_grid(cfg: RunConfig) -> np.ndarray:
    s = cfg.sweep
    if s.log_scale:
        return np.logspace(math.log10(s.n_s_min), math.log10(s.n_s_max), s.points)
    return np.linspace(s.n_s_min, s.n_s_max, s.points)


def _cmd_rate_curve(cfg: RunConfig):
    params = cfg.system
    f_e = _resolve_f_e(cfg)
    header = [
        "ppb", "n_s", "ber", "i_ab",
        "chi_ub_active", "chi_ub_passive",
        "ske_active", "ske_passive",
        "skr_active", "skr_passive",
    ]
    grid = _sweep_grid(cfg)
    active = skr_lower_bound(grid, f_e, params)
    passive = skr_lower_bound(grid, 0.0, params)
    columns = (
        active.ppb, active.n_s, active.ber, active.i_ab,
        active.chi_ub, passive.chi_ub,
        active.ske, passive.ske,
        active.skr, passive.skr,
    )
    rows = list(zip(*(column.tolist() for column in columns)))
    svg = render_svg(
        [
            ("skr_active", [r[0] for r in rows], [r[8] for r in rows]),
            ("skr_passive", [r[0] for r in rows], [r[9] for r in rows]),
        ],
        x_label="photons per bit",
        y_label="secret key rate (bit/s)",
        log_x=cfg.sweep.log_scale,
        title="key rate vs brightness",
    )
    return header, rows, svg


def _cmd_optimize(cfg: RunConfig):
    if cfg.confidence is None:
        raise ConfigError("optimize needs the {f_e_hat, sigma, n_sigma} attack form")
    params = cfg.system
    header = ["n_sigma", "f_e_ub", "n_s_opt", "ppb_opt", "ske", "skr", "positive_key"]
    rows = []
    for n in cfg.n_sigma_list:
        spec = ConfidenceSpec(cfg.confidence.f_e_hat, cfg.confidence.sigma, n)
        f_e = f_e_upper_bound(spec)
        result = optimize_brightness(f_e, params)
        rows.append(
            (
                n, f_e, result.n_s_opt, params.M * result.n_s_opt,
                result.point.ske, result.point.skr, result.positive_key,
            )
        )
    svg = render_svg(
        [("skr", [float(r[0]) for r in rows], [r[5] for r in rows])],
        x_label="confidence multiplier n_sigma",
        y_label="secret key rate (bit/s)",
        title="optimized key rate vs confidence level",
    )
    return header, rows, svg


def _cmd_ber_curve(cfg: RunConfig):
    params = cfg.system
    header = ["ppb", "ber_alice_theory", "ber_eve_qcb"]
    rows = []
    for n_s in _sweep_grid(cfg):
        rows.append(
            (
                params.M * float(n_s),
                alice_ber(float(n_s), params),
                chernoff_ber_passive(params, float(n_s)),
            )
        )
    svg = render_svg(
        [
            ("ber_alice_theory", [r[0] for r in rows], [r[1] for r in rows]),
            ("ber_eve_qcb", [r[0] for r in rows], [r[2] for r in rows]),
        ],
        x_label="photons per bit",
        y_label="bit-error rate",
        log_x=cfg.sweep.log_scale,
        log_y=True,
        title="receiver vs eavesdropper BER",
    )
    return header, rows, svg


def _cmd_monitor_sim(cfg: RunConfig):
    values = [0.0] + [v for v in cfg.monitor_sweep_f_e if v != 0.0]
    rows_raw = sweep_injection(cfg.monitor, values, cfg.monitor_trials)
    header = ["f_e_true", "mean_estimate", "std_dev", "trials", "warnings"]
    rows = [
        (r.f_e_true, r.mean_estimate, r.std_dev, r.trials, ";".join(r.warnings))
        for r in rows_raw
    ]
    svg = render_svg(
        [
            ("mean estimate", [r[0] for r in rows], [r[1] for r in rows]),
            ("truth", [0.0, 1.0], [0.0, 1.0]),
        ],
        x_label="injected fraction",
        y_label="estimated fraction",
        title="intrusion estimator sweep",
    )
    return header, rows, svg


def _cmd_limit(cfg: RunConfig):
    params = cfg.system
    f_e = _resolve_f_e(cfg)
    limit = pirandola_limit(params.kappa)
    result = optimize_brightness(f_e, params)
    ske = result.point.ske
    advantage_db = 10.0 * math.log10(ske / limit) if ske > 0 else float("nan")
    header = ["kappa", "limit_bits_per_mode", "ske", "advantage_db"]
    rows = [(params.kappa, limit, ske, advantage_db)]
    svg = render_svg(
        [
            ("achieved ske", [0.0, 1.0], [ske, ske]),
            ("one-way limit", [0.0, 1.0], [limit, limit]),
        ],
        x_label="",
        y_label="bits per use",
        title="key efficiency vs one-way limit",
    )
    return header, rows, svg


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
        sp.add_argument("--seed", type=int, metavar="U64", help="override monitor RNG seed")
        sp.add_argument(
            "--dump-config",
            action="store_true",
            help="print the effective configuration as JSON and exit",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and not 0 <= args.seed < 2**64:
            raise ConfigError(f"--seed must fit in 64 bits, got {args.seed}")
        cfg = load_run_config(
            args.config,
            seed_override=args.seed,
            csv_override=args.out,
            svg_override=args.svg,
        )
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        header, rows, svg = _IMPL[args.command](cfg)
        csv_text = render_csv(header, rows, cfg.output.precision)
        if cfg.output.csv_path:
            write_text_atomic(cfg.output.csv_path, csv_text)
            print(f"wrote {cfg.output.csv_path}", file=sys.stderr)
        else:
            sys.stdout.write(csv_text)
        if cfg.output.svg_path:
            write_text_atomic(cfg.output.svg_path, svg)
            print(f"wrote {cfg.output.svg_path}", file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EstimatorUndefinedError as exc:
        print(f"estimator undefined: {exc}", file=sys.stderr)
        return 4
    except (ValidationError, DomainError, UnphysicalStateError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
