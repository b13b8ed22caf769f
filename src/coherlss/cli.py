"""Command-line front end for the Monte Carlo studies.

Subcommands: ``sweep`` (frequency sweep of raw vs corrected statistics),
``scaling`` (sup statistics across M with (N/B)^k rescalings), ``histogram``
(replicate distribution of the sups), and ``validate`` (numerical golden
values plus the covariance and localization checks, printed as a pass/fail
table).

Configuration comes from a flat JSON file (--config) overridden by flags;
unknown config keys are rejected.  Exit status: 0 success, 1 numerical
failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import pathlib
import sys
from typing import NamedTuple

from . import experiments, rmt
from ._version import __version__
from .errors import CoherlssError, ConfigError, InvalidArgumentError
from .experiments import ExperimentConfig

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

# config keys that a flag can set: --key, underscores becoming dashes; a flag
# overrides the config file.  Keys not listed here are set by file only.
_FLAGS = {
    "N": dict(type=int, help="series length per row"),
    "B": dict(type=int, help="even smoothing span"),
    "M": dict(type=int, help="panel rows (matrix dimension)"),
    "L": dict(type=int, help="lag-window bandwidth"),
    "theta": dict(type=float, help="AR(1) coefficient; 0 means white noise"),
    "alpha": dict(type=float, help="growth exponent in (1/2,1); sweep and histogram default "
                                   "to log B/log N, scaling derives N from B with it"),
    "f": dict(choices=("square_centered", "log"), help="spectral test function"),
    "grid_stride": dict(type=int, help="Fourier grid stride (default keeps <=512 points)"),
    "replicates": dict(type=int, help="Monte Carlo replicate count"),
    "seed": dict(type=int, help="master seed (unsigned 64-bit)"),
    "threads": dict(type=int, help="worker threads; COHERLSS_THREADS is honored when absent"),
}


class _Command(NamedTuple):
    help: str
    keys: tuple  # the config keys the command accepts
    defaults: dict
    quick: dict


_PANEL_KEYS = ("N", "B", "M", "L", "theta", "alpha", "f", "grid_stride", "correction_mode",
               "replicates", "seed", "threads")

_COMMANDS = {
    "sweep": _Command(
        "per-frequency raw and corrected statistics", _PANEL_KEYS,
        {"N": 2048, "B": 256, "M": 128, "theta": 0.4, "replicates": 5, "seed": 0},
        {"N": 512, "B": 96, "M": 48, "theta": 0.4, "replicates": 2, "seed": 0, "grid_stride": 4}),
    "scaling": _Command(
        "sup statistics across M, rescaled by (N/B)^2 and (N/B)^3",
        ("M_list", "c_target", "theta", "alpha", "f", "L", "grid_stride",
         "replicates", "seed", "threads"),
        {"M_list": [40, 80, 160], "alpha": 0.8, "c_target": 0.5, "theta": 0.4,
         "f": "square_centered", "replicates": 10, "seed": 0},
        {"M_list": [20, 40], "alpha": 0.8, "c_target": 0.5, "theta": 0.4,
         "f": "square_centered", "replicates": 3, "seed": 0}),
    "histogram": _Command(
        "replicate distribution of the sup statistics", _PANEL_KEYS,
        {"N": 1063, "B": 200, "M": 100, "theta": 0.4, "replicates": 200, "seed": 0},
        {"N": 512, "B": 96, "M": 48, "theta": 0.4, "replicates": 20, "seed": 0, "grid_stride": 4}),
    "validate": _Command(
        "golden values, covariance decay, localization",
        ("N", "B", "M", "theta", "replicates", "seed", "threads"),
        {"N": 2048, "B": 256, "M": 128, "theta": 0.4, "replicates": 3, "seed": 0},
        {"N": 512, "B": 96, "M": 48, "theta": 0.4, "replicates": 1, "seed": 0}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coherlss",
        description="Corrected linear spectral statistics of smoothed-periodogram "
                    "coherency matrices: Monte Carlo studies and numerical validation.",
    )
    parser.add_argument("--version", action="version", version=f"coherlss {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", metavar="PATH", help="flat JSON config; flags override file values")
        sp.add_argument("--out-dir", default=".", metavar="DIR", help="output directory (default: .)")
        sp.add_argument("--quick", action="store_true", help="small sizes for a fast smoke run")
        for key in command.keys:
            if key in _FLAGS:
                sp.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


def _load_config_file(path, allowed, command: str) -> dict:
    if path is None:
        return {}
    p = pathlib.Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {unknown}; allowed: {sorted(allowed)}"
        )
    return raw


def _resolve_threads(flag_value, file_value):
    if flag_value is not None:
        return flag_value
    env = os.environ.get("COHERLSS_THREADS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"COHERLSS_THREADS must be an integer, got {env!r}") from None
    if file_value is not None:
        return file_value
    return 1


def _values(args) -> dict:
    """Pinned defaults, then the config file, then flags; threads resolved last."""
    command = _COMMANDS[args.command]
    file_cfg = _load_config_file(args.config, command.keys, args.command)
    values = dict(command.quick if args.quick else command.defaults)
    values.update(file_cfg)
    for key in command.keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values["threads"] = _resolve_threads(args.threads, file_cfg.get("threads"))
    return values


def _cmd_study(args) -> int:
    values = _values(args)
    if args.command == "sweep":
        result = experiments.frequency_sweep(ExperimentConfig(**values))
        paths = experiments.write_sweep_outputs(result, args.out_dir)
        s, config = result.summary, result.config
        print(f"sweep: {config['replicates']} replicate(s), grid {config['grid_size']} points")
        print(f"fraction of frequencies improved by the oracle correction: {s['fraction_improved']:.3f}")
        print(f"median sup |raw| = {s['median_sup_raw']:.4e}, sup |psi| = {s['median_sup_psi']:.4e}, "
              f"sup |psi_hat| = {s['median_sup_psi_hat']:.4e}")
    elif args.command == "scaling":
        result = experiments.scaling_study(**values)
        paths = experiments.write_scaling_outputs(result, args.out_dir)
        print(f"scaling: M = {result.config['M_list']}, {result.config['replicates']} replicate(s) each")
        for row in result.rows:
            print(f"  M={row['M']:>5} B={row['B']:>5} N={row['N']:>6}  "
                  f"sup|raw|*(N/B)^2={row['sup_raw_x2']:.3f}  sup|psi|*(N/B)^3={row['sup_psi_x3']:.3f}")
    else:
        result = experiments.histogram_study(ExperimentConfig(**values))
        paths = experiments.write_histogram_outputs(result, args.out_dir)
        q = result.summary["quantiles"]
        print(f"histogram: {result.summary['replicates']} replicate(s)")
        for name in ("sup_raw", "sup_psi", "sup_psi_hat"):
            print(f"  {name:<12} median {q[name]['q50']:.4e}  (q05 {q[name]['q05']:.4e}, "
                  f"q95 {q[name]['q95']:.4e})")
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _print_check(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def _cmd_validate(args) -> int:
    values = _values(args)
    cfg = ExperimentConfig(**values)
    # the localization check runs on a grid of at most 128 points
    cfg = dataclasses.replace(cfg, grid_stride=max(1, math.ceil(cfg.N / 128)))
    checks = []
    tol = 1e-3

    f_sq = rmt.SpectralFunction.square_centered()
    c_list = (0.25, 0.5) if args.quick else (0.1, 0.3, 0.5, 0.7, 0.9)
    for c in c_list:
        for method in ("inversion", "contour"):
            val = rmt.distribution_action("p", rmt.MPModel(c), f_sq, method=method)
            checks.append((f"phi((lambda-1)^2) = c_N [{method}, c={c}]",
                           abs(val - c) <= tol, f"|error| = {abs(val - c):.2e} (tol {tol:g})"))
    for c in (0.25, 0.5):
        val = rmt.distribution_action("p_tilde", rmt.MPModel(c), rmt.SpectralFunction.log(),
                                      method="inversion")
        checks.append((f"phi_tilde(log) = -1 [c={c}]",
                       abs(val + 1.0) <= tol, f"|error| = {abs(val + 1.0):.2e} (tol {tol:g})"))

    N_list = (128, 256) if args.quick else (256, 512, 1024)
    rows = experiments.dft_covariance_check(cfg.model(), N_list, 0.25, 0.25)
    scaled = [row[2] for row in rows]
    if cfg.theta == 0.0:
        cov_ok = all(row[1] <= 1e-12 for row in rows)
        cov_detail = f"white noise deviations {[f'{row[1]:.1e}' for row in rows]}"
    else:
        cov_ok = max(scaled) <= 3.0 * min(scaled)
        cov_detail = "deviation*N = " + ", ".join(f"{v:.4f}" for v in scaled)
    checks.append(("DFT covariance deviation decays like 1/N", cov_ok, cov_detail))

    passed, worst = experiments.eigenvalue_localization_check(cfg, epsilon=0.5)
    checks.append(("coherency eigenvalues inside MP support + 0.5", passed,
                   f"worst excursion {worst:.3e}"))

    for name, ok, detail in checks:
        _print_check(name, ok, detail)
    n_fail = sum(1 for _, ok, _ in checks if not ok)
    all_ok = n_fail == 0
    print("all checks passed" if all_ok else f"{n_fail} of {len(checks)} checks FAILED")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_summary_json(
        out / "validate_summary.json",
        # threads never enter an artifact
        {**{k: v for k, v in values.items() if k != "threads"}, "quick": bool(args.quick)},
        {"checks": {name: {"passed": bool(ok), "detail": detail} for name, ok, detail in checks},
         "all_passed": all_ok},
        artifact="validate_summary",
    )
    return EXIT_OK if all_ok else EXIT_NUMERICAL


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return (_cmd_validate if args.command == "validate" else _cmd_study)(args)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CoherlssError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
