"""Command-line front end.

    ike-lab run --config cfg.json [--jobs N] [--out DIR] [--seed N]
                [--axis lambda=0,0.25,0.5,0.75,1.0 ...] [--preset T1..T5]
    ike-lab selftest

--seed, --axis and --preset replace the config's seeds, sweep and orders
before the config is checked. Each run command reads its dataset afresh.

Exit codes: 0 success, 1 runtime failure (any failed run), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, LabError
from .checks import selftest
from .harness import SWEEP_AXES, ExperimentConfig, expand_presets, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ike-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the configured experiment grid")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed list with one seed")
    p_run.add_argument(
        "--axis", action="append", metavar="NAME=V0,V1,...",
        help=f"override the sweep, one axis per --axis; names: {sorted(SWEEP_AXES)}",
    )
    p_run.add_argument("--preset", help="override the orders with presets: T1, T1,T3 or T1..T5")
    sub.add_parser("selftest", help="run the oracle suites and print max errors")
    return parser


def _parse_axes(texts: list[str]) -> dict[str, list[float]]:
    sweep: dict[str, list[float]] = {}
    for text in texts:
        name, sep, values = text.partition("=")
        name = name.strip()
        if not sep:
            raise ConfigError(f"bad axis {text!r}; expected NAME=V0,V1,...")
        if name in sweep:
            raise ConfigError(f"sweep axis {name!r} given twice; list all its values in one --axis")
        try:
            sweep[name] = [float(v) for v in values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad values in axis {text!r}: {exc}") from exc
    return sweep


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            report = selftest()
            print(report.format_table())
            return 0 if report.passed else 1
        # Overrides replace config keys before the config is checked.
        overrides = {}
        if args.seed is not None:
            overrides["seeds"] = [args.seed]
        if args.axis is not None:
            overrides["sweep"] = _parse_axes(args.axis)
        if args.preset is not None:
            overrides["orders"] = expand_presets(args.preset)
        config = ExperimentConfig.from_file(args.config, **overrides)
        outcome = run(config, out_dir=args.out, jobs=args.jobs)
        if outcome.out_dir is not None:
            print(f"wrote {len(outcome.reports)} runs under {outcome.out_dir}")
        for row in outcome.summary_rows:
            sweep_txt = "".join(f" {a}={v:g}" for a, v in sorted(row["sweep"].items()))
            print(
                f"{row['variant']:<9} {row['order']}{sweep_txt}: "
                f"fmAP {row['fmap_mean']:.4f} +- {row['fmap_std']:.4f}  "
                f"mean-mAP {row['mean_map_mean']:.4f} +- {row['mean_map_std']:.4f}"
            )
        for run_id, message in outcome.failures.items():
            print(f"error: run {run_id} failed: {message}", file=sys.stderr)
        return 1 if outcome.failures else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
