"""Command-line front end.

    ike-lab run --config cfg.json [--jobs N] [--out DIR]
    ike-lab selftest

The config file is the one description of a grid: its orders, variants,
seeds and sweep. Each run command reads its dataset afresh.

Exit codes: 0 success, 1 runtime failure (any failed run), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError, LabError
from .checks import selftest
from .harness import ExperimentConfig, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ike-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the configured experiment grid")
    p_run.add_argument("--config", required=True, help="experiment config (JSON)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.add_argument("--out", default=None, help="output directory")
    sub.add_parser("selftest", help="run the oracle suites and print max errors")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            report = selftest()
            print(report.format_table())
            return 0 if report.passed else 1
        config = ExperimentConfig.from_file(args.config)
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
