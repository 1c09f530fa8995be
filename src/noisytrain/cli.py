"""Command-line entry point.

Subcommands:
  generate  write the noisy train-split CSV for a config
  run       execute the full pipeline, emit metrics/checkpoint/summary
  ablate    run the four ablation arms and a comparison table
  report    flatten a run's metrics CSV into plot-ready long format
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, config_from_dict, config_to_dict, parse_config
from .runner import cmd_ablate, cmd_generate, cmd_report, cmd_run


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the config output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisytrain",
                                     description="Noisy-label training experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate and snapshot the noisy dataset")
    _add_common(p_gen)

    p_run = sub.add_parser("run", help="train and emit metrics")
    _add_common(p_run)
    p_run.add_argument("--export-selection", action="store_true",
                       help="also write per-epoch selection CSVs")

    p_abl = sub.add_parser("ablate", help="run full / no-balancing / no-CL / no-ensemble arms")
    _add_common(p_abl)
    p_abl.add_argument("--export-selection", action="store_true",
                       help="also write per-epoch selection CSVs for every arm")

    p_rep = sub.add_parser("report", help="emit long-format CSV from a finished run")
    _add_common(p_rep)
    return parser


def _resolve_config(args):
    """The config file with --seed and --out applied, validated as a whole."""
    raw = config_to_dict(parse_config(args.config))
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["output_dir"] = args.out
    return config_from_dict(raw)


def _accuracies(summary: dict) -> str:
    """best_acc and last_acc to 4 places; ``n/a`` for a run with no epochs."""
    return " ".join(f"{k}={'n/a' if summary[k] is None else format(summary[k], '.4f')}"
                    for k in ("best_acc", "last_acc"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "generate":
            path, written = cmd_generate(cfg)
            print(f"wrote {path}" if written else f"kept {path}: it holds this config's snapshot")
        elif args.command == "run":
            summary = cmd_run(cfg, export_selection=args.export_selection)
            print(f"{_accuracies(summary)} outputs in {cfg.output_dir}")
        elif args.command == "ablate":
            summaries = cmd_ablate(cfg, export_selection=args.export_selection)
            for arm, s in summaries.items():
                print(f"{arm}: {_accuracies(s)}")
            print(f"comparison table in {os.path.join(cfg.output_dir, 'ablation_summary.csv')}")
        elif args.command == "report":
            metrics = os.path.join(cfg.output_dir, "metrics.csv")
            if not os.path.exists(metrics):
                print(f"error: no metrics.csv in {cfg.output_dir}; run the experiment first",
                      file=sys.stderr)
                return 1
            out = cmd_report(metrics, os.path.join(cfg.output_dir, "report_long.csv"))
            print(f"wrote {out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # propagate failures as a nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
