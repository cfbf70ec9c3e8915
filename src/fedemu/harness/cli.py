"""Command line entry point: train / eval / compare / export-plots /
print-config."""

from __future__ import annotations

import argparse
import sys

import yaml

from .compare import cmd_compare
from .config import apply_overrides, config_to_dict, default_config, load_config
from .plots import cmd_export_plots
from .run import cmd_eval, cmd_train


def _resolve_config(args):
    if getattr(args, "config", None):
        config = load_config(args.config)
    else:
        config = default_config(getattr(args, "profile", "desk") or "desk")
    overrides = list(getattr(args, "set", None) or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    if overrides:
        config = apply_overrides(config, overrides)
    return config


def _add_config_args(sub):
    sub.add_argument("--config", help="YAML config file")
    sub.add_argument("--profile", choices=["desk", "paper"], default="desk",
                     help="default-step profile when no config file is given")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a config key, e.g. env.n_devices=4")
    sub.add_argument("--seed", type=int, help="shortcut for --set seed=N")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedemu",
        description="Federated emulator-assisted tuning simulator")
    subs = parser.add_subparsers(dest="command", required=True)

    p_train = subs.add_parser("train", help="train the configured controller")
    _add_config_args(p_train)
    p_train.add_argument("--run-dir", help="output directory (default: "
                         "$FEDEMU_RUNS/<agent>_<mode>_s<seed>)")
    p_train.add_argument("--resume", action="store_true",
                         help="continue from the run directory's checkpoint")

    p_eval = subs.add_parser("eval", help="evaluate a finished run")
    p_eval.add_argument("--run", required=True, help="run directory")
    p_eval.add_argument("--episodes", type=int, default=None)

    p_cmp = subs.add_parser("compare", help="compare finished runs")
    p_cmp.add_argument("runs", nargs="+", help="run directories")
    p_cmp.add_argument("--out", help="write pairwise table as CSV")

    p_plot = subs.add_parser("export-plots", help="write SVG training curves")
    p_plot.add_argument("runs", nargs="+", help="run directories")

    p_cfg = subs.add_parser("print-config", help="print the resolved config")
    _add_config_args(p_cfg)

    args = parser.parse_args(argv)

    try:
        if args.command == "train":
            config = _resolve_config(args)
            result = cmd_train(config, run_dir=args.run_dir, resume=args.resume)
            print(f"run complete: {result.run_dir} ({result.steps} steps)")
            if result.final_metrics:
                print(f"final eval reward: {result.final_metrics['eval_reward']:.2f}")
        elif args.command == "eval":
            row = cmd_eval(args.run, episodes=args.episodes)
            for k, v in row.items():
                print(f"{k}: {v:.4f}")
        elif args.command == "compare":
            result = cmd_compare(args.runs, out_path=args.out)
            print(result["text"])
        elif args.command == "export-plots":
            for path in cmd_export_plots(args.runs):
                print(path)
        elif args.command == "print-config":
            config = _resolve_config(args)
            print(yaml.safe_dump(config_to_dict(config), sort_keys=True), end="")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
