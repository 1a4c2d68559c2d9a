"""Command-line entry point.

    dosids run --config cfg.txt [--preset desk|paper] [--seed N]
               [--skip-tune] [--out DIR] [--emit-clean F] [--emit-synthetic F]

plus one subcommand per stage (ingest, augment, extract, tune, train,
evaluate, report) for re-running stages against an existing output
directory. Exit code 0 on success; each failing stage has its own
nonzero code.
"""

import argparse
import logging
import sys

from .pipeline import (CONFIG_KEYS, PipelineConfig, StageError, apply_preset,
                       config_from_file, run_pipeline, run_stage, set_keys, STAGES)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="pipeline config file")
    parser.add_argument("--preset", choices=["desk", "paper"],
                        help="use the preset's size settings, bar those the config file sets")
    parser.add_argument("--seed", dest="run.seed", metavar="SEED", help="override run.seed")
    parser.add_argument("--out", dest="run.out", metavar="OUT", help="override run.out")
    parser.add_argument("--skip-tune", dest="tune.skip", action="store_const", const="true",
                        help="use the reference hyperparameters instead of tuning")
    parser.add_argument("--emit-clean", metavar="PATH",
                        help="also write the preprocessed matrix as CSV")
    parser.add_argument("--emit-synthetic", metavar="PATH",
                        help="also write generated rows with a synthetic marker")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dosids",
        description="multi-stage DoS/DDoS flow classification pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every stage end to end")
    _add_common(run)
    for stage in STAGES:
        stage_parser = sub.add_parser(stage, help=f"run only the {stage} stage")
        _add_common(stage_parser)
    return parser


def _config_from_args(args) -> PipelineConfig:
    cfg = config_from_file(args.config)
    if args.preset:
        cfg = apply_preset(cfg, args.preset)
    cfg = set_keys(cfg, {key: text for key, text in vars(args).items()
                         if key in CONFIG_KEYS and text is not None})
    if args.emit_clean:
        cfg.emit_clean = args.emit_clean
    if args.emit_synthetic:
        cfg.emit_synthetic = args.emit_synthetic
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            manifest = run_pipeline(cfg)
            acc = manifest["results"]["overall_accuracy"]
            print(f"run complete: overall accuracy {100 * acc:.2f}% "
                  f"(outputs in {cfg.out_dir})")
        else:
            info = run_stage(cfg, args.command)
            print(f"{args.command} complete: {info}")
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
