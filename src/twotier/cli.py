"""Command-line interface: synth, analyze, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import report as report_mod
from . import synth


class CommandError(Exception):
    """User-facing failure; printed without a traceback, as is any
    ``OSError`` a command raises."""


def _parse_x_list(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise CommandError(f"cannot parse percentage list {text!r}") from None


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.preset not in synth.PRESETS:
        raise CommandError(
            f"unknown preset {args.preset!r}; choose from {sorted(synth.PRESETS)}"
        )
    config = synth.PRESETS[args.preset](args.seed)
    records, truth = synth.generate(config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.format == "jsonl":
        log_path = out / "log.jsonl"
        synth.write_log_jsonl(log_path, records)
    else:
        log_path = out / "log.csv"
        synth.write_log_csv(log_path, records)
    synth.write_ground_truth(out / "ground_truth.json", truth)
    print(f"wrote {len(records)} team records to {log_path}")
    print(f"wrote ground truth to {out / 'ground_truth.json'}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    overrides = {
        "input": args.input,
        "format": args.format,
        "preset": args.preset,
        "seed": args.seed,
        "window": args.window,
        "alpha": args.alpha,
        "beta": args.beta,
        "type_filter": args.type_filter,
        "out_dir": args.out_dir,
    }
    if args.x is not None:
        overrides["x_values"] = _parse_x_list(args.x)
    if args.curve_x is not None:
        overrides["curve_x"] = _parse_x_list(args.curve_x)
    try:
        config = report_mod.load_config(args.config, overrides)
        result = report_mod.run_pipeline(config)
    except ValueError as exc:
        raise CommandError(str(exc)) from None
    except RuntimeError as exc:
        # imported only here: with multiprocessing it takes about 35 ms
        from concurrent.futures.process import BrokenProcessPool

        if not isinstance(exc, BrokenProcessPool):
            raise
        raise CommandError(
            "a tier-two worker process died (killed for memory?); "
            "`taskset -c 0 twotier analyze ...` runs the analysis in one process"
        ) from None
    print(f"analysis bundle written to {result.out_dir}")
    print(
        "members={} links={} frames={} elapsed={:.1f}s".format(
            result.summary["network"]["members"],
            result.summary["network"]["links"],
            result.summary["network"]["frames"],
            result.elapsed_seconds,
        )
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    summary_path = Path(args.bundle) / "summary.json"
    if not summary_path.exists():
        raise CommandError(f"no summary.json under {args.bundle}")
    try:
        with open(summary_path) as handle:
            text = report_mod.report_text(json.load(handle))
    except (AttributeError, KeyError, TypeError, ValueError, RecursionError):
        raise CommandError(f"{summary_path} is not a twotier summary") from None
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotier",
        description=(
            "Two-level analysis of team-participation logs: frame-by-frame "
            "backbone detection, community evolution and core-periphery "
            "structure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic log with ground truth")
    p_synth.add_argument("--preset", default="large", help="generator preset (large, small)")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_synth.add_argument("--out-dir", default="twotier_synth")
    p_synth.set_defaults(func=_cmd_synth)

    p_analyze = sub.add_parser("analyze", help="run the full pipeline into a bundle")
    p_analyze.add_argument("--input", help="log file; omit to analyse a generated preset")
    p_analyze.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p_analyze.add_argument("--preset", default=None, help="generator preset when no input")
    p_analyze.add_argument("--config", help="JSON config file mirroring these flags")
    p_analyze.add_argument("--window", default=None, help="frame width, e.g. 3m or 90d")
    p_analyze.add_argument("--x", default=None, help="backbone percentages, e.g. 5,10,20")
    p_analyze.add_argument("--curve-x", default=None, help="coverage curve percentages")
    p_analyze.add_argument("--seed", type=int, default=None)
    p_analyze.add_argument("--alpha", type=float, default=None)
    p_analyze.add_argument("--beta", type=float, default=None)
    p_analyze.add_argument("--type-filter", choices=("A", "B", "all"), default=None)
    p_analyze.add_argument("--out-dir", default=None)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_report = sub.add_parser("report", help="print headline tables of a bundle")
    p_report.add_argument("--bundle", required=True, help="analysis output directory")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CommandError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
