"""Command-line interface.

Subcommands map one-to-one onto the pipeline stages: ``synth`` builds a
synthetic dataset, ``train`` fits and persists models, ``evaluate`` scores
them on the held-out split, ``predict`` labels new rows, ``correlate``
emits the correlation matrix and heatmap, and ``compare`` re-renders
comparison artifacts from a metrics CSV.

Exit codes: 0 success, 2 input/validation error, 3 numerical failure,
4 I/O failure or out of memory.  Flag precedence is CLI > --config file > defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .dataset import reading_text
from .errors import SoilYieldError, ValidationError
from .pipeline import (
    MODEL_CHOICES,
    RunConfig,
    config_from_dict,
    format_comparison_table,
    run_compare,
    run_correlate,
    run_evaluate,
    run_predict,
    run_synth,
    run_train,
)


def _add_common(parser: argparse.ArgumentParser, *, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument("--input", dest="input_path", help="input CSV path")
    parser.add_argument("--output-dir", help="directory for all outputs (default: out)")
    parser.add_argument("--seed", type=int, help="random seed (default: 42)")
    parser.add_argument("--config", help="JSON config file; CLI flags override it")


def _add_split(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--test-ratio", type=float, dest="test_ratio",
                        help="held-out fraction in (0, 1) (default: 0.2)")
    parser.add_argument("--target", dest="target_column",
                        help="name of the target column (default: yield)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soilyield",
        description="Soil-nutrient regression toolkit: train, evaluate, and "
                    "apply leaf-yield models on tabular soil data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic soil CSV")
    p_synth.add_argument("--n", type=int, help="number of rows (default: 500, min 10)")
    _add_common(p_synth, with_input=False)

    p_train = sub.add_parser("train", help="fit models and persist them")
    _add_common(p_train)
    _add_split(p_train)
    p_train.add_argument("--model", choices=MODEL_CHOICES,
                         help="which model(s) to fit (default: all)")
    p_train.add_argument("--lambda", type=float, dest="ridge_lambda",
                         help="ridge penalty on normalized features (default: 1.0)")
    p_train.add_argument("--trees", type=int, help="forest size (default: 100)")
    p_train.add_argument("--max-depth", type=int, dest="max_depth",
                         help="maximum tree depth (default: unlimited)")
    p_train.add_argument("--min-leaf", type=int, dest="min_leaf",
                         help="minimum samples per leaf (default: 1)")
    p_train.add_argument("--max-features", type=int, dest="max_features",
                         help="features sampled per split (default: ceil(d/3))")
    p_train.add_argument("--bootstrap", action=argparse.BooleanOptionalAction,
                         default=None, help="bootstrap tree samples (default: on)")
    p_train.add_argument("--workers", type=int,
                         help="parallel tree-fitting workers; never changes results")

    p_eval = sub.add_parser("evaluate", help="score persisted models on the test split")
    p_eval.add_argument("models", nargs="+", help="model JSON files to score")
    _add_common(p_eval)
    _add_split(p_eval)

    p_pred = sub.add_parser("predict", help="predict yields for new soil rows")
    p_pred.add_argument("model_file", metavar="MODEL", help="model JSON file")
    _add_common(p_pred)

    p_corr = sub.add_parser("correlate", help="attribute correlation matrix + heatmap")
    _add_common(p_corr)
    p_corr.add_argument("--target", dest="target_column",
                        help="name of the target column if present (default: yield)")

    p_cmp = sub.add_parser("compare", help="re-render comparison table and chart")
    _add_common(p_cmp)

    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        try:
            with reading_text(path):
                payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ValidationError(f"{path}: config must be a JSON object")
        values.update(payload)
    for field in dataclasses.fields(RunConfig):
        cli_value = getattr(args, field.name, None)
        if cli_value is not None:
            values[field.name] = cli_value
    return config_from_dict(values)


def _dispatch(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    if args.command == "synth":
        written = [run_synth(cfg)]
    elif args.command == "train":
        written = run_train(cfg).values()
    elif args.command == "evaluate":
        report, paths = run_evaluate(cfg, args.models)
        print(format_comparison_table(report), end="")
        written = paths.values()
    elif args.command == "predict":
        written = [run_predict(cfg, args.model_file)]
    elif args.command == "correlate":
        written = run_correlate(cfg).values()
    else:
        written = run_compare(cfg).values()
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except SoilYieldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
