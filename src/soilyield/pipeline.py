"""End-to-end command implementations behind the CLI.

Every command is a pure function of a :class:`RunConfig` (plus explicit
model paths where relevant): same config, same output bytes.  The stages
are: load CSV -> drop incomplete rows -> seeded split -> fit min-max
scalers on the training rows -> fit models -> score on the held-out rows
-> report.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import synth
from .dataset import (
    Dataset,
    TARGET_COLUMN,
    drop_incomplete_rows,
    load_csv,
    save_csv,
    soil_schema,
    train_test_split,
)
from .errors import DimensionMismatchError, ValidationError
from .forest import ForestModel, ForestParams, fit_forest, predict_forest
from .linear import LinearModel, fit_mlr, fit_ridge, predict_linear
from .metrics import r2_score
from .persist import ModelBundle, load_model, save_model
from .preprocess import (
    NormalizationParams,
    apply_minmax,
    fit_minmax,
    invert_minmax,
    out_of_range_count,
    pearson_correlation,
    render_heatmap,
)
from .report import (
    EvaluationReport,
    build_report,
    format_comparison_table,
    read_comparison_csv,
    render_comparison_svg,
    score_predictions,
    write_comparison_csv,
)

MODEL_CHOICES = ("mlr", "ridge", "forest", "all")

SYNTH_FILENAME = "synthetic_soil.csv"
TRAIN_LOG_FILENAME = "train_log.txt"
CONFIG_ECHO_FILENAME = "run_config.json"
COMPARISON_CSV_FILENAME = "comparison.csv"
COMPARISON_SVG_FILENAME = "comparison.svg"
COMPARISON_TXT_FILENAME = "comparison.txt"
CORRELATION_CSV_FILENAME = "correlation.csv"
HEATMAP_FILENAME = "correlation_heatmap.svg"
PREDICTIONS_FILENAME = "predictions.csv"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# A check per type named in a RunConfig annotation; a float is finite, and an
# int is a valid float when a float can hold it.
_CONFIG_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "float": lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max,
    "bool": lambda v: isinstance(v, bool),
    "None": lambda v: v is None,
}


def model_filename(kind: str) -> str:
    return f"model_{kind}.json"


@dataclass(frozen=True)
class RunConfig:
    """Every knob of a run; a persisted config re-executes identically."""

    input_path: str | None = None
    output_dir: str = "out"
    model: str = "all"
    seed: int = 42
    test_ratio: float = 0.2
    ridge_lambda: float = 1.0
    trees: int = 100
    max_depth: int | None = None
    min_samples_split: int = 2
    min_leaf: int = 1
    max_features: int | None = None
    bootstrap: bool = True
    workers: int = 1
    target_column: str = TARGET_COLUMN
    n: int = 500

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not any(_CONFIG_CHECKS[name](value) for name in f.type.split(" | ")):
                raise ValidationError(f"config {f.name} must be {f.type}, got {value!r}")
        if self.model not in MODEL_CHOICES:
            raise ValidationError(
                f"model must be one of {', '.join(MODEL_CHOICES)}, got {self.model!r}"
            )
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")

    def forest_params(self) -> ForestParams:
        return ForestParams(
            n_trees=self.trees,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_leaf,
            max_features=self.max_features,
            seed=self.seed,
            bootstrap=self.bootstrap,
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2) + "\n"


def config_from_dict(values: dict) -> RunConfig:
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    return RunConfig(**values)


def _require_input(cfg: RunConfig) -> str:
    if not cfg.input_path:
        raise ValidationError("an --input CSV is required for this command")
    return cfg.input_path


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_cleaned(path: str, target: str | None) -> Dataset:
    return drop_incomplete_rows(load_csv(path, partial(soil_schema, target=target)))


def _selected_kinds(model: str) -> tuple[str, ...]:
    return ("mlr", "ridge", "forest") if model == "all" else (model,)


def _target_vector(scaler: NormalizationParams, y: np.ndarray, forward: bool) -> np.ndarray:
    column = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    out = apply_minmax(scaler, column) if forward else invert_minmax(scaler, column)
    return out.ravel()


def _fit_kind(kind: str, cfg: RunConfig, X: np.ndarray, y: np.ndarray,
              feature_names: tuple[str, ...]) -> LinearModel | ForestModel:
    if kind == "forest":
        return fit_forest(X, y, cfg.forest_params(), feature_names, workers=cfg.workers)
    if kind == "ridge":
        return fit_ridge(X, y, cfg.ridge_lambda, feature_names)
    return fit_mlr(X, y, feature_names)


def run_synth(cfg: RunConfig) -> Path:
    out = _out_dir(cfg)
    d = synth.generate(cfg.n, cfg.seed)
    path = out / SYNTH_FILENAME
    save_csv(d, path)
    return path


def run_train(cfg: RunConfig) -> dict[str, Path]:
    """Train the selected models and persist them with their scalers."""
    input_path = _require_input(cfg)
    kinds = _selected_kinds(cfg.model)
    if "forest" in kinds:
        cfg.forest_params()  # reject bad forest settings before any file is written
    out = _out_dir(cfg)
    d = _load_cleaned(input_path, target=cfg.target_column)
    split = train_test_split(d, cfg.test_ratio, cfg.seed)

    features = d.feature_names
    target = d.target_name
    feature_scaler = fit_minmax(d, split.train, features)
    target_scaler = fit_minmax(d, split.train, (target,))

    train = d.matrix()[list(split.train)]  # the features, then the target
    x_train = apply_minmax(feature_scaler, train[:, :-1])
    y_train_raw = train[:, -1]
    y_train = _target_vector(target_scaler, y_train_raw, forward=True)

    log_lines = [
        f"input: {Path(input_path).name}",
        f"rows_read: {d.provenance.rows_read}",
        f"rows_dropped: {d.provenance.rows_dropped}",
        f"rows_kept: {d.n_rows}",
        f"train_rows: {len(split.train)}",
        f"test_rows: {len(split.test)}",
        f"seed: {cfg.seed}",
        f"test_ratio: {cfg.test_ratio}",
    ]
    paths: dict[str, Path] = {}
    for kind in kinds:
        model = _fit_kind(kind, cfg, x_train, y_train, features)
        bundle = ModelBundle(
            kind=kind,
            feature_names=features,
            target_name=target,
            feature_scaler=feature_scaler,
            target_scaler=target_scaler,
            model=model,
        )
        path = out / model_filename(kind)
        save_model(bundle, path)
        paths[kind] = path

        train_pred = _bundle_predict_normalized(bundle, x_train)
        r2 = r2_score(y_train_raw, _target_vector(target_scaler, train_pred, forward=False))
        detail = f"model {kind}: training_r2={r2:.6f}"
        if kind == "ridge":
            detail += f" lambda={cfg.ridge_lambda}"
        if kind == "forest":
            oob = model.oob_r2
            detail += f" trees={cfg.trees} oob_r2=" + ("n/a" if oob is None else f"{oob:.6f}")
        if isinstance(model, LinearModel):
            detail += f" solver={model.diagnostics.solver}"
        detail += f" file={path.name}"
        log_lines.append(detail)

    log_path = out / TRAIN_LOG_FILENAME
    log_path.write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    paths["log"] = log_path
    (out / CONFIG_ECHO_FILENAME).write_text(cfg.to_json(), encoding="utf-8")
    return paths


def _bundle_predict_normalized(bundle: ModelBundle, x_norm: np.ndarray) -> np.ndarray:
    if isinstance(bundle.model, ForestModel):
        return predict_forest(bundle.model, x_norm)
    return predict_linear(bundle.model, x_norm)


def predict_bundle(bundle: ModelBundle, d: Dataset) -> tuple[np.ndarray, int]:
    """Predict original-unit targets for every row of a cleaned dataset.

    Returns the predictions and the number of feature cells that fell
    outside the training range and were clamped.
    """
    missing = [c for c in bundle.feature_names if c not in d.column_names]
    if missing:
        raise DimensionMismatchError(
            f"input lacks model feature columns: {', '.join(missing)}"
        )
    x_raw = d.matrix(bundle.feature_names)
    clamped = out_of_range_count(bundle.feature_scaler, x_raw)
    x_norm = apply_minmax(bundle.feature_scaler, x_raw)
    pred_norm = _bundle_predict_normalized(bundle, x_norm)
    return _target_vector(bundle.target_scaler, pred_norm, forward=False), clamped


def run_evaluate(cfg: RunConfig, model_paths: Sequence[str]) -> tuple[EvaluationReport, dict[str, Path]]:
    """Score persisted models on the held-out split reconstructed from the seed."""
    input_path = _require_input(cfg)
    out = _out_dir(cfg)
    d = _load_cleaned(input_path, target=cfg.target_column)
    split = train_test_split(d, cfg.test_ratio, cfg.seed)
    test = replace(d, values=d.values[list(split.test)])
    y_true = test.matrix((cfg.target_column,)).ravel()

    entries = []
    for model_path in model_paths:
        bundle = load_model(model_path)
        y_pred, _ = predict_bundle(bundle, test)
        entries.append(score_predictions(bundle.kind, y_true, y_pred))

    report = build_report(entries)
    csv_path = out / COMPARISON_CSV_FILENAME
    svg_path = out / COMPARISON_SVG_FILENAME
    write_comparison_csv(report, csv_path)
    render_comparison_svg(report, svg_path)
    return report, {"csv": csv_path, "svg": svg_path}


def run_predict(cfg: RunConfig, model_path: str) -> Path:
    """Write input rows plus a predicted_yield column in original units."""
    input_path = _require_input(cfg)
    out = _out_dir(cfg)
    bundle = load_model(model_path)
    cleaned = _load_cleaned(input_path, target=None)
    predictions, clamped = predict_bundle(bundle, cleaned)

    path = out / PREDICTIONS_FILENAME
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(cleaned.column_names) + ["predicted_yield"])
        for row, pred in zip(cleaned.rows, predictions.tolist()):
            writer.writerow(row + [pred])
        dropped = cleaned.provenance.rows_dropped
        fh.write(f"# clamped_cells={clamped} rows_dropped={dropped}\n")
    return path


def run_correlate(cfg: RunConfig) -> dict[str, Path]:
    """Emit the attribute correlation matrix as CSV plus a heatmap SVG."""
    input_path = _require_input(cfg)
    out = _out_dir(cfg)
    target = cfg.target_column
    d = drop_incomplete_rows(load_csv(
        input_path, lambda header: soil_schema(header, target if target in header else None)))
    corr = pearson_correlation(d)

    csv_path = out / CORRELATION_CSV_FILENAME
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([""] + list(corr.labels))
        for label, row in zip(corr.labels, corr.values):
            writer.writerow([label] + [repr(float(v)) for v in row])
    svg_path = out / HEATMAP_FILENAME
    render_heatmap(corr, svg_path)
    return {"csv": csv_path, "svg": svg_path}


def run_compare(cfg: RunConfig) -> dict[str, Path]:
    """Re-render comparison artifacts from a metrics CSV."""
    input_path = _require_input(cfg)
    out = _out_dir(cfg)
    report = read_comparison_csv(input_path)
    txt_path = out / COMPARISON_TXT_FILENAME
    txt_path.write_text(format_comparison_table(report), encoding="utf-8")
    svg_path = out / COMPARISON_SVG_FILENAME
    render_comparison_svg(report, svg_path)
    return {"txt": txt_path, "svg": svg_path}
