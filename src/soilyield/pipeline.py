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
import os
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import synth
from .dataset import (
    CANONICAL_FEATURES,
    Dataset,
    OPTIONAL_FEATURES,
    TARGET_COLUMN,
    drop_incomplete_rows,
    load_csv,
    save_csv,
    soil_schema,
    train_test_split,
    write_csv,
)
from .errors import NumericalError, ValidationError
from .forest import ForestModel, ForestParams, fit_forest, predict_forest
from .linear import fit_mlr, fit_ridge, predict_linear
from .metrics import r2_score
from .persist import MODEL_KINDS, ModelBundle, load_model, save_model
from .preprocess import (
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

MODEL_CHOICES = MODEL_KINDS + ("all",)

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
        if self.seed < 0:
            raise ValidationError(f"config seed must be >= 0, got {self.seed}")
        if self.target_column in CANONICAL_FEATURES + OPTIONAL_FEATURES:
            raise ValidationError(
                f"--target {self.target_column!r} is a soil feature column, not a target"
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


def run_synth(cfg: RunConfig) -> Path:
    d = synth.generate(cfg.n, cfg.seed)
    path = _out_dir(cfg) / SYNTH_FILENAME
    save_csv(d, path)
    return path


def run_train(cfg: RunConfig) -> dict[str, Path]:
    """Train the selected models, then persist them with their scalers: nothing is
    written until every model is fitted and scored, so a refused run leaves no output."""
    input_path = _require_input(cfg)
    kinds = MODEL_KINDS if cfg.model == "all" else (cfg.model,)
    d = _load_cleaned(input_path, target=cfg.target_column)
    train_rows, test_rows = train_test_split(d, cfg.test_ratio, cfg.seed)
    train = replace(d, values=d.values[train_rows])  # soil_schema puts the target last

    target = cfg.target_column
    features = tuple(c for c in d.column_names if c != target)
    if train.n_rows < 2:
        raise ValidationError(f"--test-ratio {cfg.test_ratio} leaves {train.n_rows} training "
                              f"row of {d.n_rows}; training needs at least 2")
    if "mlr" in kinds and train.n_rows <= len(features):
        raise ValidationError(
            f"mlr needs more training rows than features: test_ratio {cfg.test_ratio} leaves "
            f"{train.n_rows} of {d.n_rows} rows for {len(features)} features"
        )
    feature_scaler = fit_minmax(train, features)
    target_scaler = fit_minmax(train, (target,))
    if target_scaler.mins[0] == target_scaler.maxs[0]:  # each model logs an undefined R²
        raise NumericalError(f"target column {target!r} of {Path(input_path).name} is "
                             f"constant over its {train.n_rows} training rows")
    if "forest" in kinds:
        params = ForestParams(n_trees=cfg.trees, max_depth=cfg.max_depth,
                              min_samples_split=cfg.min_samples_split,
                              min_samples_leaf=cfg.min_leaf, max_features=cfg.max_features,
                              seed=cfg.seed, bootstrap=cfg.bootstrap)
        # The fit makes every tree's generator (over 1 KB) and bootstrap rows, then a node
        # at least, before it grows one: refuse a forest whose lower bound exceeds the RAM,
        # where the RAM is known (Windows has no ``os.sysconf``).
        need = cfg.trees * (1024 + 8 * train.n_rows + 24)
        known = "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {})
        ram = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if known else np.inf
        if need > ram:
            raise MemoryError(f"--trees {cfg.trees} on {train.n_rows} training rows needs "
                              f"over {need / 2**30:.1f} GiB; this machine has {ram / 2**30:.1f}")

    x_train = apply_minmax(feature_scaler, train.values[:, :-1])
    y_train = apply_minmax(target_scaler, train.values[:, -1:]).ravel()
    log_lines = [
        f"input: {Path(input_path).name}",
        f"rows_read: {d.rows_read}",
        f"rows_dropped: {d.rows_dropped}",
        f"rows_kept: {d.n_rows}",
        f"train_rows: {train.n_rows}",
        f"test_rows: {len(test_rows)}",
        f"seed: {cfg.seed}",
        f"test_ratio: {cfg.test_ratio}",
    ]
    bundles = []
    for kind in kinds:
        if kind == "forest":
            model = fit_forest(x_train, y_train, params, workers=cfg.workers)
            train_pred = model.training_predictions
            oob = model.oob_r2
            fields = f"trees={cfg.trees} oob_r2=" + ("n/a" if oob is None else f"{oob:.6f}")
        else:
            ridge = kind == "ridge"
            model = (fit_ridge(x_train, y_train, cfg.ridge_lambda) if ridge
                     else fit_mlr(x_train, y_train))
            train_pred = predict_linear(model, x_train)
            lam = f"lambda={cfg.ridge_lambda} " if ridge else ""
            fields = f"{lam}solver={model.diagnostics.solver}"
        r2 = r2_score(train.values[:, -1], invert_minmax(target_scaler, train_pred[:, None]).ravel())
        log_lines.append(f"model {kind}: training_r2={r2:.6f} {fields} file={model_filename(kind)}")
        bundles.append(ModelBundle(kind, features, target, feature_scaler, target_scaler, model))

    out = _out_dir(cfg)
    paths: dict[str, Path] = {}
    for bundle in bundles:
        paths[bundle.kind] = out / model_filename(bundle.kind)
        save_model(bundle, paths[bundle.kind])
    log_path = out / TRAIN_LOG_FILENAME
    log_path.write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    paths["log"] = log_path
    (out / CONFIG_ECHO_FILENAME).write_text(cfg.to_json(), encoding="utf-8")
    return paths


def predict_bundle(bundle: ModelBundle, d: Dataset) -> tuple[np.ndarray, int]:
    """Predict original-unit targets for every row of a cleaned dataset.

    Returns the predictions and the number of feature cells that fell
    outside the training range and were clamped.
    """
    missing = [c for c in bundle.feature_names if c not in d.column_names]
    if missing:
        raise ValidationError(
            f"input lacks model feature columns: {', '.join(missing)}"
        )
    x_raw = d.values if d.column_names == bundle.feature_names else d.matrix(bundle.feature_names)
    clamped = out_of_range_count(bundle.feature_scaler, x_raw)
    x_norm = apply_minmax(bundle.feature_scaler, x_raw)
    predict = predict_forest if isinstance(bundle.model, ForestModel) else predict_linear
    pred_norm = predict(bundle.model, x_norm)
    return invert_minmax(bundle.target_scaler, pred_norm[:, None]).ravel(), clamped


def _scalers_match(bundle: ModelBundle, train: Dataset) -> bool:
    """Whether the bundle's scalers are, bit for bit, the min and max of the ``train`` rows.

    Training fits them on its split's training rows, so a model trained on
    another split (seed, test ratio or input) nearly always fails this.  It is
    necessary, not sufficient: on tiny or duplicated data another split can
    share the extremes.
    """
    return all(
        np.array_equal(scaler.mins, refit.mins) and np.array_equal(scaler.maxs, refit.maxs)
        for scaler in (bundle.feature_scaler, bundle.target_scaler)
        for refit in [fit_minmax(train, scaler.columns)]
    )


def run_evaluate(cfg: RunConfig, model_paths: Sequence[str]) -> tuple[EvaluationReport, dict[str, Path]]:
    """Score persisted models on the held-out split reconstructed from the seed."""
    input_path = _require_input(cfg)
    d = _load_cleaned(input_path, target=cfg.target_column)
    train_rows, test_rows = train_test_split(d, cfg.test_ratio, cfg.seed)
    if len(test_rows) < 2:
        raise ValidationError(f"--test-ratio {cfg.test_ratio} leaves {len(test_rows)} test row "
                              f"of {d.n_rows}; scoring needs at least 2")
    train, test = (replace(d, values=d.values[rows]) for rows in (train_rows, test_rows))
    y_true = test.matrix((cfg.target_column,)).ravel()

    entries = []
    for model_path in model_paths:
        bundle = load_model(model_path)
        if bundle.target_name != cfg.target_column:
            raise ValidationError(
                f"{model_path} predicts {bundle.target_name!r}, but --target is "
                f"{cfg.target_column!r}"
            )
        if any(e.model_name == bundle.kind for e in entries):
            # The comparison names each model by its kind, and compare refuses a repeat.
            raise ValidationError(f"{model_path}: a second {bundle.kind} model to evaluate")
        y_pred, _ = predict_bundle(bundle, test)
        # A test split that cannot be scored (a constant target) is reported first.
        score = score_predictions(bundle.kind, y_true, y_pred)
        if not _scalers_match(bundle, train):
            raise ValidationError(
                f"{model_path}: model was not trained on this split "
                "(seed/test_ratio/input differ)"
            )
        entries.append(score)

    report = build_report(entries)
    out = _out_dir(cfg)
    csv_path = out / COMPARISON_CSV_FILENAME
    svg_path = out / COMPARISON_SVG_FILENAME
    write_comparison_csv(report, csv_path)
    render_comparison_svg(report, svg_path)
    return report, {"csv": csv_path, "svg": svg_path}


def run_predict(cfg: RunConfig, model_path: str) -> Path:
    """Write input rows plus a predicted_yield column in original units."""
    input_path = _require_input(cfg)
    bundle = load_model(model_path)
    cleaned = _load_cleaned(input_path, target=None)
    predictions, clamped = predict_bundle(bundle, cleaned)

    path = _out_dir(cfg) / PREDICTIONS_FILENAME
    with path.open("w", encoding="utf-8", newline="") as fh:
        write_csv(fh, cleaned.column_names + ("predicted_yield",), cleaned.values, predictions)
        fh.write(f"# clamped_cells={clamped} rows_dropped={cleaned.rows_dropped}\n")
    return path


def run_correlate(cfg: RunConfig) -> dict[str, Path]:
    """Emit the attribute correlation matrix as CSV plus a heatmap SVG."""
    input_path = _require_input(cfg)
    target = cfg.target_column
    d = drop_incomplete_rows(load_csv(
        input_path, lambda header: soil_schema(header, target if target in header else None)))
    corr = pearson_correlation(d)

    out = _out_dir(cfg)
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
    report = read_comparison_csv(input_path)
    out = _out_dir(cfg)
    txt_path = out / COMPARISON_TXT_FILENAME
    txt_path.write_text(format_comparison_table(report), encoding="utf-8")
    svg_path = out / COMPARISON_SVG_FILENAME
    render_comparison_svg(report, svg_path)
    return {"txt": txt_path, "svg": svg_path}
