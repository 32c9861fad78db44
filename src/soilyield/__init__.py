"""Soil-nutrient regression toolkit.

Predicts leaf yield from tabular soil measurements with three model
families (multiple linear regression, ridge regression, random forest)
behind a deterministic, fully seeded pipeline.
"""

from .dataset import (
    CANONICAL_FEATURES,
    ColumnSchema,
    Dataset,
    SoilSample,
    SplitIndices,
    TARGET_COLUMN,
    drop_incomplete_rows,
    load_csv,
    save_csv,
    soil_schema,
    to_soil_samples,
    train_test_split,
)
from .forest import (
    ForestModel,
    ForestParams,
    Tree,
    best_split,
    fit_forest,
    fit_tree,
    predict_forest,
)
from .linear import LinearModel, fit_mlr, fit_ridge, predict_linear
from .metrics import (
    NutrientCounts,
    classify_levels,
    default_nutrient_thresholds,
    mae,
    nutrient_index,
    r2_score,
    rmse,
)
from .persist import ModelBundle, load_model, save_model
from .pipeline import RunConfig
from .preprocess import (
    CorrelationMatrix,
    NormalizationParams,
    apply_minmax,
    fit_minmax,
    invert_minmax,
    pearson_correlation,
    render_heatmap,
)
from .report import (
    EvaluationReport,
    ModelScore,
    build_report,
    format_comparison_table,
    render_comparison_svg,
    score_predictions,
    write_comparison_csv,
)
from .synth import generate as generate_synthetic

__version__ = "0.1.0"
