"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import time
from importlib import resources

import numpy as np
import pytest

from soilyield.dataset import drop_incomplete_rows, load_csv, soil_schema
from soilyield.errors import SchemaViolationError
from soilyield.forest import ForestParams, fit_forest, predict_forest
from soilyield.linear import fit_mlr, fit_ridge, predict_linear
from soilyield.metrics import NutrientCounts, nutrient_index, r2_score, rmse
from soilyield.persist import load_model, save_model
from soilyield.pipeline import RunConfig, run_correlate, run_evaluate, run_synth, run_train
from soilyield.preprocess import (
    NormalizationParams,
    apply_minmax,
    fit_minmax,
    invert_minmax,
    pearson_correlation,
)

from test_forest import best_split, brute_force_split, random_split_instance
from test_linear import pinv_oracle, random_instance
from test_persist import bundle_predict, make_bundle
from test_preprocess import numeric_dataset


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {name}: PASS")
            return result
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def benchmark_runs(tmp_path_factory):
    """Three executions of the synthetic benchmark pipeline.

    Run A is the reference; run B repeats it with an identical config;
    run C repeats it with 8 tree-fitting workers.
    """
    base = tmp_path_factory.mktemp("benchmark")
    runs = {}
    for label, workers in (("a", 1), ("b", 1), ("c", 8)):
        out = base / label
        started = time.perf_counter()
        synth_path = run_synth(RunConfig(output_dir=str(out), n=500, seed=7))
        cfg = RunConfig(input_path=str(synth_path), output_dir=str(out),
                        seed=7, test_ratio=0.2, workers=workers)
        model_paths = run_train(cfg)
        report, artifacts = run_evaluate(
            cfg, [str(model_paths[k]) for k in ("forest", "ridge", "mlr")])
        run_correlate(cfg)
        runs[label] = {
            "dir": out,
            "report": report,
            "elapsed": time.perf_counter() - started,
        }
    return runs


@criterion(1, "ols-pseudo-inverse-oracle")
def test_criterion_1_ols_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(910)
    for _ in range(100):
        X, y = random_instance(rng, n_max=50, d_max=10)
        m = fit_mlr(X, y)
        intercept, beta = pinv_oracle(X, y)
        assert abs(m.intercept - intercept) < 1e-8
        assert np.max(np.abs(m.coefficients - beta)) < 1e-8
    assert time.perf_counter() - started < 5.0


@criterion(2, "ridge-closed-form")
def test_criterion_2_ridge_closed_form():
    rng = np.random.default_rng(911)
    for _ in range(20):
        X, y = random_instance(rng)
        ols = fit_mlr(X, y)
        at_zero = fit_ridge(X, y, 0.0)
        assert abs(ols.intercept - at_zero.intercept) < 1e-8
        assert np.max(np.abs(ols.coefficients - at_zero.coefficients)) < 1e-8

    one_d = fit_ridge([[-1.0], [1.0]], [-1.0, 1.0], 2.0)
    assert abs(one_d.coefficients[0] - 0.5) <= 1e-12
    assert abs(one_d.intercept) <= 1e-12

    lambdas = (0.0, 0.1, 1.0, 10.0, 1e3)
    for _ in range(20):
        X, y = random_instance(rng)
        norms = [float(np.linalg.norm(fit_ridge(X, y, lam).coefficients))
                 for lam in lambdas]
        for small, large in zip(norms, norms[1:]):
            assert small >= large - 1e-12


@criterion(3, "best-split-brute-force-oracle")
def test_criterion_3_split_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(912)
    checked_splits = 0
    for _ in range(200):
        X, y = random_split_instance(rng, n_max=30, d_max=4)
        rows = np.arange(X.shape[0])
        features = list(range(X.shape[1]))
        ours = best_split(rows, X, y, features)
        oracle = brute_force_split(rows, X, y, features)
        if oracle is None:
            assert ours is None
            continue
        checked_splits += 1
        assert (ours.feature, ours.threshold) == (oracle[0], oracle[1])
        assert ours.impurity_decrease == pytest.approx(oracle[2], rel=1e-9, abs=1e-9)
    assert checked_splits > 150
    assert time.perf_counter() - started < 5.0


@criterion(4, "r2-metric-suite")
def test_criterion_4_metric_suite():
    assert r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert r2_score([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
    assert r2_score([1.0, 2.0, 3.0], [1.1, 1.9, 3.2]) == pytest.approx(0.97, abs=1e-12)

    rng = np.random.default_rng(913)
    for _ in range(100):
        n = int(rng.integers(2, 50))
        y = rng.normal(size=n)
        if np.all(y == y[0]):
            continue
        pred = rng.normal(size=n)
        shift = float(rng.normal(scale=50.0))
        base = r2_score(y, pred)
        assert r2_score(y + shift, pred + shift) == pytest.approx(base, rel=1e-10, abs=1e-10)
        rss = float(((y - pred) ** 2).sum())
        assert abs(rss - n * rmse(y, pred) ** 2) < 1e-10


@criterion(5, "forest-outperforms-linear-models")
def test_criterion_5_qualitative_ordering(benchmark_runs):
    run = benchmark_runs["a"]
    scores = {e.model_name: e.r2 for e in run["report"].entries}
    assert scores["forest"] >= scores["ridge"] + 0.10
    assert scores["forest"] >= scores["mlr"] + 0.10
    assert run["report"].entries[0].model_name == "forest"
    assert run["elapsed"] < 30.0


@criterion(6, "end-to-end-determinism")
def test_criterion_6_determinism(benchmark_runs):
    artifacts = (
        "model_mlr.json", "model_ridge.json", "model_forest.json",
        "comparison.csv", "comparison.svg", "correlation_heatmap.svg",
        "correlation.csv", "train_log.txt", "synthetic_soil.csv",
    )
    reference = benchmark_runs["a"]["dir"]
    for other in ("b", "c"):
        for name in artifacts:
            assert (reference / name).read_bytes() == \
                (benchmark_runs[other]["dir"] / name).read_bytes(), \
                f"{name} differs between runs a and {other}"


@criterion(7, "normalization-properties")
def test_criterion_7_normalization():
    rng = np.random.default_rng(914)
    for _ in range(50):
        k = int(rng.integers(1, 8))
        mins = rng.normal(scale=10.0, size=k)
        spread = np.abs(rng.normal(size=k)) * rng.integers(0, 2, size=k)
        params = NormalizationParams(
            columns=tuple(f"c{i}" for i in range(k)),
            mins=mins, maxs=mins + spread,
        )
        wild = rng.normal(scale=100.0, size=(12, k))
        z = apply_minmax(params, wild)
        assert np.all(z >= 0.0) and np.all(z <= 1.0)
        constant = spread == 0
        assert np.all(z[:, constant] == 0.0)

        in_range = rng.uniform(params.mins, np.where(constant, mins, params.maxs),
                               size=(12, k))
        back = invert_minmax(params, apply_minmax(params, in_range))
        assert np.max(np.abs(back - in_range)) < 1e-12


@criterion(8, "correlation-properties")
def test_criterion_8_correlation():
    rng = np.random.default_rng(915)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        k = int(rng.integers(2, 8))
        data = rng.normal(size=(n, k))
        if rng.random() < 0.2:
            data[:, 0] = 3.25  # exercise the zero-variance rule
        c = pearson_correlation(numeric_dataset(data))
        assert np.array_equal(c.values, c.values.T)
        assert np.max(np.abs(np.diag(c.values) - 1.0)) <= 1e-12
        assert np.max(np.abs(c.values)) <= 1.0 + 1e-12

    hand = pearson_correlation(numeric_dataset([[1.0, 1.0], [2.0, 2.0], [3.0, 4.0]]))
    assert hand.values[0, 1] == pytest.approx(0.9820, abs=1e-4)


@criterion(9, "bundled-fixtures")
def test_criterion_9_fixtures():
    sample_path = resources.files("soilyield").joinpath("data/sample_soil.csv")
    header = ("pH", "EC", "OC", "P", "K", "Ca", "Mg", "S", "Zn", "Fe", "Mn", "Cu", "yield")
    d = drop_incomplete_rows(load_csv(sample_path, soil_schema(header)))
    assert d.n_rows == 2
    assert d.matrix(("yield",)).ravel().tolist() == [50.36, 48.62]

    assert nutrient_index(NutrientCounts(nl=2, nm=3, nh=5, nt=10)) == 2.3
    assert nutrient_index(NutrientCounts(nl=4, nm=0, nh=0, nt=4)) == 1.0
    assert nutrient_index(NutrientCounts(nl=0, nm=0, nh=6, nt=6)) == 3.0


@criterion(10, "persistence-round-trip")
def test_criterion_10_persistence(tmp_path):
    rng = np.random.default_rng(916)
    for kind in ("mlr", "ridge", "forest"):
        bundle, X = make_bundle(kind, seed=21)
        path = tmp_path / f"{kind}.json"
        save_model(bundle, path)
        loaded = load_model(path)
        probe = rng.uniform(X.min(axis=0), X.max(axis=0), size=(100, X.shape[1]))
        assert bundle_predict(bundle, probe).tobytes() == \
            bundle_predict(loaded, probe).tobytes()

        full = path.read_text()
        for cut in (1, len(full) // 3, len(full) - 2):
            path.write_text(full[:cut])
            with pytest.raises(SchemaViolationError):
                load_model(path)
