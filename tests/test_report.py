from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soilyield import svgutil
from soilyield.errors import SchemaViolationError
from soilyield.report import (
    ModelScore,
    build_report,
    format_comparison_table,
    read_comparison_csv,
    render_comparison_svg,
    score_predictions,
    write_comparison_csv,
)


def entry(name, r2):
    return ModelScore(model_name=name, r2=r2, rmse=1.0, mae=0.5, n_test=10)


def ranking(report):
    """The report's model names, in its order."""
    return tuple(e.model_name for e in report.entries)


class TestRanking:
    def test_reported_accuracy_ordering(self):
        report = build_report([
            entry("mlr", 0.7431), entry("forest", 0.946), entry("ridge", 0.794),
        ])
        assert ranking(report) == ("forest", "ridge", "mlr")

    def test_single_model(self):
        assert ranking(build_report([entry("forest", 0.5)])) == ("forest",)

    def test_tie_breaks_alphabetically(self):
        report = build_report([entry("b", 0.5), entry("a", 0.5)])
        assert ranking(report) == ("a", "b")

    def test_ranking_matches_argsort(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            scores = {f"m{i}": float(r) for i, r in enumerate(rng.normal(size=5))}
            report = build_report([entry(k, v) for k, v in scores.items()])
            expected = tuple(sorted(scores, key=lambda k: (-scores[k], k)))
            assert ranking(report) == expected

    def test_ranking_invariant_under_positive_affine_rescaling(self):
        rng = np.random.default_rng(8)
        scores = {f"m{i}": float(r) for i, r in enumerate(rng.normal(size=5))}
        base = build_report([entry(k, v) for k, v in scores.items()])
        rescaled = build_report([entry(k, 0.3 * v + 7.0) for k, v in scores.items()])
        assert ranking(base) == ranking(rescaled)


class TestScorePredictions:
    def test_fields_are_consistent(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=30)
        pred = y + rng.normal(scale=0.2, size=30)
        s = score_predictions("forest", y, pred)
        assert s.n_test == 30
        rss = float(((y - pred) ** 2).sum())
        tss = float(((y - y.mean()) ** 2).sum())
        assert s.r2 == pytest.approx(1.0 - rss / tss, abs=1e-12)

    def test_negative_r2_not_clipped(self):
        y = np.array([1.0, 2.0, 3.0])
        s = score_predictions("mlr", y, np.array([30.0, -10.0, 4.0]))
        assert s.r2 < 0


class TestComparisonArtifacts:
    def test_csv_write_read_round_trip(self, tmp_path):
        report = build_report([
            entry("forest", 0.946), entry("ridge", 0.794), entry("mlr", 0.7431),
        ])
        path = tmp_path / "comparison.csv"
        write_comparison_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,r2,rmse,mae,n_test"
        assert lines[1].startswith("forest,0.946")
        loaded = read_comparison_csv(path)
        assert ranking(loaded) == ranking(report)
        assert loaded.entries[0].r2 == 0.946

    def test_read_rejects_malformed_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("who,knows\n1,2\n")
        with pytest.raises(SchemaViolationError):
            read_comparison_csv(path)
        path.write_text("model,r2,rmse,mae,n_test\nforest,not_a_number,1,1,5\n")
        with pytest.raises(SchemaViolationError):
            read_comparison_csv(path)

    def test_svg_bars_in_ranking_order_with_labels(self, tmp_path):
        report = build_report([
            entry("forest", 0.946), entry("ridge", 0.794), entry("mlr", 0.7431),
        ])
        path = tmp_path / "comparison.svg"
        render_comparison_svg(report, path)
        text = path.read_text()
        assert text.index(">forest<") < text.index(">ridge<") < text.index(">mlr<")
        for label in (">0.95<", ">0.79<", ">0.74<"):
            assert label in text

    def test_svg_handles_negative_scores(self, tmp_path):
        report = build_report([entry("good", 0.9), entry("bad", -0.4)])
        path = tmp_path / "comparison.svg"
        render_comparison_svg(report, path)
        assert ">-0.40<" in path.read_text()

    def test_table_is_ranked(self):
        report = build_report([entry("mlr", 0.1), entry("forest", 0.9)])
        table = format_comparison_table(report)
        lines = table.splitlines()
        assert lines[0].split()[0] == "model"
        assert lines[1].split()[0] == "forest"
        assert lines[2].split()[0] == "mlr"

    def test_determinism(self, tmp_path):
        report = build_report([entry("forest", 0.5), entry("mlr", 0.25)])
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        render_comparison_svg(report, a)
        render_comparison_svg(report, b)
        assert a.read_bytes() == b.read_bytes()


class TestSvgEscape:
    @settings(max_examples=300, derandomize=True)
    @given(s=st.text(st.sampled_from(list("&<>\"';#amplgtquo é€😀\x00")) | st.characters()))
    @example(s="&amp;&lt;<>\"'récolte ≤ 5")
    def test_matches_saxutils_escape(self, s):
        assert svgutil.escape(s) == saxutils.escape(s)
