"""The three benchmark workloads, their inputs and their output checks.

Every workload is a closed loop with one caller: the next iteration starts
when the previous one has returned.  Iterations call only the public
``soilyield.pipeline.run_*`` functions, looked up on the module at call time
so that the tracer can wrap them.  All inputs are generated here, in the
benchmark process, from the workload seed; the program only ever sees the
generated files.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from soilyield import pipeline, synth
from soilyield.dataset import TARGET_COLUMN
from soilyield.pipeline import RunConfig

TREES = 100
TEST_RATIO = 0.2
MODEL_KINDS = ("forest", "ridge", "mlr")
# Acceptance criterion 5: the forest beats each linear model by this R² margin.
R2_MARGIN = 0.10
# The config echo records the output directory, which differs per run.
UNPINNED = {pipeline.CONFIG_ECHO_FILENAME}


class Ops:
    """Counts ``run_*`` calls and output checks, and those that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            raise

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every artifact in ``directory``, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.name not in UNPINNED
    }


def margin_ok(scores: dict[str, float]) -> bool:
    forest = scores["forest"]
    return forest >= scores["ridge"] + R2_MARGIN and forest >= scores["mlr"] + R2_MARGIN


def write_unlabeled(path: Path, n: int, seed: int) -> None:
    """Synth rows without the yield column; about 1% of rows get one blank cell."""
    d = synth.generate(n, seed)
    keep = [i for i, name in enumerate(d.column_names) if name != TARGET_COLUMN]
    rng = np.random.default_rng((seed, 1))
    blank_row = rng.random(n) < 0.01
    blank_col = rng.integers(0, len(keep), size=n)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([d.column_names[i] for i in keep])
        for i, row in enumerate(d.rows):
            cells = [repr(row[j]) for j in keep]
            if blank_row[i]:
                cells[blank_col[i]] = ""
            writer.writerow(cells)


def forest_stats(model_path: Path) -> dict[str, float]:
    """Node, leaf and depth counts and OOB R² read from a persisted forest.

    Reads the version-1 file format (preorder node lists, ``f`` marking a
    split), which stays byte-stable across refactors of the in-memory trees.
    """
    payload = json.loads(model_path.read_text(encoding="utf-8"))["payload"]
    nodes = leaves = max_depth = 0
    for tree in payload["trees"]:
        open_children = [0]  # depth of each child still to be read, as a stack
        for node in tree:
            depth = open_children.pop()
            max_depth = max(max_depth, depth)
            nodes += 1
            if "f" in node:
                open_children += [depth + 1, depth + 1]
            else:
                leaves += 1
    return {
        "forest.nodes": nodes,
        "forest.leaves": leaves,
        "forest.max_depth": max_depth,
        "forest.oob_r2": payload["oob_r2"],
    }


class Workload:
    """One workload: set-up, a timed iteration, and a closing evaluation.

    ``prepare`` builds what every iteration reads; ``iterate`` is the timed
    unit and may return held-out R² scores; ``finish`` runs once after the
    loop and returns the scores of the models the workload used.
    """

    name: str
    rows: int  # input rows per iteration, the base of rows_per_s
    workers = 1

    def __init__(self, seed: int, ops: Ops) -> None:
        self.seed = seed
        self.ops = ops
        self.cfg: RunConfig | None = None
        self.models: dict[str, Path] = {}

    def prepare(self, work: Path) -> None:
        pass

    def iterate(self, out: Path) -> dict[str, float] | None:
        raise NotImplementedError

    def finish(self, out: Path) -> dict[str, float]:
        cfg = dataclasses.replace(self.cfg, output_dir=str(out))
        report, _ = self.ops.call(
            pipeline.run_evaluate, cfg, [str(self.models[k]) for k in MODEL_KINDS])
        return {e.model_name: e.r2 for e in report.entries}

    def _train(self, out: Path, n: int) -> None:
        synth_path = self.ops.call(
            pipeline.run_synth, RunConfig(output_dir=str(out), n=n, seed=self.seed))
        self.cfg = RunConfig(
            input_path=str(synth_path), output_dir=str(out), seed=self.seed,
            test_ratio=TEST_RATIO, trees=TREES, workers=self.workers,
        )
        self.models = self.ops.call(pipeline.run_train, self.cfg)


class Pipeline500(Workload):
    """synth(500) -> train all three -> evaluate -> correlate: ROADMAP's end to end."""

    name = "pipeline-500"
    rows = 500

    def iterate(self, out: Path) -> dict[str, float]:
        self._train(out, self.rows)
        report, _ = self.ops.call(
            pipeline.run_evaluate, self.cfg, [str(self.models[k]) for k in MODEL_KINDS])
        self.ops.call(pipeline.run_correlate, self.cfg)
        self.scores = {e.model_name: e.r2 for e in report.entries}
        return self.scores

    def finish(self, out: Path) -> dict[str, float]:
        return self.scores


class Predict10k(Workload):
    """Predict 10,000 unlabeled rows with a forest trained during set-up."""

    name = "predict-10k"
    rows = 10_000

    def prepare(self, work: Path) -> None:
        self._train(work, 500)
        self.unlabeled = work / "unlabeled.csv"
        write_unlabeled(self.unlabeled, self.rows, self.seed + 1)

    def iterate(self, out: Path) -> None:
        cfg = RunConfig(input_path=str(self.unlabeled), output_dir=str(out), seed=self.seed)
        self.ops.call(pipeline.run_predict, cfg, str(self.models["forest"]))


class Train1kW2(Workload):
    """synth(1000) -> train all three with two tree-fitting worker processes."""

    name = "train-1k-w2"
    rows = 1000

    def __init__(self, seed: int, ops: Ops) -> None:
        super().__init__(seed, ops)
        self.workers = min(2, len(os.sched_getaffinity(0)))  # never more than the CPUs

    def iterate(self, out: Path) -> None:
        self._train(out, self.rows)


BY_NAME = {w.name: w for w in (Pipeline500, Predict10k, Train1kW2)}
