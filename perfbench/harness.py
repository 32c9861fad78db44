"""One benchmark run: set-up, the timed closed loop, output checks, metrics.

``soilyield`` must already be importable (``run.py`` puts the checkout's
``src`` first on ``sys.path``).  Run-time files go under ``.perfbench/`` at
the checkout root: a work directory that is removed afterwards, and the
artifact digests and spans of each run.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from soilyield import synth
from soilyield.dataset import drop_incomplete_rows, load_csv, save_csv, soil_schema
from soilyield.forest import fit_forest

from refkernel import ReferenceKernel
from tracing import Tracer, traced_names
from workloads import BY_NAME, TREES, Ops, digests, forest_stats, margin_ok

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
PIN_SEED = 7
# Set-up runs at least this often and this long; setup_s is the median.
SETUP_REPS = 3
SETUP_SECONDS = 3.0
MIN_ITERATIONS = 3
INGEST_LADDER = {"500": 500, "2k": 2_000, "20k": 20_000}


def fresh_import_s(module: str) -> float:
    """Wall time of a fresh interpreter that imports ``module`` and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def clean_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Run:
    """One workload at one seed: set-up, timed loop, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.ops = Ops()
        self.wl = BY_NAME[name](seed, self.ops)
        self.seed, self.seconds, self.trace, self.work = seed, seconds, trace, work
        self.tracer = Tracer()
        self.kernel = ReferenceKernel()
        pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
        self.pins = pins.get(name, {}) if seed == PIN_SEED else {}
        self.seen: dict[str, dict[str, str]] = {}
        self.setup_s: list[float] = []
        self.walls: list[float] = []
        self.traced_walls: list[float] = []
        self.refs: list[float] = []
        self.kernels: list[float] = []
        self.scores: dict[str, float] = {}

    def check_artifacts(self, stage: str, directory: Path) -> bool:
        """Artifacts equal the first ones seen at this stage, and the pins."""
        got = digests(directory)
        expected = self.seen.setdefault(stage, got)
        ok = got == expected and got == self.pins.get(stage, got)
        if not ok:
            print(f"check failed: {stage} artifacts in {directory.name} differ", file=sys.stderr)
        return ok

    def set_up(self) -> None:
        k = 0
        while k < SETUP_REPS or sum(self.setup_s) < SETUP_SECONDS:
            target = clean_dir(self.work / f"setup-{k}")
            start = time.perf_counter()
            fresh_import_s("soilyield.pipeline")
            self.wl.prepare(target)
            self.setup_s.append(time.perf_counter() - start)
            if any(target.iterdir()):
                self.ops.check(self.check_artifacts("setup", target))
            k += 1

    def loop(self) -> None:
        out = self.work / "iter"
        kernel_before = self.kernel.seconds()
        self.kernels.append(kernel_before)
        start = time.perf_counter()
        i = 0
        # A traced run alternates untraced and traced iterations: one more
        # gives it at least two of each.
        while i < MIN_ITERATIONS + self.trace or time.perf_counter() - start < self.seconds:
            traced = self.trace and i % 2 == 1
            clean_dir(out)
            t0 = time.perf_counter()
            try:
                if traced:
                    with self.tracer.iteration(i):
                        scores = self.wl.iterate(out)
                else:
                    scores = self.wl.iterate(out)
            except Exception:
                traceback.print_exc()
                i += 1
                continue
            wall = time.perf_counter() - t0
            kernel_after = self.kernel.seconds()
            self.kernels.append(kernel_after)
            ok = self.check_artifacts("iteration", out)
            if scores is not None:
                ok = ok and margin_ok(scores)
            if self.ops.check(ok):
                (self.traced_walls if traced else self.walls).append(wall)
                if not traced:
                    self.refs.append(wall / ((kernel_before + kernel_after) / 2))
            kernel_before = kernel_after
            i += 1

    def finish(self) -> None:
        final = clean_dir(self.work / "final")
        self.scores = self.wl.finish(final)
        ok = margin_ok(self.scores)
        if any(final.iterdir()):
            ok = self.check_artifacts("final", final) and ok
        self.ops.check(ok)

    def end_to_end(self) -> dict[str, float]:
        walls = self.walls
        return {
            "wall_s": statistics.median(walls),
            "wall_ref": statistics.median(self.refs),
            "rows_per_s": statistics.median(self.wl.rows / w for w in walls),
            "setup_s": statistics.median(self.setup_s),
            "peak_rss_mb": peak_rss_mb(),
            "r2.forest": self.scores["forest"],
            "r2.ridge": self.scores["ridge"],
            "r2.mlr": self.scores["mlr"],
        }

    def per_layer(self) -> dict[str, float]:
        m = self.tracer.layer_totals()
        for _, _, site in traced_names():  # a layer this workload never calls reads 0
            for suffix in ("total_s", "self_s", "calls", "parent_cpu_s", "worker_cpu_s"):
                m.setdefault(f"{site}.{suffix}", 0.0)

        def get(key: str) -> float:  # absent means not exercised
            return m.get(key, 0.0)

        forest_path = self.wl.models["forest"]
        m.update(forest_stats(forest_path))
        m["forest.fit_forest.us_per_node"] = ratio(
            get("forest.fit_forest.total_s") * 1e6,
            get("forest.fit_forest.calls") * m["forest.nodes"])
        m["forest.predict_forest.ns_per_row_tree"] = ratio(
            get("forest.predict_forest.total_s") * 1e9, get("forest.predict_forest.rows") * TREES)
        m["persist.load_model.mb_per_s"] = ratio(
            get("persist.load_model.bytes") / 1e6, get("persist.load_model.total_s"))
        m["persist.model_bytes"] = forest_path.stat().st_size
        m["dataset.rows_read"] = get("dataset.drop_incomplete_rows.rows_read")
        m["dataset.rows_dropped"] = get("dataset.drop_incomplete_rows.rows_dropped")
        m["preprocess.clamped_cells"] = get("preprocess.out_of_range_count.clamped")
        m["linear.svd_fallbacks"] = get("linear.fit_mlr.svd") + get("linear.fit_ridge.svd")
        m["trace.overhead"] = ratio(statistics.median(self.traced_walls),
                                    statistics.median(self.walls))
        m["cli.import_s"] = statistics.median(fresh_import_s("soilyield.cli") for _ in range(3))
        m.update(self.ingest_ladder())

        m["forest.fit_forest.speedup_w2"] = 0.0  # only measured with two workers
        if self.wl.workers > 1 and self.tracer.last_fit is not None:
            args, kwargs = self.tracer.last_fit
            fit_s = {}
            for workers in (1, self.wl.workers):
                t0 = time.perf_counter()
                fit_forest(*args, **dict(kwargs, workers=workers))
                fit_s[workers] = time.perf_counter() - t0
            m["forest.fit_forest.speedup_w2"] = fit_s[1] / fit_s[self.wl.workers]
        return m

    def ingest_ladder(self) -> dict[str, float]:
        """Microseconds per row of load_csv + drop_incomplete_rows + matrix."""
        ladder = {}
        for label, n in INGEST_LADDER.items():
            d = synth.generate(n, self.seed)
            path = self.work / f"ingest-{label}.csv"
            save_csv(d, path)
            schema = soil_schema(d.column_names)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                drop_incomplete_rows(load_csv(path, schema)).matrix()
                times.append(time.perf_counter() - t0)
            ladder[f"dataset.ingest_us_per_row.{label}"] = statistics.median(times) * 1e6 / n
        return ladder

    def execute(self) -> dict:
        metrics: dict[str, float] = {}
        try:
            self.set_up()
        except Exception:  # counted as a failed operation; no iteration can run
            traceback.print_exc()
            return metrics
        self.loop()
        if self.walls:
            self.finish()
            metrics = self.end_to_end()
            if self.trace and self.traced_walls:
                metrics.update(self.per_layer())
        OUTPUT.mkdir(exist_ok=True)
        stem = f"{self.wl.name}-seed{self.seed}"
        (OUTPUT / f"digests-{stem}.json").write_text(
            json.dumps(self.seen, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        if self.trace:
            self.tracer.write(OUTPUT / f"spans-{stem}.jsonl")
        return metrics

    def result(self, metrics: dict, spec: dict) -> dict:
        """Print every metric by name and unit; return the JSON result line."""
        ops = self.ops
        print(f"{self.wl.name}: seed {self.seed}, closed loop with 1 caller, "
              f"{len(self.walls)} untraced + {len(self.traced_walls)} traced iterations")
        notes = {
            "wall_s": f"median of {len(self.walls)}",
            "wall_ref": f"median of {len(self.refs)}",
            "rows_per_s": f"median of {len(self.walls)}",
            "setup_s": f"median of {len(self.setup_s)}",
        }
        listed = spec["per_layer"] if self.trace else spec["end_to_end"]
        rows = [(m["name"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]]
        shown = [(n, u) for n, u in rows if n in metrics]
        if self.walls:
            print(f"  {'ref_kernel_s':40s} {statistics.median(self.kernels):.6f} s "
                  f"(median of {len(self.kernels)}; host speed)")
        for n, u in shown:
            print(f"  {n:40s} {metrics[n]:.6g} {u} {notes.get(n, '')}".rstrip())
        print(f"  {'ops_failed':40s} {ops.failed} of {ops.attempted} attempted")

        correct = ops.failed == 0 and bool(self.walls)
        values = {}
        for m in listed:
            if m["name"] not in metrics and correct:
                raise KeyError(f"BENCHMARK.json lists {m['name']!r}, which this run did not measure")
            values[m["name"]] = {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
        return {"correct": correct, "attempted": max(ops.attempted, 1),
                "failed": ops.failed, "metrics": values}
