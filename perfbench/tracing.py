"""Outside-in layer tracing for the benchmark.

While a traced iteration runs, every function that ``soilyield.pipeline``
imported from another soilyield module, the pipeline's own ``run_*``
functions, ``Dataset.matrix`` and ``synth.generate`` are replaced by wrappers
that record one span per call.  Nothing inside the program changes: a call
that does not go through one of those names is part of its caller's self
time.  Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from soilyield import pipeline, synth
from soilyield.dataset import Dataset

ITERATION_SPAN = "iteration"


def cpu_seconds() -> tuple[float, float]:
    """User+system CPU time of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    iteration: int
    start: float
    end: float = 0.0
    cpu_self_s: float = 0.0
    cpu_children_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def _observe_predict(args, result):
    return {"rows": len(args[1])}


def _observe_load(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


def _observe_drop(args, result):
    return {"rows_read": args[0].n_rows, "rows_dropped": args[0].n_rows - result.n_rows}


def _observe_clamped(args, result):
    return {"clamped": result}


def _observe_linear(args, result):
    return {"svd": int(result.diagnostics.solver == "svd")}


# Counts recorded at the layer boundary, from a call's arguments and result.
OBSERVERS = {
    "forest.predict_forest": _observe_predict,
    "persist.load_model": _observe_load,
    "dataset.drop_incomplete_rows": _observe_drop,
    "preprocess.out_of_range_count": _observe_clamped,
    "linear.fit_mlr": _observe_linear,
    "linear.fit_ridge": _observe_linear,
}


def traced_names() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) of every call site the tracer wraps."""
    sites = []
    for attr, value in vars(pipeline).items():
        if not inspect.isfunction(value):
            continue
        module = value.__module__
        if module == pipeline.__name__:
            if attr.startswith("run_"):
                sites.append((pipeline, attr, f"pipeline.{attr}"))
        elif module.startswith("soilyield."):
            sites.append((pipeline, attr, f"{module.rsplit('.', 1)[1]}.{attr}"))
    sites.append((Dataset, "matrix", "dataset.Dataset.matrix"))
    sites.append((synth, "generate", "synth.generate"))
    return sites


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._iteration = -1
        self.last_fit: tuple | None = None  # (args, kwargs) of the latest fit_forest

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self._iteration, 0.0)
        self.spans.append(s)
        self._stack.append(s)
        own0, children0 = cpu_seconds()
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            own1, children1 = cpu_seconds()
            s.cpu_self_s = own1 - own0
            s.cpu_children_s = children1 - children0
            self._stack.pop()

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if observe is not None:
                s.attrs.update(observe(args, result))
            if name == "forest.fit_forest":
                self.last_fit = (args, kwargs)
            return result

        return traced

    @contextmanager
    def iteration(self, index: int):
        """Wrap the traced names for one iteration, under one root span."""
        self._iteration = index
        sites = [(owner, attr, getattr(owner, attr), name) for owner, attr, name in traced_names()]
        for owner, attr, original, name in sites:
            setattr(owner, attr, self._wrap(name, original))
        try:
            with self.span(ITERATION_SPAN):
                yield
        finally:
            for owner, attr, original, _ in reversed(sites):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")

    def layer_totals(self) -> dict[str, float]:
        """Per-iteration sums by span, medians over the traced iterations.

        For each span name: ``.total_s``, ``.self_s`` (duration minus the
        direct child spans), ``.calls``, and ``.<attr>`` for each observed
        count.  The root span gives ``pipeline.cpu_s``.
        """
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        per_iteration: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            sums = per_iteration[s.iteration]
            if s.name == ITERATION_SPAN:
                sums["pipeline.cpu_s"] += s.cpu_self_s + s.cpu_children_s
                continue
            duration = s.end - s.start
            sums[f"{s.name}.total_s"] += duration
            sums[f"{s.name}.self_s"] += duration - covered[s.id]
            sums[f"{s.name}.calls"] += 1
            sums[f"{s.name}.parent_cpu_s"] += s.cpu_self_s
            sums[f"{s.name}.worker_cpu_s"] += s.cpu_children_s
            for key, value in s.attrs.items():
                sums[f"{s.name}.{key}"] += value
        names = set().union(*per_iteration.values()) if per_iteration else set()
        return {
            name: statistics.median(sums.get(name, 0.0) for sums in per_iteration.values())
            for name in names
        }
