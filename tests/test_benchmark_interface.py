"""The benchmark's hold on the program, checked without running the benchmark.

``perfbench`` calls ``soilyield.pipeline.run_*``, pins every file a run writes and
wraps the functions ``pipeline`` imported.  A change that moves a pinned byte or a
traced name fails here in tier-1, not first when the benchmark runs.  The
benchmark's modules are loaded from their files and left as they are.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def workloads(monkeypatch):
    return perfbench_module("workloads", monkeypatch)


@pytest.fixture
def tracing(monkeypatch):
    return perfbench_module("tracing", monkeypatch)


def test_pipeline_500_iteration_writes_the_pinned_bytes(workloads, tmp_path):
    ops = workloads.Ops()
    workloads.Pipeline500(7, ops).iterate(tmp_path)
    pins = json.loads((PERFBENCH / "pins.json").read_text(encoding="utf-8"))
    assert workloads.digests(tmp_path) == pins["pipeline-500"]["iteration"]
    assert ops.failed == 0


def test_every_traced_site_resolves(tracing):
    for owner, attr, _ in tracing.traced_names():
        assert callable(getattr(owner, attr)), f"{owner!r} has no function {attr!r}"


def test_every_timed_layer_is_a_traced_site(tracing):
    # The harness reads a layer it never traced as 0, so a renamed import would hide.
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    sites = {site for _, _, site in tracing.traced_names()}
    timed = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
             if m["name"].rsplit(".", 1)[-1] in ("total_s", "self_s", "calls")}
    assert timed - sites == set()
