"""soilyield benchmark: three closed-loop workloads over ``soilyield.pipeline``.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each run sets up its workload several times (``setup_s`` is the median),
then runs iterations back to back for ``--seconds`` (at least a few), timing
a fixed reference kernel before the first and after every iteration.  Every
iteration's artifacts are hashed and must equal the first iteration's, and
at the pinned seed also the SHA-256 pins in ``pins.json``.  It prints each
metric by name with its unit, then, as the last line, one JSON object with
the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``).  A traced run alternates untraced and traced
iterations; its spans go to ``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("pipeline-500", "predict-10k", "train-1k-w2")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "soilyield" / "__init__.py").is_file():
        print(f"error: no soilyield sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import OUTPUT, Run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUTPUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUTPUT))
    try:
        run = Run(name, seed, seconds, trace, work)
        metrics = run.execute()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(run.result(metrics, spec)))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
