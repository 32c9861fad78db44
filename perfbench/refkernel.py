"""Reference kernel: fixed work that measures how fast the host is right now.

The host's speed drifts by more than 1.5x within seconds, and process CPU
time drifts with it, so iteration wall times are divided by this kernel's
time, measured just before and just after each iteration.  The work mirrors
the program's two kinds of hot loop without importing anything from
soilyield: sorting small lists of pairs with small-array numpy calls (the
forest trainer's node scans), and routing rows down object trees of a few
hundred nodes (the forest predictor, which is bound by memory latency).
"""

from __future__ import annotations

import random
import time

import numpy as np

SCANS = 5000
TREES = 100
LEAVES_PER_TREE = 250
ROWS = 500
FEATURES = 12


class _Split:
    def __init__(self, feature: int, threshold: float, left, right) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


class _Leaf:
    def __init__(self, value: float) -> None:
        self.value = value


def _grow(rng: random.Random, leaves: int):
    if leaves == 1:
        return _Leaf(rng.random())
    k = rng.randint(1, leaves - 1)
    return _Split(rng.randrange(FEATURES), rng.random(), _grow(rng, k), _grow(rng, leaves - k))


class ReferenceKernel:
    """Builds its inputs once; :meth:`seconds` times one pass over them."""

    def __init__(self) -> None:
        rng = random.Random(20211004)
        self.pairs = [(rng.random(), rng.random()) for _ in range(64)]
        self.xs = np.array([p[0] for p in self.pairs])
        self.ys = np.array([p[1] for p in self.pairs])
        self.trees = [_grow(rng, LEAVES_PER_TREE) for _ in range(TREES)]
        self.rows = np.random.default_rng(20211004).random((ROWS, FEATURES))

    def seconds(self) -> float:
        start = time.perf_counter()
        checksum = self._scans() + self._walks()
        elapsed = time.perf_counter() - start
        if not checksum > 0.0:
            raise AssertionError("reference kernel did no work")
        return elapsed

    def _scans(self) -> float:
        acc = 0.0
        pairs, xs, ys = self.pairs, self.xs, self.ys
        for k in range(SCANS):
            m = 8 + k % 40
            for _, y in sorted(pairs[:m]):
                acc += y * y
            order = np.lexsort((ys[:m], xs[:m]))
            acc += float(np.cumsum(ys[order])[-1]) + float(np.mean(ys[xs <= 0.5]))
        return acc

    def _walks(self) -> float:
        acc = 0.0
        for i in range(self.rows.shape[0]):
            x = self.rows[i]
            for node in self.trees:
                while isinstance(node, _Split):
                    node = node.left if x[node.feature] <= node.threshold else node.right
                acc += node.value
        return acc
