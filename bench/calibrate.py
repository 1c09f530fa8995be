"""Host-speed probe: a fixed Python and numpy workload in a fresh process.

The shared host this benchmark runs on changes speed by tens of percent
over minutes.  run.py times this script right before every repetition and
divides the repetition's times by it, so the reported set-up and run
times follow the program, not the host.  The script starts an interpreter
and imports numpy, like the program's set-up, then runs a loop of small
matrix products, elementwise numpy calls and short-lived Python objects,
like its training loop.  It must never change: its reference time is
recorded in reference.json.
"""

import numpy as np


class Node:
    __slots__ = ("data", "parents")

    def __init__(self, data, parents=()):
        self.data = data
        self.parents = parents


def loop(iterations: int) -> float:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 8))
    w1 = rng.standard_normal((8, 64)) * 0.3
    w2 = rng.standard_normal((64, 64)) * 0.1
    w3 = rng.standard_normal((64, 4)) * 0.1
    total = 0.0
    for _ in range(iterations):
        h1 = Node(np.maximum(x @ w1, 0.0))
        h2 = Node(np.maximum(h1.data @ w2, 0.0), (h1,))
        out = Node(h2.data @ w3, (h2,))
        shifted = out.data - out.data.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        p = e / e.sum(axis=1, keepdims=True)
        grads = {id(node): p for node in (h1, h2, out)}
        if not all(np.all(np.isfinite(g)) for g in grads.values()):
            raise FloatingPointError("calibration went non-finite")
        w3 = w3 - 1e-6 * (h2.data.T @ p)
        total += float(p[0, 0])
    return total


if __name__ == "__main__":
    loop(4000)
