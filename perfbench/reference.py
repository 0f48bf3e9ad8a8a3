"""Fixed reference task that measures the host's speed.

The benchmark runs this script as a child process after every round of
timed trusskit processes, and reports their times in units of this task's
time (bench.py, REF_S). It does the same kinds of work as the
workloads, with fixed sizes and no dependence on the seed or on trusskit:
interpreter start-up and the numpy import; a pure-Python triangle count
over a dict of sets on a heavy-tailed graph, like the exact peel; and
float64 matrix products with one BLAS thread, like witness
initialization and the dense k-truss check.
"""

import itertools
import random

import numpy as np


def graph_part() -> int:
    rng = random.Random(7)
    n, m = 3000, 24000
    cum = list(itertools.accumulate((i + 1) ** -0.6 for i in range(n)))
    adj = {v: set() for v in range(n)}
    edges = []
    while len(edges) < m:
        a, b = rng.choices(range(n), cum_weights=cum, k=2)
        if a != b and b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            edges.append((a, b))
    total = 0
    for a, b in edges:
        if len(adj[a]) > len(adj[b]):
            a, b = b, a
        nb = adj[b]
        for x in adj[a]:
            if x in nb:
                total += 1
    return total


def dense_part() -> float:
    rng = np.random.default_rng(7)
    a = rng.random((1200, 1200))
    b = rng.random((1200, 300))
    for _ in range(4):
        c = a @ b
        b = c / c.max()
    adj = (rng.random((1200, 1200)) < 0.01).astype(np.float64)
    return float(b.sum() + (adj @ adj).sum())


if __name__ == "__main__":
    print(graph_part(), round(dense_part(), 3))
