"""Seeded inputs for the benchmark workloads.

Graphs are written as "u v" edge lists with integer labels. Each input is
made once per seed under perfbench/inputs/ (git-ignored) and reused by
later runs with the same seed.
"""

from __future__ import annotations

import numpy as np


def skewed_edges(n: int, m: int, seed: int, alpha: float = 0.6) -> np.ndarray:
    """Chung-Lu-style graph: m distinct edges whose endpoints are drawn with
    weight proportional to rank^-alpha among n vertices.

    Labels are a seeded permutation of 1..n, edge order is random and each
    edge's endpoint order is a coin flip, so neither the labels nor the
    line order give away the degree ranking. Vertices that draw no edge
    are absent, so the graph has at most n vertices and exactly m edges.
    """
    rng = np.random.default_rng(seed)
    weight = np.arange(1, n + 1, dtype=np.float64) ** -alpha
    p = weight / weight.sum()
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = 2 * (m - keys.size) + 64
        a = rng.choice(n, size=draw, p=p)
        b = rng.choice(n, size=draw, p=p)
        a, b = a[a != b], b[a != b]
        fresh = np.minimum(a, b) * n + np.maximum(a, b)
        keys = np.concatenate([keys, fresh])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]  # drop repeats, keep draw order
    keys = keys[:m]
    return _scramble(np.stack([keys // n, keys % n], axis=1), n, rng)


def cycle_join(c: int, k: int, seed: int) -> np.ndarray:
    """Critical k-truss (k even, c >= 4): a c-cycle joined to K_k minus a
    perfect matching, c + k vertices and c + k(k-2)/2 + c*k edges.

    Cycle edges lie on k triangles (one per hub) and cycle-hub edges on
    2 + (k-2) = k, so deleting any edge drops a neighbouring cycle or
    cycle-hub edge below k, and the cascade runs round the cycle; hub-hub
    edges, left with at most k-2 triangles among the hubs, go last.
    """
    rng = np.random.default_rng(seed)
    cyc = np.arange(c)
    hubs = np.arange(c, c + k)
    pairs = [(a, b) for i, a in enumerate(hubs) for b in hubs[i + 1 :] if b - a != k // 2]
    edges = np.concatenate([
        np.stack([cyc, (cyc + 1) % c], axis=1),
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        np.stack(np.meshgrid(cyc, hubs, indexing="ij"), axis=-1).reshape(-1, 2),
    ])
    return _scramble(edges[rng.permutation(edges.shape[0])], c + k, rng)


def _scramble(edges: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Flip each edge's endpoint order by a coin and relabel the vertices
    by a seeded permutation of 1..n."""
    flip = rng.random(edges.shape[0]) < 0.5
    edges[flip] = edges[flip, ::-1]
    label = rng.permutation(n) + 1
    return label[edges]


def edge_list_text(edges: np.ndarray) -> bytes:
    return "".join(f"{u} {v}\n" for u, v in edges.tolist()).encode()
