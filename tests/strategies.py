"""Hypothesis strategies for small graphs, and seeded random graphs."""

from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from trusskit import ValidationError, from_edges


def gnp_random(n: int, p: float, seed: int):
    """Erdos-Renyi G(n, p) with deterministic seeding; isolated vertices
    are kept so n is exact."""
    if n < 1 or not (0.0 <= p <= 1.0):
        raise ValidationError("need n >= 1 and p in [0, 1]")
    rng = np.random.default_rng(seed)
    pairs = []
    # row u draws for the pairs (u, u+1..n): consecutive draws continue
    # one stream, so this equals one draw over all pairs in row order
    for u in range(1, n):
        keep = np.flatnonzero(rng.random(n - u) < p) + (u + 1)
        pairs.extend((u, v) for v in keep.tolist())
    return from_edges(n, pairs)


@st.composite
def small_graphs(draw, min_n=2, max_n=10, min_m=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    possible = list(combinations(range(1, n + 1), 2))
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=min_m,
                 max_size=len(possible))
    )
    return from_edges(n, pairs)


@st.composite
def edge_texts(draw, max_n=8):
    """Random edge-list text over string labels, duplicate-free."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    labels = [f"v{i}" for i in range(n)]
    possible = list(combinations(labels, 2))
    pairs = draw(
        st.lists(st.sampled_from(possible), unique=True, min_size=1,
                 max_size=len(possible))
    )
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    lines = [(f"{b} {a}" if f else f"{a} {b}") for (a, b), f in zip(pairs, flips)]
    return "\n".join(lines)
