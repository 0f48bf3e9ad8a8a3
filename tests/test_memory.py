"""Memory ceilings of the sparse truss paths on large sparse graphs.

Each call's tracemalloc peak must stay within a fixed number of bytes per
edge of its input, which no dense n x n step can meet at these sizes: one
float64 adjacency matrix on 5,000 vertices is 200 MB, over 13 kB per edge.
"""

import tracemalloc

import pytest

from trusskit import (
    bound_report,
    clique_chain,
    critical_2truss,
    is_k_truss,
    suspend,
    truss_decomposition,
)

BYTES_PER_EDGE = 2048

GRAPHS = {
    "critical_2truss(5000)": (lambda: critical_2truss(5000), 2),
    "clique_chain(3, 1300)": (lambda: clique_chain(3, 1300), 3),
}

CALLS = {
    "is_k_truss": lambda G, k: is_k_truss(G, k),
    "bound_report": lambda G, k: bound_report(G, truss_decomposition(G)),
    "suspend": lambda G, k: suspend(G, k, 1),
}


@pytest.fixture(scope="module")
def graphs():
    return {name: (make(), k) for name, (make, k) in GRAPHS.items()}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_peak_within_bytes_per_edge(graphs, graph, call):
    G, k = graphs[graph]
    assert G.n >= 5000
    tracemalloc.start()
    try:
        CALLS[call](G, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= BYTES_PER_EDGE * G.m, f"{call} peaked at {peak / G.m:.0f} bytes per edge"
