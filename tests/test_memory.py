"""Memory ceilings of the sparse truss paths on large sparse graphs.

Each call's tracemalloc peak must stay within a fixed number of bytes per
edge of its input, which no dense n x n step can meet at these sizes: one
float64 adjacency matrix on 5,000 vertices is 200 MB, over 13 kB per edge.
"""

import tracemalloc
from itertools import combinations

import pytest

from trusskit import (
    bound_report,
    clique_chain,
    critical_2truss,
    critical_truss,
    from_edges,
    is_critical_k_truss,
    is_k_truss,
    parse_edge_list,
    suspend,
    triangle_counts,
    truss_decomposition,
)

BYTES_PER_EDGE = 2048
# parsing holds the text's lines, one label map and the Graph's own edge
# dict, adjacency and edge tuple, and nothing else per edge
PARSE_BYTES_PER_EDGE = 320

GRAPHS = {
    "critical_2truss(5000)": (lambda: critical_2truss(5000), 2),
    "clique_chain(3, 1300)": (lambda: clique_chain(3, 1300), 3),
}

CALLS = {
    "is_k_truss": lambda G, k: is_k_truss(G, k),
    "is_critical_k_truss": lambda G, k: is_critical_k_truss(G, k),
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


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: from_edges(40, combinations(range(1, 41), 2)), 38),
        (lambda: critical_truss(4, 400), 4),
    ],
    ids=["K_40", "critical_truss(4, 400)"],
)
def test_critical_peak_within_listing_estimate(make, k):
    # the trials' counts, flags and journals fit in what the listing reserved
    G = make()
    estimate = triangle_counts(G).mem_estimate
    tracemalloc.start()
    try:
        assert is_critical_k_truss(G, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate, f"peak {peak} over the listing estimate {estimate}"


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_parse_peak_within_bytes_per_edge(graphs, graph):
    G, _ = graphs[graph]
    text = G.serialize()
    tracemalloc.start()
    try:
        parsed = parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.m == G.m
    assert peak <= PARSE_BYTES_PER_EDGE * G.m, f"parse peaked at {peak / G.m:.0f} bytes per edge"


@pytest.mark.parametrize("build", ["parse_edge_list", "from_edges"])
def test_edge_tuple_is_its_index_key(build):
    # each edge is held once: edges[e] is the very key that maps to e
    pairs = [(v, u) if (u + v) % 2 else (u, v) for u, v in combinations(range(1, 9), 2)]
    if build == "from_edges":
        G = from_edges(8, pairs)
    else:
        G = parse_edge_list("".join(f"{u} {v}\n" for u, v in pairs))
    assert len(G._edge_ids) == G.m == 28
    for key, e in G._edge_ids.items():
        assert G.edges[e] is key
