"""Triangle listing and counting against the all-triples scan."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given

from trusskit import (
    ResourceLimitError,
    from_edges,
    gnp_random,
    triangle_counts,
)
from trusskit import triangles
from trusskit.triangles import ordered_endpoints, triangle_vertices

from .oracles import (
    adjacency,
    brute_force_triangles,
    edge_index,
    triple_scan_triangles,
    vertex_counts,
)
from .strategies import small_graphs
from .test_checks import cycle_join
from .test_witness import skewed


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


def petersen():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return from_edges(10, outer + spokes + inner)


def collect(G):
    return [tuple(t) for t in triangle_vertices(G).tolist()]


def test_k4_each_triangle_once():
    tris = collect(complete(4))
    assert len(tris) == 4
    assert len(set(tris)) == 4


def test_petersen_triangle_free():
    assert len(triangle_vertices(petersen())) == 0


def test_k6_matches_triple_scan():
    g = complete(6)
    assert sorted(collect(g)) == triple_scan_triangles(g)
    assert len(collect(g)) == 20


def test_counts_k5():
    tc = triangle_counts(complete(5))
    assert tc.per_edge == [3] * 10
    assert tc.total == 10
    assert vertex_counts(complete(5))[1:] == [6] * 5


def test_counts_bowtie():
    g = from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    tc = triangle_counts(g)
    assert tc.per_edge == [1] * 6
    assert tc.total == 2
    assert vertex_counts(g)[3] == 2


def test_counts_random_vs_triples():
    for seed in range(50):
        g = gnp_random(20, 0.3, seed=seed)
        tc = triangle_counts(g)
        ref = triple_scan_triangles(g)
        assert tc.total == len(ref)
        per_edge, eid = [0] * g.m, edge_index(g)
        for a, b, c in ref:
            for x, y in ((a, b), (b, c), (a, c)):
                per_edge[eid[x, y]] += 1
        assert tc.per_edge == per_edge


@given(small_graphs())
def test_enumeration_exactly_once(G):
    tris = collect(G)
    assert len(tris) == len(set(tris))
    assert sorted(tris) == triple_scan_triangles(G)
    for u, v, w in tris:
        assert u < v < w
        assert None not in (G.edge_id(u, v), G.edge_id(v, w), G.edge_id(u, w))


@given(small_graphs())
def test_count_identities(G):
    tc = triangle_counts(G)
    assert sum(tc.per_edge) == 3 * tc.total
    assert sum(vertex_counts(G)) == 3 * tc.total


@given(small_graphs(min_m=1))
def test_scan_side_has_smaller_degree(G):
    for e in range(G.m):
        a, b = ordered_endpoints(G, e)
        da, db = G.degrees[a], G.degrees[b]
        assert da < db or (da == db and a < b)


def test_streaming_sink_not_required():
    assert len(triangle_vertices(complete(5))) == 10


# -- the blocked listing ------------------------------------------------------


def star(n):
    return from_edges(n, [(1, i) for i in range(2, n + 1)])


def degree_ties():
    """Circulant C_13(1, 2, 3) under shuffled ids: 6-regular, so every
    edge's orientation falls to the id tie-break."""
    ids = list(range(1, 14))
    random.Random(5).shuffle(ids)
    pairs = [(ids[i], ids[(i + d) % 13]) for i in range(13) for d in (1, 2, 3)]
    return from_edges(13, pairs)


def most_wedges_at_one_vertex(G):
    """Out-wedges of the busiest vertex when edges point up (degree, id)."""
    rank, nbrs = {v: (G.degrees[v], v) for v in G.vertices}, adjacency(G)
    outs = [sum(rank[w] > rank[v] for w in nbrs[v]) for v in G.vertices]
    return max((d * (d - 1) // 2 for d in outs), default=0)


def check_listing(G):
    ref = brute_force_triangles(G)
    tc = triangle_counts(G)
    assert tc.per_edge == ref.per_edge
    assert triangle_counts(G, keep_listing=False).per_edge == tc.per_edge
    assert vertex_counts(G) == ref.per_vertex
    assert tc.total == ref.total
    tris = collect(G)
    assert sorted(tris) == triple_scan_triangles(G)  # each once, ascending


BLOCKS = (1, 7)  # one wedge per block, and a small prime


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "G",
    [complete(8), star(9), from_edges(0, []), degree_ties()],
    ids=["K8", "star", "empty", "ties"],
)
def test_listing_across_block_boundaries(G, block, monkeypatch):
    monkeypatch.setattr(triangles, "_WEDGE_BLOCK", block)
    check_listing(G)


def test_one_vertex_spans_several_blocks():
    for G in (complete(8), degree_ties()):
        assert most_wedges_at_one_vertex(G) > max(BLOCKS)


@given(small_graphs())
def test_listing_across_block_boundaries_on_small_graphs(G):
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(triangles, "_WEDGE_BLOCK", block)
            check_listing(G)


@pytest.mark.parametrize(
    "g",
    [skewed(400, 3000, seed=4), complete(40), star(300), gnp_random(80, 0.2, seed=6)],
    ids=["skewed", "K40", "star", "gnp"],
)
def test_listing_peak_within_mem_estimate(g, monkeypatch):
    tracemalloc.start()
    try:
        tc = triangle_counts(g)
        tc.incidence
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tc.mem_estimate
    monkeypatch.setenv("TRUSSKIT_MEM_CAP", str(tc.mem_estimate - 1))
    with pytest.raises(ResourceLimitError, match=str(tc.mem_estimate - 1)):
        triangle_counts(g)


def test_incidence_rows_hold_each_edges_triangles():
    # cycle_join(20000, 4) has m = 100,004 > 2^16 edges
    for g in (gnp_random(40, 0.3, seed=3), cycle_join(20_000, 4, seed=1)):
        tc = triangle_counts(g)
        ptr, tri = tc.incidence
        for e in range(g.m):
            row = list(tri[ptr[e] : ptr[e + 1]])
            assert row == sorted(row) and len(row) == tc.per_edge[e]
            assert all(e in tc.listing[3 * t : 3 * t + 3] for t in row)
        # the stable argsort of the listing's edge ids, read as triangle ids
        listing = np.frombuffer(tc.listing, np.int32)
        assert list(tri) == (np.argsort(listing, kind="stable") // 3).tolist()
