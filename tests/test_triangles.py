"""Triangle listing and counting against the all-triples scan."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given

from trusskit import (
    ResourceLimitError,
    WitnessConfig,
    enumerate_residual,
    from_edges,
    init_witness,
    triangle_counts,
)
from trusskit import triangles, witness
from trusskit.triangles import out_wedges, triangle_vertices

from .oracles import (
    adjacency,
    brute_force_triangles,
    edge_id,
    edge_index,
    ordered_endpoints,
    triple_scan_triangles,
    vertex_counts,
)
from .strategies import gnp_random, small_graphs
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
    assert tc.per_edge.tolist() == [3] * 10
    assert tc.total == 10
    assert vertex_counts(complete(5))[1:] == [6] * 5


def test_counts_bowtie():
    g = from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    tc = triangle_counts(g)
    assert tc.per_edge.tolist() == [1] * 6
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
        assert tc.per_edge.tolist() == per_edge


@given(small_graphs())
def test_enumeration_exactly_once(G):
    tris = collect(G)
    assert len(tris) == len(set(tris))
    assert sorted(tris) == triple_scan_triangles(G)
    for u, v, w in tris:
        assert u < v < w
        assert None not in (edge_id(G, u, v), edge_id(G, v, w), edge_id(G, u, w))


@given(small_graphs())
def test_count_identities(G):
    tc = triangle_counts(G)
    assert sum(tc.per_edge) == 3 * tc.total
    assert sum(vertex_counts(G)) == 3 * tc.total


@given(small_graphs(min_m=1))
def test_scan_side_has_smaller_degree(G):
    # with no vertex in any set, every edge on a triangle takes the fallback
    # scan, which walks its scan side's CSR row and searches the other's
    state = init_witness(G, WitnessConfig(1, sets=1), _xmat=np.zeros((G.n + 1, 1), bool))
    nbrs, searched, search = adjacency(G), [], witness._edge
    witness._edge = lambda adj, x, w: searched.append(x) or search(adj, x, w)
    try:
        for e in range(G.m):
            a, b = ordered_endpoints(G, e)
            da, db = G.degrees[a], G.degrees[b]
            assert da < db or (da == db and a < b)
            del searched[:]
            want = sorted(nbrs[a] & nbrs[b])
            assert enumerate_residual(state, e).witnesses == want
            # a's other neighbours are each searched for in b's row
            assert searched == ([b] * (len(nbrs[a]) - 1) if want else [])
    finally:
        witness._edge = search


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


def out_wedge_counts(G):
    """Out-wedges at each vertex when edges point up (degree, id)."""
    rank, nbrs = {v: (G.degrees[v], v) for v in G.vertices}, adjacency(G)
    outs = [sum(rank[w] > rank[v] for w in nbrs[v]) for v in G.vertices]
    return [d * (d - 1) // 2 for d in outs]


def most_wedges_at_one_vertex(G):
    return max(out_wedge_counts(G), default=0)


@given(small_graphs())
def test_out_wedges_bound_the_triangles(G):
    assert out_wedges(G) == sum(out_wedge_counts(G)) >= triangle_counts(G).total


def check_listing(G):
    ref = brute_force_triangles(G)
    tc = triangle_counts(G)
    assert tc.per_edge.tolist() == ref.per_edge
    assert triangle_counts(G, keep_listing=False).per_edge.tolist() == tc.per_edge.tolist()
    assert vertex_counts(G) == ref.per_vertex
    assert tc.total == ref.total
    tris = collect(G)
    assert sorted(tris) == triple_scan_triangles(G)  # each once, ascending


BLOCKS = (1, 7)  # one wedge per block, and a small prime
# the Fibonacci multiplier, and 0, which hashes every key to one shared
# slot of both tables so that every wedge goes through the table, then
# the spare table, and closes by the sorted-key search
HASHES = (triangles._HASH_MULT, np.uint64(0))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize(
    "G",
    [complete(8), star(9), from_edges(0, []), degree_ties()],
    ids=["K8", "star", "empty", "ties"],
)
def test_listing_across_block_boundaries(G, block, monkeypatch):
    monkeypatch.setattr(triangles, "_WEDGE_BLOCK", block)
    for mult in HASHES:
        monkeypatch.setattr(triangles, "_HASH_MULT", mult)
        check_listing(G)


def test_one_vertex_spans_several_blocks():
    for G in (complete(8), degree_ties()):
        assert most_wedges_at_one_vertex(G) > max(BLOCKS)


@given(small_graphs())
def test_listing_across_block_boundaries_on_small_graphs(G):
    for block in BLOCKS:
        for mult in HASHES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(triangles, "_WEDGE_BLOCK", block)
                mp.setattr(triangles, "_HASH_MULT", mult)
                check_listing(G)


@pytest.mark.parametrize("m", [1, 2, 3, 1000, 1025])
def test_position_table_holds_each_lone_key(m):
    # the table over all keys, then the spare table over the keys whose
    # slot it shares, hashed again and holding their positions among all
    keys = np.sort(np.random.default_rng(m).choice(1 << 40, m, replace=False))
    pos = np.arange(m, dtype=np.int32)
    for rehash in (False, True):
        table, shift, crowd = triangles._position_table(keys[pos], pos, rehash)
        assert len(table) == triangles._table_slots(len(pos) << rehash) >= len(pos) << rehash
        slots = triangles._slots(keys[pos], shift, rehash)
        assert slots.min(initial=0) >= 0 and slots.max(initial=0) < len(table)
        share = np.bincount(slots, minlength=len(table))
        assert (table[share == 0] == -1).all()
        assert (table[share > 1] == -2).all()
        lone = share[slots] == 1
        assert (table[slots[lone]] == pos[lone]).all()
        assert crowd.tolist() == pos[~lone].tolist()
        pos = crowd


@pytest.mark.parametrize(
    "g",
    [
        skewed(400, 3000, seed=4),
        complete(40),
        star(300),
        gnp_random(80, 0.2, seed=6),
        skewed(600, 2**12 + 1, seed=4),  # 8 bytes of position table per edge, 16 of spare
    ],
    ids=["skewed", "K40", "star", "gnp", "skewed-past-2^12"],
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


def check_incidence(g):
    tc = triangle_counts(g)
    ptr, tri = tc.incidence
    assert len(ptr) == g.m + 1 and len(tri) == 3 * tc.total
    for e in range(g.m):
        row = list(tri[ptr[e] : ptr[e + 1]])
        assert row == sorted(row) and len(row) == tc.per_edge[e]
        assert all(e in tc.listing[3 * t : 3 * t + 3] for t in row)
    # the stable argsort of the listing's edge ids, read as triangle ids
    listing = np.frombuffer(tc.listing, np.int32)
    assert list(tri) == (np.argsort(listing, kind="stable") // 3).tolist()


def test_incidence_rows_hold_each_edges_triangles():
    # cycle_join(20000, 4) has m = 100,004 > 2^16 edges; in K_n every edge
    # lies on n - 2 triangles
    for g in (gnp_random(40, 0.3, seed=3), cycle_join(20_000, 4, seed=1)):
        check_incidence(g)
    for n in range(4, 31):
        check_incidence(complete(n))


@given(small_graphs())
def test_incidence_rows_hold_each_edges_triangles_on_small_graphs(G):
    check_incidence(G)


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("g", [complete(6), star(9), from_edges(0, [])], ids=["K6", "star", "empty"])
def test_counts_are_int64_arrays(g, keep):
    per_edge = triangle_counts(g, keep_listing=keep).per_edge
    assert isinstance(per_edge, np.ndarray) and per_edge.dtype == np.int64
    assert per_edge.shape == (g.m,)
