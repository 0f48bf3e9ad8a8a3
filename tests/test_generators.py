"""Extremal constructions: counts, truss property, criticality."""

from itertools import combinations

import numpy as np
import pytest

from trusskit import (
    InfeasibleError,
    ValidationError,
    clique_chain,
    clique_chain_remainder,
    critical_2truss,
    critical_truss,
    from_edges,
    gnp_random,
    is_critical_k_truss,
    is_k_truss,
    suspend,
    suspension_ladder,
    torus_embedding,
    triangle_counts,
    truss_from_embedding,
)
from trusskit.generators import FaceEmbedding, has_truss_safe_shape

from .oracles import (
    adjacency,
    dense_suspend,
    eager_torus_search,
    edge_pairs,
    induced_by_vertices,
    vertex_counts,
)


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


# -- clique chains -------------------------------------------------------------


def test_clique_chain_examples():
    g, receipt = clique_chain(2, 2, return_receipt=True)
    assert (g.n, g.m) == (7, 12)
    assert receipt.expected_n == receipt.actual_n
    assert (clique_chain(1, 3).n, clique_chain(1, 3).m) == (7, 9)
    k3s1 = clique_chain(3, 1)
    assert (k3s1.n, k3s1.m) == (5, 10)  # a single 5-clique


def test_clique_chain_edge_formula():
    # exactly m = (n-1)(1 + k/2) when n = s(k+1) + 1
    for k in range(1, 7):
        for s in range(1, 9):
            g = clique_chain(k, s)
            assert 2 * g.m == (g.n - 1) * (2 + k)
            assert is_k_truss(g, k)


def test_chain_remainder_examples():
    g = clique_chain_remainder(2, 8)
    assert (g.n, g.m) == (8, 16)
    g = clique_chain_remainder(2, 4)
    assert (g.n, g.m) == (4, 6)  # just K_4


def test_chain_remainder_grid():
    for k in range(1, 7):
        for n in range(k + 2, 41):
            g = clique_chain_remainder(k, n)
            assert g.n == n
            assert is_k_truss(g, k)
            # m <= n(1 + k/2) + O(k^2) with explicit constant
            assert 2 * g.m <= n * (k + 2) + 2 * (2 * k * k + 3 * k + 1)


def test_chain_remainder_too_small():
    with pytest.raises(ValidationError):
        clique_chain_remainder(3, 4)


def _sample_truss_outputs():
    yield 2, clique_chain(2, 3)
    yield 3, clique_chain(3, 2)
    yield 4, clique_chain(4, 1)
    yield 1, clique_chain_remainder(1, 9)
    yield 2, critical_2truss(8)
    yield 3, critical_truss(3, 24)  # torus route
    yield 4, critical_truss(4, 11)  # ladder route


def test_generated_trusses_triangle_lower_bound():
    # a connected k-truss needs at least (n-1)(k+2)k/6 triangles
    for k, g in _sample_truss_outputs():
        total = triangle_counts(g).total
        assert 6 * total >= (g.n - 1) * (k + 2) * k


def test_truss_neighborhood_bounds():
    # inside a k-truss every vertex sees >= C(k+1,2) triangles and its
    # closed neighborhood spans >= C(k+2,2) edges
    for k, g in _sample_truss_outputs():
        per_vertex, nbrs = vertex_counts(g), adjacency(g)
        for v in g.vertices:
            assert per_vertex[v] >= (k + 1) * k // 2
            closed = induced_by_vertices(g, [v, *nbrs[v]])
            assert closed.m >= (k + 2) * (k + 1) // 2


# -- critical 2-truss ----------------------------------------------------------


def test_critical_2truss_counts():
    assert critical_2truss(6).m == 12
    assert critical_2truss(10).m == 24


def test_critical_2truss_is_critical():
    assert is_critical_k_truss(critical_2truss(10), 2)


def test_critical_2truss_every_edge_two_triangles():
    g = critical_2truss(6)
    assert triangle_counts(g).per_edge == [2] * g.m


def test_critical_2truss_too_small():
    with pytest.raises(ValidationError):
        critical_2truss(5)


# -- suspension ----------------------------------------------------------------


def test_suspend_k3_forces_k4():
    g = suspend(complete(3), 1, 1)
    assert (g.n, g.m) == (4, 6)


def test_suspend_critical_2truss_by_two():
    base = critical_2truss(6)
    g = suspend(base, 2, 2)
    assert g.n == 8
    assert g.m <= base.m + 2 * base.n
    assert is_critical_k_truss(g, 4)


def test_suspend_rejects_non_truss():
    path = from_edges(3, [(1, 2), (2, 3)])
    with pytest.raises(ValidationError):
        suspend(path, 1, 1)


def _suspend_cases():
    for n in range(6, 14):
        yield critical_2truss(n), 2
    # below their own k, chains and cliques leave slack on the original
    # edges, so the apex edges' own counts decide; k = -1 with one apex
    # asks for a 0-truss, where only "the apex keeps an edge" stops it
    for k, s in ((1, 3), (2, 2), (2, 4), (3, 3)):
        for j in range(1, k + 1):
            yield clique_chain(k, s), j
    for n in range(3, 8):
        for k in range(-1, n - 1):
            yield complete(n), k


def test_suspend_matches_dense_greedy_oracle():
    built = refused = 0
    for g, k in _suspend_cases():
        for added in (1, 2):
            try:
                want, want_receipt = dense_suspend(g, k, added)
            except ValidationError:
                with pytest.raises(ValidationError):
                    suspend(g, k, added)
                refused += 1
                continue
            got, receipt = suspend(g, k, added, return_receipt=True)
            assert got.n == want.n and edge_pairs(got) == edge_pairs(want)
            assert receipt == want_receipt
            built += 1
    assert built and refused


def test_suspension_ladder_bound():
    # iterated construction stays within n(k+1) - k^2/2 - 2k + 1/2
    for k in range(2, 7):
        n = k + 6
        g = suspension_ladder(k, n)
        assert g.n == n
        assert 2 * g.m <= 2 * n * (k + 1) - k * k - 4 * k + 1
        assert is_critical_k_truss(g, k)


# -- torus embeddings ----------------------------------------------------------


def test_embedding_six_squares():
    emb = torus_embedding(6, 4)
    assert emb.vertex_count == 8
    assert len(emb.edge_set()) == 16
    assert sorted(len(f) for f in emb.faces) == [4] * 8
    assert emb.girth_sum == 32


def test_embedding_mixed_faces():
    emb = torus_embedding(4, 6)
    assert emb.vertex_count == 8
    assert len(emb.edge_set()) == 14
    assert sorted(len(f) for f in emb.faces) == [4, 4, 4, 4, 6, 6]
    assert emb.girth_sum == 28


def test_embedding_every_edge_two_distinct_faces():
    for i, t in [(6, 4), (4, 6), (3, 4), (8, 5)]:
        emb = torus_embedding(i, t)
        for faces in emb.edge_face_incidence.values():
            assert len(faces) == 2 and faces[0] != faces[1]


def test_embedding_infeasible_small():
    with pytest.raises(InfeasibleError):
        torus_embedding(0, 4)
    with pytest.raises(InfeasibleError):
        torus_embedding(2, 4)  # would need 8 distinct edges on 4 vertices


@pytest.mark.parametrize("strict", [False, True])
def test_embedding_search_order_matches_the_eager_list(strict):
    # the stackings come one at a time, in the order of the full list
    found = 0
    for i in range(13):
        for t in range(4, 10):
            want = eager_torus_search(i, t, strict)
            if want is None:
                with pytest.raises(InfeasibleError):
                    torus_embedding(i, t, return_receipt=True, strict=strict)
                continue
            emb, receipt = torus_embedding(i, t, return_receipt=True, strict=strict)
            assert (emb.faces, receipt.notes[-1]) == (want[0], f"offset={want[1]}"), (i, t)
            found += 1
    assert found == (41 if strict else 60)


def test_embedding_validator_rejects_garbage():
    bad = FaceEmbedding(3, ((1, 2, 3, 1),))
    with pytest.raises(ValidationError):
        bad.validate()


# -- face-insertion trusses ------------------------------------------------------


def test_truss_from_embedding_counts():
    emb = torus_embedding(3, 4)  # five square faces, skeleton has 5 vertices
    g = truss_from_embedding(emb, 3)
    assert (g.n, g.m) == (15, 55)


def test_truss_from_embedding_triangle_classes():
    emb = torus_embedding(6, 4, strict=True)
    k = 4
    g = truss_from_embedding(emb, k)
    tc = triangle_counts(g)
    h = emb.vertex_count
    skeleton = set(emb.edge_set())
    for e, (u, v) in enumerate(edge_pairs(g)):
        if (u, v) in skeleton:
            assert tc.per_edge[e] >= 2 * k - 2
        elif u > h and v > h:
            assert tc.per_edge[e] >= k + 1  # clique edge
        else:
            assert tc.per_edge[e] == k  # face-join edge


def test_truss_from_embedding_critical_on_safe_shapes():
    checked = 0
    for i in range(0, 7):
        for t in (4, 5, 6):
            try:
                emb = torus_embedding(i, t, strict=True)
            except InfeasibleError:
                continue
            assert has_truss_safe_shape(emb)
            for k in (3, 4, 5):
                g = truss_from_embedding(emb, k)
                assert is_k_truss(g, k)
                assert is_critical_k_truss(g, k)
                checked += 1
    assert checked >= 3  # at least i=6 shapes exist


def test_truss_from_embedding_not_critical_without_safe_shape():
    # the 5-vertex skeleton of five squares is complete, so its faces have
    # chords and the construction admits a proper sub-truss
    emb = torus_embedding(3, 4)
    assert not has_truss_safe_shape(emb)
    g = truss_from_embedding(emb, 3)
    assert is_k_truss(g, 3)
    assert not is_critical_k_truss(g, 3)


def test_truss_from_embedding_rejects_small_k():
    with pytest.raises(ValidationError):
        truss_from_embedding(torus_embedding(6, 4), 2)


# -- dispatcher ----------------------------------------------------------------


def test_critical_truss_k2():
    g = critical_truss(2, 9)
    assert g.m == 21  # 3n - 6


def test_critical_truss_torus_cell_counts():
    # n = ik + j with i = 8, j = 0 for k = 3 goes through the torus path
    g, receipt = critical_truss(3, 24, return_receipt=True)
    assert any("torus" in note for note in receipt.notes)
    assert (g.n, g.m) == (24, 88)


def test_embedding_route_count_formula():
    # two 6-cycles plus four squares inserted at k = 5: the closed forms
    # give i*C(4,2) + (4.5)(4i + 2j) = 162 edges on 32 vertices
    emb = torus_embedding(4, 6)
    g = truss_from_embedding(emb, 5)
    assert (g.n, g.m) == (32, 162)


def test_critical_truss_grid_small():
    for k in (2, 3, 4):
        for n in range(k + 4, k + 14):
            g, receipt = critical_truss(k, n, return_receipt=True)
            assert g.n == n
            assert is_critical_k_truss(g, k)
            assert receipt.actual_m == g.m


def test_critical_truss_edge_budget():
    for k in (3, 4, 5):
        for n in (k + 4, 3 * k + 1, 40):
            g = critical_truss(k, n)
            assert 2 * k * g.m <= n * (k * k + 5 * k - 2) + 20 * k**3


def test_no_generator_emits_k_plus_3_vertices():
    for k in (2, 3, 4, 5):
        for n in range(k + 4, k + 12):
            assert critical_truss(k, n).n != k + 3


def test_min_degree_of_critical_outputs():
    for k in (2, 3, 4):
        g = critical_truss(k, k + 8)
        assert min(g.degrees[v] for v in g.vertices) >= k + 2


def test_complete_graph_is_critical():
    for k in range(1, 6):
        assert is_critical_k_truss(complete(k + 2), k)


def test_chains_are_never_critical():
    for k in range(1, 5):
        for s in (2, 3):
            assert not is_critical_k_truss(clique_chain(k, s), k)


# -- random graphs --------------------------------------------------------------


def test_gnp_row_draws_match_one_shot_draw():
    for n, p, seed in ((1, 0.5, 0), (2, 1.0, 3), (17, 0.3, 7), (60, 0.1, 11), (200, 0.05, 42)):
        pairs = list(combinations(range(1, n + 1), 2))
        keep = np.random.default_rng(seed).random(len(pairs)) < p
        want = [uv for uv, k in zip(pairs, keep) if k]
        assert edge_pairs(gnp_random(n, p, seed)) == want
