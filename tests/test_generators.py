"""Extremal constructions: counts, truss property, criticality."""

import re
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
    is_critical_k_truss,
    is_k_truss,
    suspend,
    suspension_ladder,
    torus_embedding,
    triangle_counts,
    truss_from_embedding,
)
from trusskit.generators import FaceEmbedding, _candidates, _problem, has_truss_safe_shape

from .oracles import (
    _torus_faces_valid,
    adjacency,
    dense_suspend,
    eager_torus_candidates,
    eager_torus_search,
    edge_pairs,
    girth_sum,
    induced_by_vertices,
    skeleton_edges,
    tuple_2truss_pairs,
    tuple_chain_pairs,
    tuple_truss_pairs,
    vertex_counts,
)
from .strategies import gnp_random


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


def test_chain_and_2truss_edges_match_the_tuple_build():
    for k in range(1, 6):
        for s in range(1, 5):
            assert edge_pairs(clique_chain(k, s)) == tuple_chain_pairs(k, s - 1, k + 2)
        for n in range(k + 2, 3 * k + 8):
            g, receipt = clique_chain_remainder(k, n, return_receipt=True)
            s, r = (int(note.split("=")[1]) for note in receipt.notes)
            assert edge_pairs(g) == tuple_chain_pairs(k, s, r)
    for n in range(6, 20):  # the cycle's closing edge (n-2, 1) is stored as (1, n-2)
        assert edge_pairs(critical_2truss(n)) == [tuple(sorted(p)) for p in tuple_2truss_pairs(n)]


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
    assert triangle_counts(g).per_edge.tolist() == [2] * g.m


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


def test_suspend_refusals_name_their_cause():
    # inputs the dense oracle's corpus lacks: the empty graph is a k-truss
    # for every k, but its apexes would have no edge; an isolated vertex
    # makes the input no k-truss, whatever its triangles
    isolated = from_edges(4, [(1, 2), (1, 3), (2, 3)])
    no_truss = "^suspend requires the input to be a k-truss$"
    for k in (-1, 0, 3):
        for added in (1, 2):
            too_sparse = f"^full suspension is not a {k + added}-truss; input too sparse$"
            with pytest.raises(ValidationError, match=too_sparse):
                suspend(from_edges(0, []), k, added)
            with pytest.raises(ValidationError, match=no_truss):
                suspend(isolated, k, added)


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
    assert len(skeleton_edges(emb)) == 16
    assert sorted(len(f) for f in emb.faces) == [4] * 8
    assert girth_sum(emb) == 32


def test_embedding_mixed_faces():
    emb = torus_embedding(4, 6)
    assert emb.vertex_count == 8
    assert len(skeleton_edges(emb)) == 14
    assert sorted(len(f) for f in emb.faces) == [4, 4, 4, 4, 6, 6]
    assert girth_sum(emb) == 28


def test_embedding_every_edge_two_distinct_faces():
    # the edge -> face incidence recounted from the face walks themselves
    for i, t in [(6, 4), (4, 6), (3, 4), (8, 5)]:
        emb = torus_embedding(i, t)
        on_faces = {}
        for idx, walk in enumerate(emb.faces):
            for u, v in zip(walk, walk[1:] + walk[:1]):
                on_faces.setdefault((min(u, v), max(u, v)), []).append(idx)
        assert sorted(on_faces) == skeleton_edges(emb)
        for faces in on_faces.values():
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


@pytest.mark.parametrize("strict", [False, True])
def test_every_visited_candidate_matches_the_dense_check(strict):
    # each candidate the search tries, up to the one it returns, rejected
    # ones too: the walks it builds, and its verdict on them, on the
    # embedding made of their tuples and from the dense oracle
    checked = 0
    for i in range(13):
        for t in range(4, 10):
            h = i + t - 2
            want = eager_torus_candidates(i, t)
            for offset, lengths, walk in _candidates(i, t):
                faces, want_offset = next(want)
                assert offset == want_offset
                assert lengths.tolist() == list(map(len, faces))
                assert walk.tolist() == [v for f in faces for v in f]
                valid = _torus_faces_valid(faces, h, strict)
                assert (_problem(h, lengths, walk, strict) is None) == valid, (i, t, offset)
                emb = FaceEmbedding(h, faces)
                assert (has_truss_safe_shape(emb) if strict else emb.problem() is None) == valid
                checked += 1
                if valid:
                    break
    assert checked == (5483 if strict else 943)


def test_embedding_validator_rejects_garbage():
    bad = FaceEmbedding(3, ((1, 2, 3, 1),))
    with pytest.raises(ValidationError):
        bad.validate()


def _grid_faces(rows, cols, base=0):
    """The square faces of the rows x cols grid on the torus, its vertices
    numbered base+1.. row by row."""
    at = lambda r, c: base + (r % rows) * cols + c % cols + 1
    return tuple(
        (at(r, c), at(r, c + 1), at(r + 1, c + 1), at(r + 1, c))
        for r in range(rows) for c in range(cols)
    )


CUBE = ((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 6, 5), (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8))
SQUARE = (1, 2, 3, 4)

BAD_EMBEDDINGS = {
    "too small": (2, (SQUARE,), "embedding too small"),
    "no faces": (5, (), "embedding too small"),
    "short face": (4, (SQUARE, (1, 2, 3)), "face of length 3 < 4"),
    "revisit": (4, (SQUARE, (1, 2, 1, 3)), "face walk revisits a vertex: (1, 2, 1, 3)"),
    "out of range, low": (4, (SQUARE, (1, 2, 0, 3)), "face vertex 0 out of range"),
    "out of range, high": (4, (SQUARE, (1, 2, 3, 7)), "face vertex 7 out of range"),
    # within a face: length, then revisit, then range; faces in order
    "short before range": (4, ((1, 9, 2),), "face of length 3 < 4"),
    "revisit before range": (4, ((1, 9, 9, 2),), "face walk revisits a vertex: (1, 9, 9, 2)"),
    "first bad face wins": (4, (SQUARE, (1, 2, 3, 9), (1, 2, 3)), "face vertex 9 out of range"),
    "uncovered vertex": (5, (SQUARE,), "embedding has vertices on no face"),
    "edge on one face": (4, (SQUARE,), "edge (1, 2) lies on faces (0,), need two distinct"),
    "edge on three faces": (
        6, (SQUARE, (2, 1, 5, 6), (1, 2, 6, 5)),
        "edge (1, 2) lies on faces (0, 1, 2), need two distinct",
    ),
    # a simple walk crosses each edge once: one crossed twice revisits a vertex
    "edge twice on one face": (
        4, (SQUARE, (1, 2, 3, 1, 2, 4)), "face walk revisits a vertex: (1, 2, 3, 1, 2, 4)"
    ),
    # edges in order of first crossing, not of their end pairs
    "first crossed bad edge wins": (
        6, ((3, 4, 1, 2), (4, 3, 5, 6)), "edge (1, 4) lies on faces (0,), need two distinct"
    ),
    "sphere Euler count": (8, CUBE, "Euler count is not toroidal"),
    "disconnected skeleton": (
        18, _grid_faces(3, 3) + _grid_faces(3, 3, 9), "skeleton is disconnected"
    ),
}


@pytest.mark.parametrize("case", BAD_EMBEDDINGS)
def test_embedding_validator_messages(case):
    h, faces, message = BAD_EMBEDDINGS[case]
    emb = FaceEmbedding(h, faces)
    with pytest.raises(ValidationError) as info:
        emb.validate()
    assert str(info.value) == message
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        truss_from_embedding(emb, 3)


def test_embedding_vertices_must_be_integers():
    # a float vertex is refused, not truncated to an integer id
    with pytest.raises(TypeError):
        FaceEmbedding(4, ((1, 2, 3, 4.5), (1, 2, 3, 4))).validate()


def test_grid_embeddings_validate_and_shape():
    # the 3 x 3 grid's rows and columns are triangles; the 4 x 4 grid has
    # none and no face chord
    FaceEmbedding(9, _grid_faces(3, 3)).validate()
    assert not has_truss_safe_shape(FaceEmbedding(9, _grid_faces(3, 3)))
    FaceEmbedding(16, _grid_faces(4, 4)).validate()
    assert has_truss_safe_shape(FaceEmbedding(16, _grid_faces(4, 4)))
    assert is_critical_k_truss(truss_from_embedding(FaceEmbedding(16, _grid_faces(4, 4)), 3), 3)


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
    skeleton = set(skeleton_edges(emb))
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


def test_truss_from_embedding_matches_the_tuple_build():
    # row for row, against the old build of Python pairs
    for i, t, strict in ((6, 4, True), (4, 6, False), (3, 4, False), (8, 5, False), (9, 7, True)):
        emb = torus_embedding(i, t, strict=strict)
        for k in (3, 4, 5, 6):
            assert edge_pairs(truss_from_embedding(emb, k)) == tuple_truss_pairs(emb, k)
    emb = FaceEmbedding(16, _grid_faces(4, 4))
    assert edge_pairs(truss_from_embedding(emb, 4)) == tuple_truss_pairs(emb, 4)


def test_truss_from_embedding_checks_once():
    # the search's verdict rides along: validate looks at no array again
    emb = torus_embedding(6, 4, strict=True)
    assert emb.__dict__["_problems"] == {False: None, True: None}
    fresh = FaceEmbedding(emb.vertex_count, emb.faces)
    assert "_problems" not in fresh.__dict__
    assert truss_from_embedding(fresh, 4) == truss_from_embedding(emb, 4)
    assert fresh.__dict__["_problems"] == {False: None}


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
