"""Graph representation, parsing, subgraphs, degeneracy."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given

from trusskit import (
    ParseError,
    ValidationError,
    clustering_coefficient,
    connected_components,
    degeneracy,
    from_edges,
    from_pairs,
    induced_by_edges,
    induced_by_vertices,
    parse_edge_list,
)

from .strategies import edge_texts, small_graphs


def complete(n):
    return from_edges(n, combinations(range(1, n + 1), 2))


def bowtie():
    # two triangles sharing vertex 3
    return from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


# -- parsing ------------------------------------------------------------------


def test_parse_triangle():
    g = parse_edge_list("1 2\n2 3\n3 1")
    assert (g.n, g.m) == (3, 3)
    assert g.has_edge(1, 2) and g.has_edge(2, 3) and g.has_edge(1, 3)


def test_parse_skips_comments_and_blanks():
    g = parse_edge_list("a b\n# comment\n\nb c")
    assert (g.n, g.m) == (3, 2)
    assert g.labels[1:] == ("a", "b", "c")


def test_parse_rejects_self_loop():
    with pytest.raises(ValidationError):
        parse_edge_list("1 1")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValidationError, match="line 3"):
        parse_edge_list("a b\nb c\nb a")


def test_parse_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_edge_list("a b\na b c")


def test_parse_accepts_bytes():
    assert parse_edge_list(b"x y\n").m == 1


def test_first_appearance_ids():
    g = parse_edge_list("c a\nb c")
    assert g.labels[1:] == ("c", "a", "b")


# -- induced subgraphs --------------------------------------------------------


def test_induced_vertices_clique_restriction():
    sub = induced_by_vertices(complete(5), [1, 3, 5])
    assert (sub.n, sub.m) == (3, 3)


def test_induced_vertices_cycle_path():
    c5 = from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    sub = induced_by_vertices(c5, [1, 2, 3])
    assert (sub.n, sub.m) == (3, 2)


def test_induced_vertices_empty():
    sub = induced_by_vertices(complete(4), [])
    assert (sub.n, sub.m) == (0, 0)


def test_induced_vertices_unknown_id():
    with pytest.raises(ValidationError):
        induced_by_vertices(complete(4), [9])


def test_induced_edges_triangle_of_k4():
    k4 = complete(4)
    tri = [k4.edge_id(1, 2), k4.edge_id(1, 3), k4.edge_id(2, 3)]
    sub = induced_by_edges(k4, tri)
    assert (sub.n, sub.m) == (3, 3)


def test_induced_edges_empty():
    sub = induced_by_edges(complete(4), [])
    assert (sub.n, sub.m) == (0, 0)


def test_induced_edges_bowtie_triangle():
    g = bowtie()
    tri = [g.edge_id(1, 2), g.edge_id(1, 3), g.edge_id(2, 3)]
    sub = induced_by_edges(g, tri)
    assert (sub.n, sub.m) == (3, 3)
    assert sorted(sub.labels[1:]) == ["1", "2", "3"]


def test_induced_edges_bad_id():
    with pytest.raises(ValidationError):
        induced_by_edges(complete(4), [99])


# -- components ---------------------------------------------------------------


def test_components_bowtie():
    assert connected_components(bowtie()) == [0] * 6


def test_components_two_triangles():
    g = from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    labels = connected_components(g)
    assert labels == [0, 0, 0, 1, 1, 1]


def test_components_empty():
    assert connected_components(from_edges(0, [])) == []


# -- degeneracy ---------------------------------------------------------------


def test_degeneracy_k5():
    rep = degeneracy(complete(5))
    assert rep.degeneracy == 4
    assert rep.average_degeneracy == Fraction(4)


def test_degeneracy_tree():
    g = from_edges(6, [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6)])
    assert degeneracy(g).degeneracy == 1


def test_average_degeneracy_path():
    p4 = from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert degeneracy(p4).average_degeneracy == Fraction(4, 3)


@given(small_graphs(min_m=1))
def test_elimination_order_realizes_degeneracy(G):
    rep = degeneracy(G)
    pos = {v: i for i, v in enumerate(rep.elimination_order)}
    assert sorted(pos) == list(G.vertices)
    for v in G.vertices:
        later = sum(1 for w in G.adj[v] if pos[w] > pos[v])
        assert later <= rep.degeneracy


@given(small_graphs(min_m=1))
def test_orientation_out_degree_bound(G):
    # orienting edges along the elimination order is acyclic with
    # out-degree at most the degeneracy at every vertex
    rep = degeneracy(G)
    pos = {v: i for i, v in enumerate(rep.elimination_order)}
    out_deg = {v: 0 for v in G.vertices}
    for u, v in G.edges:
        src = u if pos[u] < pos[v] else v
        out_deg[src] += 1
    assert all(d <= rep.degeneracy for d in out_deg.values())


@given(small_graphs(min_m=1))
def test_average_degeneracy_vs_degeneracy(G):
    rep = degeneracy(G)
    assert rep.average_degeneracy <= 2 * rep.degeneracy


@given(small_graphs(min_m=1))
def test_degeneracy_vs_sqrt_2m(G):
    d = degeneracy(G).degeneracy
    assert d * d <= 2 * G.m


# -- clustering ---------------------------------------------------------------


def test_clustering_clique():
    assert clustering_coefficient(complete(4), 1) == 1


def test_clustering_star_center():
    star = from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert clustering_coefficient(star, 1) == 0


def test_clustering_triangle_plus_pendant():
    g = from_edges(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    assert clustering_coefficient(g, 1) == Fraction(1, 3)


def test_clustering_undefined_below_degree_two():
    g = from_edges(2, [(1, 2)])
    with pytest.raises(ValidationError):
        clustering_coefficient(g, 1)


# -- serialization ------------------------------------------------------------


def test_serialize_sorted_by_id_pair():
    g = parse_edge_list("b a\nc a\nb c")
    assert g.serialize() == "b a\nb c\na c\n"


@given(edge_texts())
def test_round_trip_preserves_labeled_graph(text):
    g1 = parse_edge_list(text)
    g2 = parse_edge_list(g1.serialize())
    def labeled_edges(G):
        return sorted(
            tuple(sorted((G.labels[u], G.labels[v]))) for u, v in G.edges
        )
    assert (g1.n, g1.m) == (g2.n, g2.m)
    assert sorted(g1.labels) == sorted(g2.labels)
    assert labeled_edges(g1) == labeled_edges(g2)


@given(small_graphs(min_m=1))
def test_round_trip_from_generated(G):
    # edge-list text cannot express isolated vertices, so only the touched
    # part of the graph round-trips
    g2 = parse_edge_list(G.serialize())
    touched = sum(1 for v in G.vertices if G.degree(v) > 0)
    assert (g2.n, g2.m) == (touched, G.m)


def test_duplicate_from_pairs_rejected():
    with pytest.raises(ValidationError):
        from_pairs([("a", "b"), ("b", "a")])
