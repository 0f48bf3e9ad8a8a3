"""Graph representation, parsing, degeneracy, and the subgraph helpers of
the tests."""

import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from trusskit import (
    ParseError,
    ValidationError,
    degeneracy,
    from_edges,
    parse_edge_list,
)
from trusskit.graphs import (
    _ROWS,
    _SPREAD,
    _decimal_ids,
    _split_parse,
    _walk_lines,
    stable_order,
    text_rows,
)

from .oracles import adjacency, edge_pairs, induced_by_edges, induced_by_vertices
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
    assert sorted(edge_pairs(g)) == [(1, 2), (1, 3), (2, 3)]


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


# each input, its error type and its exact message: line numbers count
# comment and blank lines, CRLF ends one line, and an indented '#' starts
# a comment (read as data, "# a a" would be a three-token line)
PARSE_ERRORS = {
    "self-loop": ("a b\nb b\n", ValidationError, "line 2: self-loop on 'b'"),
    "reversed-duplicate": (
        "a b\n# note\n\nb c\nb a\n", ValidationError, "line 5: duplicate edge 'b' 'a'"
    ),
    "three-tokens": ("a b\nb c d\n", ParseError, "line 2: expected two tokens, got 'b c d'"),
    "crlf": ("a b\r\nb c\r\n\r\nc b\r\n", ValidationError, "line 4: duplicate edge 'c' 'b'"),
    "indented-comment": ("a b\n   # a a\n\tb b\n", ValidationError, "line 3: self-loop on 'b'"),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_parse_error_message_and_line(case):
    text, error, message = PARSE_ERRORS[case]
    with pytest.raises(error) as info:
        parse_edge_list(text)
    assert str(info.value) == message


def test_parse_crlf_and_indented_comment():
    g = parse_edge_list("a b\r\n  # b c\r\n\tb c \r\n")
    assert g.labels[1:] == ("a", "b", "c") and sorted(edge_pairs(g)) == [(1, 2), (2, 3)]


LABELS = st.sampled_from([*"abcdefgh", "10", "é"])
# canonical decimals take the numpy read; the rest, or values over its
# table, the split. "9" * 19 and the 20-digit tokens pass 2**63, where
# numpy clamps to its largest int64
DECIMALS = st.integers(0, 12).map(str)
ODD_DECIMALS = st.sampled_from(["00", "01", "007", "+1", "-1", "-0", "+0", "a", "1000", "1" * 18,
                                "9" * 18, "1" * 19, "9" * 19, "1" * 20, "9" * 20])
BLANKS = st.sampled_from(["", " ", "\t", "  \t"])
# at most two per text, so that many texts can take the split path
DEFECTS = [None] * 5 + ["#", "\x0b", "\x0c", "\x1c", "loop", "repeat", "one", "three"]


@st.composite
def messy_texts(draw, labels=LABELS):
    """Edge-list text over distinct pairs of ``labels``, with blank lines,
    tabs, CRLF and CR line ends and maybe no final newline, plus at most
    two lines with a comment, a line end that str.splitlines takes and
    bytes.split does not ("\x0b", "\x0c", "\x1c"), a self-loop, a
    repeated pair in either order, or one or three tokens."""
    pairs = draw(st.lists(st.tuples(labels, labels).filter(lambda p: p[0] != p[1]),
                          unique_by=frozenset, max_size=8))
    sep = st.sampled_from([" ", "\t", " \t "])
    lines = [f"{draw(BLANKS)}{u}{draw(sep)}{v}{draw(BLANKS)}" for u, v in pairs]
    lines += [draw(BLANKS) for _ in range(draw(st.integers(0, 2)))]
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=2)):
        u, v = draw(labels), draw(labels)
        if pairs and draw(st.booleans()):
            v, u = draw(st.sampled_from(pairs))
        if defect is not None:
            lines.append({"#": f"  # {u} {v}", "loop": f"{u} {u}", "repeat": f"{u} {v}",
                          "one": u, "three": f"{u} {v} {u}"}.get(defect, f"{u} {v}{defect}"))
    lines = draw(st.permutations(lines))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[: -len(ends[-1])] if lines and draw(st.booleans()) else text


def parse_outcome(parse, text):
    """Labels and edge rows of the parse, or its exception class and message."""
    try:
        G = parse(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return G.labels, G.ends.tolist()


@given(messy_texts() | messy_texts(DECIMALS) | messy_texts(DECIMALS | ODD_DECIMALS))
@example("a b c\nd e\n\nf\n")  # an even label count over uneven lines
@example("a\r\nb c d\r\n")
@example("# Directed graph (each unordered pair of nodes is saved once): x.txt\n"
         "# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\n1\t2\n3\t1\n")  # SNAP header
@example("#\r\n  # a b c\na b#c\n#d e\nb#c #f\n")  # '#' after a line's first label is a label byte
@example("# a\nb\n")
@example("1 01\n")  # two labels, no self-loop
@example("1 2\n3 1\n2 1\n")  # one pair twice
@example("0 1\n1 2\n2 0\n")
@example("0 9\n")  # over the value table of two tokens
def test_split_parse_agrees_with_line_walk(text):
    want = parse_outcome(_walk_lines, text)
    assert parse_outcome(parse_edge_list, text) == want
    assert parse_outcome(parse_edge_list, text.encode()) == want
    # the split path declines only what it must: a bad text, or one with a
    # byte whose reading differs between the paths; '#' comments are not
    plain = text.isascii() and not any(c in text for c in "\x0b\x0c\x1c")
    if plain and not isinstance(want[0], type):
        assert _split_parse(text.encode()) is not None
    # the numpy read accepts a text exactly when all its labels are
    # canonical decimals below its table bound
    tokens = text.split()
    canonical = all(t.isdigit() and t == str(int(t)) for t in tokens)
    canonical = canonical and 0 <= max(map(int, tokens), default=-1) < _SPREAD * len(tokens)
    if plain:
        read = _decimal_ids(text.encode(), len(tokens), sum(map(len, tokens)))
        assert (read is not None) == canonical


def test_decimal_read_declines_a_warned_short_read(monkeypatch):
    # older numpy warns and reads short at a non-decimal token rather
    # than raise; the split path takes the text, whatever the warning filters
    def warn_short(data, dtype, sep):
        warnings.warn("string could not be read to its end", DeprecationWarning)
        return np.array([1], dtype)

    monkeypatch.setattr(np, "fromstring", warn_short)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _decimal_ids(b"1 a\n", 2, 2) is None
        assert parse_edge_list("1 a\n").labels == ("", "1", "a")


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("bound", [1, 2, 2**16, 2**16 + 1, 2**33 + 5])
@given(data=st.data())
def test_stable_order_is_the_stable_argsort(bound, dtype, data):
    # zero to three uint16 radix passes, with ties kept in input order
    top = min(bound, np.iinfo(dtype).max + 1) - 1
    drawn = data.draw(st.lists(st.integers(0, min(top, 3)) | st.integers(0, top), max_size=300))
    for keys in (np.array([], dtype), np.array(drawn, dtype)):
        assert stable_order(keys, bound).tolist() == np.argsort(keys, kind="stable").tolist()


def test_graph_arrays_are_read_only():
    g = bowtie()
    for a in (g.ends, g.degrees, g.pair_order, *g.csr):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


# -- induced subgraphs (helpers in oracles.py) --------------------------------


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
    nbrs = adjacency(G)
    for v in G.vertices:
        later = sum(1 for w in nbrs[v] if pos[w] > pos[v])
        assert later <= rep.degeneracy


@given(small_graphs(min_m=1))
def test_orientation_out_degree_bound(G):
    # orienting edges along the elimination order is acyclic with
    # out-degree at most the degeneracy at every vertex
    rep = degeneracy(G)
    pos = {v: i for i, v in enumerate(rep.elimination_order)}
    out_deg = {v: 0 for v in G.vertices}
    for u, v in edge_pairs(G):
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
            tuple(sorted((G.labels[u], G.labels[v]))) for u, v in edge_pairs(G)
        )
    assert (g1.n, g1.m) == (g2.n, g2.m)
    assert sorted(g1.labels) == sorted(g2.labels)
    assert labeled_edges(g1) == labeled_edges(g2)


@given(small_graphs(min_m=1))
def test_round_trip_from_generated(G):
    # edge-list text cannot express isolated vertices, so only the touched
    # part of the graph round-trips
    g2 = parse_edge_list(G.serialize())
    touched = sum(1 for v in G.vertices if G.degrees[v] > 0)
    assert (g2.n, g2.m) == (touched, G.m)


@pytest.mark.parametrize(
    "holes",
    [(0,), (1,), (2,), (0, 2), (1, 2)],
    ids=["first", "middle", "last", "first+last", "middle+last"],
)
def test_text_rows_skips_minus_one_in_any_column(holes):
    # rows that hold -1 in any column are skipped, wherever it sits; one
    # column shares its table with another, and the rows span three pieces
    rng = np.random.default_rng(len(holes) * 10 + holes[0])
    size = 2 * _ROWS + 37
    head, tail = [f"v{i} " for i in range(50)], [f"{i}\n" for i in range(9)]
    tables = [head, head, tail]
    index = [rng.integers(0, len(t), size) for t in tables]
    for j in holes:
        index[j][rng.random(size) < 0.3] = -1
    order = rng.permutation(size)
    want = "".join(
        f"{head[index[0][r]]}{head[index[1][r]]}{tail[index[2][r]]}"
        for r in order.tolist()
        if min(index[0][r], index[1][r], index[2][r]) >= 0
    )
    got = "".join(text_rows(list(zip(tables, index)), order))
    assert got == want
    assert len(got.splitlines()) < size


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([(1, 2), (2, 4)], "vertex id out of range in edge (2, 4)"),
        ([(1, 2), (0, 3)], "vertex id out of range in edge (0, 3)"),
        ([(1, 2), (3, 3)], "self-loop on vertex 3"),
        ([(1, 2), (2, 3), (2, 1)], "duplicate edge (1, 2)"),
        # (1, 65538) has the key of (1, 2) in its low 16 bits, so it sorts
        # between the repeated pair; the earlier bad row is still reported
        ([(1, 2), (1, 65538), (2, 1)], "vertex id out of range in edge (1, 65538)"),
    ],
    ids=["out-of-range", "zero-id", "self-loop", "duplicate", "bad-row-between-repeats"],
)
def test_graph_rejects_bad_pairs(pairs, message):
    with pytest.raises(ValidationError) as exc:
        from_edges(3, pairs)
    assert str(exc.value) == message
