"""Memory ceilings of the sparse truss paths on large sparse graphs.

Each call's tracemalloc peak must stay within a fixed number of bytes per
edge of its input, which no dense n x n step can meet at these sizes: one
float64 adjacency matrix on 5,000 vertices is 200 MB, over 13 kB per edge.
"""

import os
import tracemalloc
from itertools import combinations

import numpy as np
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
from trusskit.cli import EXIT_OK, EXIT_VERIFY_FAILED, _write_edge_rows, main
from trusskit.triangles import _footprint

BYTES_PER_EDGE = 2048
# parsing holds the text's tokens, one label map and the Graph's arrays,
# and nothing else per edge
PARSE_BYTES_PER_EDGE = 320
# a parsed Graph keeps its edge ends, pair keys and pair order, 32 bytes
# per edge, and per vertex a label and a degree: 55-60 bytes per edge on
# the graphs below. One Python tuple per edge would take 64 more, and so
# would the CSR, built only on first use
RETAINED_BYTES_PER_EDGE = 72
# the row writer holds per vertex its label tables, as strings and encoded
# once each, and per piece of rows their index columns and bytes, whatever m is
WRITER_BYTES_PER_VERTEX = 200
WRITER_PIECE_BYTES = 2**19

# a whole CLI run on a sparse graph with n close to m: the parse, the
# command's per-edge and per-vertex arrays and lists, and its row writer
CLI_BYTES_PER_EDGE = 512

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


def test_critical_truss_peak_within_bytes_per_edge():
    # the torus route tries one cell stacking at a time: n = 25,604 at k = 4
    # has 6,400 stackings of 6,401 cells each, 41M list slots if all were
    # built up front
    tracemalloc.start()
    try:
        G = critical_truss(4, 25604)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.m == 108817
    assert peak <= BYTES_PER_EDGE * G.m, f"peaked at {peak / G.m:.0f} bytes per edge"


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


@pytest.mark.parametrize(
    "make",
    [lambda: from_edges(150, combinations(range(1, 151), 2)), lambda: critical_truss(4, 400)],
    ids=["K_150", "critical_truss(4, 400)"],
)
def test_decomposition_peak_within_listing_estimate(make):
    # the peel's bulk steps gather the frontier's incidence rows in chunks:
    # K_150 removes all 11,175 edges, 3 * 551,300 incidence ids, in one step
    G = make()
    estimate = triangle_counts(G).mem_estimate
    tracemalloc.start()
    try:
        truss_decomposition(G)
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


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_parsed_graph_retained_within_bytes_per_edge(graphs, graph):
    G, _ = graphs[graph]
    text = G.serialize()
    tracemalloc.start()
    try:
        parsed = parse_edge_list(text)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (parsed.n, parsed.m) == (G.n, G.m)
    assert kept <= RETAINED_BYTES_PER_EDGE * G.m, f"parse kept {kept / G.m:.0f} bytes per edge"


@pytest.mark.parametrize("build", ["parse_edge_list", "from_edges"])
def test_edge_index_agrees_with_ends(build):
    # pair lookups, single and batched, and the CSR all read the one
    # edge-end array
    pairs = [(v, u) if (u + v) % 2 else (u, v) for u, v in combinations(range(1, 9), 2)]
    pairs = [p for p in pairs if sum(p) % 5]
    if build == "from_edges":
        G = from_edges(8, pairs)
    else:
        G = parse_edge_list("".join(f"{u} {v}\n" for u, v in pairs))
    assert G.ends.shape == (G.m, 2) and G.m == len(pairs) == 22
    for e, (u, v) in enumerate(G.ends.tolist()):
        assert u < v and G.edge_id(u, v) == G.edge_id(v, u) == e
    absent = [(u, v) for u, v in combinations(G.vertices, 2) if [u, v] not in G.ends.tolist()]
    assert len(absent) == 6 and all(G.edge_id(u, v) is None for u, v in absent)
    assert G.edge_id(1, 1) is G.edge_id(0, 1) is G.edge_id(1, 9) is None
    us, vs = np.array(list(combinations(G.vertices, 2))).T
    want = [-1 if (u, v) in absent else G.edge_id(u, v) for u, v in zip(us, vs)]
    assert G.edge_ids(vs, us).tolist() == want
    indptr, nbr, slot_edge = G.csr
    for v in G.vertices:
        slots = range(indptr[v], indptr[v + 1])
        assert [nbr[s] for s in slots] == sorted(w for w in G.vertices if G.edge_id(v, w) is not None)
        assert all(sorted(G.ends[slot_edge[s]]) == sorted((v, nbr[s])) for s in slots)


@pytest.mark.parametrize("n", [60, 120, 300])
def test_count_only_peak_within_reservation(n):
    # count-only callers reserve the fixed part alone, which must cover a
    # block's temporaries: a clique closes every wedge of a block
    G = from_edges(n, combinations(range(1, n + 1), 2))
    tracemalloc.start()
    try:
        triangle_counts(G, keep_listing=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _footprint(G, 0), f"peak {peak} over the reservation {_footprint(G, 0)}"


@pytest.mark.parametrize(
    "make",
    [lambda: from_edges(300, combinations(range(1, 301), 2)), *(make for make, _ in GRAPHS.values())],
    ids=["K_300", *GRAPHS],
)
def test_row_writer_peak_does_not_grow_with_m(make):
    # K_300 has 150 edges per vertex: one m-long int64 column is 359 kB
    G = make()
    codes = np.arange(G.m) % 7
    with open(os.devnull, "w") as out:
        tracemalloc.start()
        try:
            _write_edge_rows(G, codes, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    bound = WRITER_BYTES_PER_VERTEX * (G.n + 1) + WRITER_PIECE_BYTES
    assert peak <= bound, f"writer peaked at {peak} bytes, over {bound} (n={G.n}, m={G.m})"


CEILING_N = 10**5
CEILING_TEXTS = {
    "path": lambda: "".join(f"{v} {v + 1}\n" for v in range(1, CEILING_N)),
    "star": lambda: "".join(f"1 {v}\n" for v in range(2, CEILING_N + 1)),
}
# a triangle-free graph with two or more edges is a 0-truss but no critical one
CEILING_COMMANDS = {
    "truss": EXIT_OK,
    "truncated-truss --k-trunc 2": EXIT_OK,
    "components --k 2": EXIT_OK,
    "triangles": EXIT_OK,
    "triangles --counts": EXIT_OK,
    "stats": EXIT_OK,
    "verify truss --k 0": EXIT_OK,
    "verify critical --k 0": EXIT_VERIFY_FAILED,
    "verify bounds": EXIT_OK,
}


@pytest.fixture(scope="module")
def ceiling_inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("ceiling")
    for name, make in CEILING_TEXTS.items():
        (folder / f"{name}.txt").write_text(make())
    return folder


@pytest.mark.parametrize("command", CEILING_COMMANDS)
@pytest.mark.parametrize("graph", sorted(CEILING_TEXTS))
def test_cli_peak_within_bytes_per_edge_on_path_and_star(ceiling_inputs, graph, command):
    # every subcommand that reads a graph, on 10^5 vertices: any n x n step
    # or quadratic list would take gigabytes
    m = CEILING_N - 1
    argv = ["-i", str(ceiling_inputs / f"{graph}.txt"), "-o", str(ceiling_inputs / "out.txt")]
    tracemalloc.start()
    try:
        code = main(argv + command.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == CEILING_COMMANDS[command]
    assert peak <= CLI_BYTES_PER_EDGE * m, f"{command} peaked at {peak / m:.0f} bytes per edge"
