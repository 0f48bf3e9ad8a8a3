"""Immutable undirected simple graphs with dense edge indexing.

Vertices carry contiguous 1-based internal ids; id 0 is reserved so that a
sum of vertex ids is zero only for the empty set (the witness tables rely
on this). Original input labels are kept alongside the internal ids so
edge lists round-trip through the serializer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence


class GraphError(Exception):
    """Base class for graph construction and validation failures."""


class ParseError(GraphError):
    """Malformed edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(GraphError):
    """Structurally invalid input: self-loops, duplicate edges, bad ids."""


class Graph:
    """Undirected simple graph, immutable after construction.

    Adjacency lists are sorted ascending and iteration over them is
    deterministic. ``edges[e]`` gives the endpoint pair ``(u, v)`` with
    ``u < v`` for the dense edge id ``e`` in ``[0, m)``. A Graph is safe
    to share read-only across concurrent workers.
    """

    __slots__ = ("n", "m", "adj", "edges", "labels", "_edge_ids")

    def __init__(self, labels: Sequence[str], pairs: Sequence[tuple[int, int]]):
        n = len(labels)
        adj: list[list[int]] = [[] for _ in range(n + 1)]
        edge_ids: dict[tuple[int, int], int] = {}
        edges: list[tuple[int, int]] = []
        for u, v in pairs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValidationError(f"self-loop on vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in edge_ids:
                raise ValidationError(f"duplicate edge ({u}, {v})")
            edge_ids[(u, v)] = len(edges)
            edges.append((u, v))
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self.n = n
        self.m = len(edges)
        self.adj = tuple(tuple(lst) for lst in adj)
        self.edges = tuple(edges)
        self.labels = ("",) + tuple(str(x) for x in labels)
        self._edge_ids = edge_ids

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_ids

    def edge_id(self, u: int, v: int) -> int | None:
        """Dense edge id for the unordered pair, or None if absent."""
        return self._edge_ids.get((u, v) if u < v else (v, u))

    def endpoints(self, e: int) -> tuple[int, int]:
        return self.edges[e]

    def label(self, v: int) -> str:
        return self.labels[v]

    def serialize(self) -> str:
        """Edge-list text, one "u v" line per edge sorted by (min, max) id."""
        lab = self.labels
        lines = [f"{lab[u]} {lab[v]}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + ("\n" if lines else "")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.labels == other.labels
            and sorted(self.edges) == sorted(other.edges)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- construction --------------------------------------------------------


def from_pairs(pairs: Iterable[tuple[Hashable, Hashable]]) -> Graph:
    """Build a graph from labelled edge pairs.

    Labels are mapped to internal ids 1..n in first-appearance order,
    scanning each pair left to right.
    """
    ids: dict[str, int] = {}
    id_pairs = []
    for a, b in pairs:
        ua = ids.setdefault(str(a), len(ids) + 1)
        ub = ids.setdefault(str(b), len(ids) + 1)
        id_pairs.append((ua, ub))
    return Graph(list(ids), id_pairs)


def from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 1..n from internal-id edge pairs.

    Labels are the decimal ids. Vertices not touched by any edge are kept
    (possibly isolated); generators avoid emitting such vertices.
    """
    return Graph([str(i) for i in range(1, n + 1)], list(pairs))


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse whitespace-separated "u v" lines into a Graph.

    Lines starting with '#' and blank lines are skipped. Vertex labels are
    arbitrary tokens, mapped to ids 1..n in first-appearance order.
    Self-loops and duplicate edges are rejected.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[str, str]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {raw.strip()!r}", line_no)
        a, b = parts
        if a == b:
            raise ValidationError(f"line {line_no}: self-loop on {a!r}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ValidationError(f"line {line_no}: duplicate edge {a!r} {b!r}")
        seen.add(key)
        pairs.append((a, b))
    return from_pairs(pairs)


# -- subgraphs ------------------------------------------------------------


def induced_by_vertices(G: Graph, vertex_set: Iterable[int]) -> Graph:
    """Vertex-induced subgraph on the given internal ids.

    Kept vertices are renumbered 1..|U| in ascending old-id order and keep
    their original labels. Vertices isolated inside U are retained.
    """
    keep = sorted(set(vertex_set))
    for v in keep:
        if not (1 <= v <= G.n):
            raise ValidationError(f"unknown vertex id {v}")
    remap = {old: new for new, old in enumerate(keep, start=1)}
    pairs = [
        (remap[u], remap[v])
        for u, v in G.edges
        if u in remap and v in remap
    ]
    return Graph([G.labels[v] for v in keep], pairs)


def induced_by_edges(G: Graph, edge_set: Iterable[int]) -> Graph:
    """Edge-induced subgraph: vertex set is exactly the endpoints of the
    kept edges, so the result has no isolated vertices."""
    kept = sorted(set(edge_set))
    for e in kept:
        if not (0 <= e < G.m):
            raise ValidationError(f"edge id {e} out of range [0, {G.m})")
    touched = sorted({v for e in kept for v in G.edges[e]})
    remap = {old: new for new, old in enumerate(touched, start=1)}
    pairs = [(remap[G.edges[e][0]], remap[G.edges[e][1]]) for e in kept]
    return Graph([G.labels[v] for v in touched], pairs)


# -- components ------------------------------------------------------------


def connected_components(G: Graph) -> list[int]:
    """Component id per edge; two edges share an id iff they are connected.

    Ids are assigned in order of each component's smallest vertex.
    """
    comp_of_vertex = [-1] * (G.n + 1)
    cid = 0
    for start in G.vertices:
        if comp_of_vertex[start] != -1 or G.degree(start) == 0:
            continue
        stack = [start]
        comp_of_vertex[start] = cid
        while stack:
            v = stack.pop()
            for w in G.adj[v]:
                if comp_of_vertex[w] == -1:
                    comp_of_vertex[w] = cid
                    stack.append(w)
        cid += 1
    return [comp_of_vertex[u] for u, _ in G.edges]


# -- degeneracy and local density ------------------------------------------


@dataclass
class DegeneracyReport:
    """Output of minimum-degree peeling.

    ``average_degeneracy`` is the exact rational mean over edges of the
    smaller endpoint degree (static degrees), kept as a Fraction so tests
    never compare floats.
    """

    degeneracy: int
    elimination_order: list[int]
    average_degeneracy: Fraction


def degeneracy(G: Graph) -> DegeneracyReport:
    """Exact degeneracy via a bucket queue, plus the elimination order
    realizing it and the average degeneracy."""
    n = G.n
    if n == 0:
        return DegeneracyReport(0, [], Fraction(0))
    cur = [0] + [G.degree(v) for v in G.vertices]
    max_deg = max(cur)
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v in G.vertices:
        buckets[cur[v]].append(v)
    removed = [False] * (n + 1)
    order: list[int] = []
    delta = 0
    d = 0
    while len(order) < n:
        while d <= max_deg and not buckets[d]:
            d += 1
        v = buckets[d].pop()
        if removed[v] or cur[v] != d:
            continue  # stale bucket entry
        removed[v] = True
        order.append(v)
        delta = max(delta, d)
        for w in G.adj[v]:
            if not removed[w]:
                cur[w] -= 1
                buckets[cur[w]].append(w)
        d = max(d - 1, 0)
    if G.m:
        avg = Fraction(
            sum(min(G.degree(u), G.degree(v)) for u, v in G.edges), G.m
        )
    else:
        avg = Fraction(0)
    return DegeneracyReport(delta, order, avg)


def clustering_coefficient(G: Graph, v: int) -> Fraction:
    """Triangles at v divided by C(d(v), 2), exact. Undefined for d(v) < 2."""
    if not (1 <= v <= G.n):
        raise ValidationError(f"unknown vertex id {v}")
    d = G.degree(v)
    if d < 2:
        raise ValidationError(f"clustering coefficient undefined: d({v}) = {d} < 2")
    nbrs = G.adj[v]
    tri = 0
    for i in range(d):
        for j in range(i + 1, d):
            if G.has_edge(nbrs[i], nbrs[j]):
                tri += 1
    return Fraction(tri, d * (d - 1) // 2)
