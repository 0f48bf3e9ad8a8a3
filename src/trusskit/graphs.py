"""Immutable undirected simple graphs with dense edge indexing.

Vertices carry contiguous 1-based internal ids; id 0 is reserved so that a
sum of vertex ids is zero only for the empty set (the witness tables rely
on this). Original input labels are kept alongside the internal ids so
edge lists round-trip through the serializer.

The edge index is one dict from the id pair (u, v), u < v, to the edge
id, and ``edges[e]`` is its key. The parser fills it in one pass over the
lines, next to one label -> id map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


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
        edge_ids: dict[tuple[int, int], int] = {}
        for u, v in pairs:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValidationError(f"self-loop on vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in edge_ids:
                raise ValidationError(f"duplicate edge {key}")
            edge_ids[key] = len(edge_ids)
        self._index([str(x) for x in labels], edge_ids)

    def _index(self, labels: list[str], edge_ids: dict[tuple[int, int], int]) -> None:
        """Fill the graph from its labels and the edge dict it keeps, which
        maps each pair (u, v), u < v, to its edge id in insertion order."""
        adj: list[list[int]] = [[] for _ in range(len(labels) + 1)]
        for u, v in edge_ids:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        self.n = len(labels)
        self.m = len(edge_ids)
        self.adj = tuple(tuple(lst) for lst in adj)
        self.edges = tuple(edge_ids)
        self.labels = ("", *labels)
        self._edge_ids = edge_ids

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edge_id(self, u: int, v: int) -> int | None:
        """Dense edge id for the unordered pair, or None if absent."""
        return self._edge_ids.get((u, v) if u < v else (v, u))

    def serialize(self) -> str:
        """Edge-list text, one "u v" line per edge sorted by (min, max) id."""
        lab = self.labels
        return "".join([f"{lab[u]} {lab[v]}\n" for u, v in sorted(self.edges)])

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
    Self-loops and duplicate edges are rejected. One pass over the lines
    fills the label map and the edge dict the Graph keeps.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    ids: dict[str, int] = {}
    edge_ids: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {raw.strip()!r}", line_no)
        a, b = parts
        if a == b:
            raise ValidationError(f"line {line_no}: self-loop on {a!r}")
        u = ids.setdefault(a, len(ids) + 1)
        v = ids.setdefault(b, len(ids) + 1)
        key = (u, v) if u < v else (v, u)
        if key in edge_ids:
            raise ValidationError(f"line {line_no}: duplicate edge {a!r} {b!r}")
        edge_ids[key] = len(edge_ids)
    G = object.__new__(Graph)
    G._index(list(ids), edge_ids)
    return G


# -- degeneracy ------------------------------------------------------------


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
