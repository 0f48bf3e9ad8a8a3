"""Truss decomposition by threshold peeling.

Per edge we keep the number of triangles it still lies on in the residual
graph (sentinel -1 once removed). One kernel, ``_peel``, runs the rounds:
each round finds its frontier, the live edges below the round threshold,
with numpy over the live edge ids. A large frontier leaves in bulk steps,
the level-synchronous peel of PKT (Kabir & Madduri 2017); a small one,
as in long thin cascades, drains through a stack one edge at a time. The
kernel is given the removal steps that find the triangles through the
removed edges. The exact decomposition, and the criticality trials at one
fixed k, read the edge -> triangle incidence built from the listing and
kill each live triangle once (the triangle-list peel of Wang & Cheng
2012), so a whole peel does O(T) removal work for T triangles; a bulk
step first marks its frontier removed, so a live triangle's removed edges
are its frontier edges, and kills it once, from the first of them; one
``np.unique`` merges the survivors' repeats into a count per edge. The
truncated decomposition is the same peel stopped after round k_trunc;
the witness engine in ``witness`` runs those rounds with a stack step
that reads its table instead. Core decomposition is the vertex form of the
same peel, over residual degrees, with steps that walk the CSR rows.
Counts and labels pass between the phases as int64 arrays, not lists.
Each decomposition is a single-threaded state machine; the input Graph is
only read, so decompositions of different graphs can run concurrently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .graphs import Graph, ValidationError
from .triangles import TriangleCounts, _runs, triangle_counts

REMOVED = -1
# a frontier below _SWITCH edges drains through the stack step: a bulk step's numpy
# overhead buys dozens of stack removals; _GATHER ids (~1 MiB) fit the listing estimate
_SWITCH, _GATHER = 64, 1 << 14


@dataclass
class TrussLabels:
    """Per-edge trussness.

    ``tau[e]``, int64, is exact below ``truncated_at``; an edge labelled
    ``truncated_at`` only has the lower bound "tau >= truncated_at". Full
    decompositions have ``truncated_at`` None, and every label exact.
    """

    tau: np.ndarray
    truncated_at: int | None = None

    def histogram(self) -> dict[int, int]:
        """Exact-tau value -> edge count (lower-bound edges keyed by bound)."""
        counts = np.bincount(self.tau)
        return {t: int(counts[t]) for t in np.flatnonzero(counts).tolist()}


@dataclass
class PeelStats:
    """Work counters: rounds run, edges the stack step removed (bulk steps
    are not counted), live edge ids the round scans read, triangles killed."""

    rounds: int = 0
    stack_pushes: int = 0
    scan_steps: int = 0
    removal_steps: int = 0


def truss_decomposition(G: Graph, *, k_trunc: int | None = None) -> TrussLabels:
    return instrumented_truss_decomposition(G, k_trunc=k_trunc)[0]


def instrumented_truss_decomposition(
    G: Graph, *, k_trunc: int | None = None
) -> tuple[TrussLabels, PeelStats]:
    """Compute tau(e) for every edge, exact or truncated at ``k_trunc``,
    with work counters.

    Runs the peeling rounds with the triangle-incidence removal step; the
    round counter never needs to pass sqrt(2m) or the largest initial
    count plus one. Given ``k_trunc``, the peel stops after round k_trunc,
    as the witness engine's ``run_rounds`` does: the edges it removed get
    their exact tau, below k_trunc, and the rest the lower bound k_trunc.
    """
    m = G.m
    if k_trunc is not None:
        _check_k_trunc(k_trunc, m)
    if m == 0:
        return TrussLabels(np.zeros(0, np.int64), k_trunc), PeelStats()
    delta, *steps = _triangle_steps(triangle_counts(G))  # the counts go before the peel
    top = np.frombuffer(delta, np.int64).max  # the largest residual count
    k_stop = k_trunc or min(isqrt(2 * m), int(top()) + 1)
    tau, stats = _peel(delta, k_stop, *steps)
    assert k_trunc or top() == REMOVED, "peeling failed to remove every edge"
    return TrussLabels(np.frombuffer(tau, np.int64), k_trunc), stats


def _truncation_cap(m: int) -> int:
    """ceil(sqrt(2m)), which no trussness of an m-edge graph reaches."""
    cap = isqrt(2 * m)
    if cap * cap < 2 * m:
        cap += 1
    return cap


def _check_k_trunc(k_trunc: int, m: int) -> None:
    """Refuse a k_trunc below 1, or above ceil(sqrt(2m)) on a graph with
    edges; an empty graph has nothing to truncate."""
    if k_trunc < 1:
        raise ValidationError("k_trunc must be positive")
    if m and k_trunc > _truncation_cap(m):
        raise ValidationError(
            f"k_trunc={k_trunc} exceeds ceil(sqrt(2m))={_truncation_cap(m)} for m={m}"
        )


def _peel(delta, k_stop, remove, bulk=None, check=lambda *_: None) -> tuple[array, PeelStats]:
    """Threshold-peeling rounds k = 1..k_stop over the residual counts
    ``delta``, stopping early once no edge is left; returns the labels
    ``tau`` (k_stop where no round removed the edge) and the work counters.

    Round k removes every residual edge whose count drops below k and
    sets its tau to k - 1. Each round scans the live edge ids with numpy
    for its frontier, the edges below k; triangle-free edges leave in
    round 1 without a step, since removing them changes no other count.
    While the frontier holds at least ``_SWITCH`` edges, ``bulk(frontier,
    k)`` removes all of it and returns its steps and the next frontier,
    the edges that fell below k. The rest of the round drains through a
    stack: ``remove(e, k, stack)`` marks e removed, decrements the two
    other edges of every residual triangle through e, pushes each one that
    reaches k - 1, and returns the steps it took. The steps are the only
    part that knows how the triangles are found. ``check(k, frontier)``
    runs after each scan, after each bulk step and after each drained stack.
    ``degeneracy`` runs the same rounds over vertices and residual degrees.
    """
    live, tau = np.arange(len(delta)), array("q", [k_stop]) * len(delta)
    counts, labels = np.frombuffer(delta, np.int64), np.frombuffer(tau, np.int64)
    k = scans = pops = steps = 0
    for k in range(1, k_stop + 1):
        scans += len(live)
        frontier = live[counts[live] < k]
        if k == 1:
            counts[frontier], labels[frontier], frontier = REMOVED, 0, frontier[:0]
        check(k, frontier)
        while bulk and len(frontier) >= _SWITCH:
            labels[frontier] = k - 1
            done, frontier = bulk(frontier, k)
            steps += done
            check(k, frontier)
        stack = frontier.tolist()
        while stack:
            e = stack.pop()
            pops += 1
            steps += remove(e, k, stack)
            tau[e] = k - 1
        check(k, stack)
        live = live[counts[live] != REMOVED]
        if not len(live):
            break
    return tau, PeelStats(rounds=k, stack_pushes=pops, scan_steps=scans, removal_steps=steps)


def _triangle_steps(counts: TriangleCounts):
    """``(delta, remove, bulk)``: an ``array("q")`` copy of the counts, and
    the steps that kill each live triangle through the removed edges once,
    one step a kill, so a whole peel takes at most T steps. ``remove``
    walks one edge's row of the edge -> triangle incidence; ``bulk``
    gathers the frontier's rows and decrements each survivor by its kills."""
    (ptr, tri), listing = counts.incidence, counts.listing  # delta then reuses its sort's room
    delta = array("q")
    delta.frombytes(counts.per_edge.view(np.uint8))
    alive = bytearray(b"\x01") * counts.total
    rows, ids = np.frombuffer(ptr, np.int64), np.frombuffer(tri, np.int32)
    edges_of = np.frombuffer(listing, np.int32).reshape(-1, 3)
    live_tri, live_count = np.frombuffer(alive, np.uint8), np.frombuffer(delta, np.int64)

    def remove(e: int, k: int, stack: list[int]) -> int:
        assert delta[e] != REMOVED, f"edge {e} removed twice"
        delta[e] = REMOVED
        steps = 0
        for t in tri[ptr[e] : ptr[e + 1]]:
            if alive[t]:
                alive[t] = 0
                steps += 1
                for f in listing[3 * t : 3 * t + 3]:
                    if f != e:
                        delta[f] -= 1
                        if delta[f] == k - 1:
                            stack.append(f)
        return steps

    def bulk(frontier: np.ndarray, k: int) -> tuple[int, np.ndarray]:
        assert (live_count[frontier] != REMOVED).all(), "frontier edge removed twice"
        live_count[frontier] = REMOVED
        steps, crossed = 0, [frontier[:0]]
        for r, at in _runs(rows[frontier], rows[frontier + 1] - rows[frontier], _GATHER):
            mine = np.flatnonzero(live_tri[ids[at]])  # indices gather faster than random masks
            t, e = ids[at[mine]], frontier[r[mine]]
            cols = edges_of.take(t, axis=0)
            gone = live_count[cols] == REMOVED
            x, y, z = cols.T  # a triangle's first removed edge kills it
            mine = np.where(gone[:, 0], x, np.where(gone[:, 1], y, z)) == e
            t, f = t[np.flatnonzero(mine)], cols.ravel()[np.flatnonzero(~gone & mine[:, None])]
            live_tri[t] = 0
            steps += len(t)
            f, c = np.unique(f, return_counts=True)
            live_count[f] -= c
            crossed.append(f[(live_count[f] < k) & (live_count[f] + c >= k)])
        return steps, np.concatenate(crossed)

    return delta, remove, bulk


@dataclass
class DegeneracyReport:
    """Output of core decomposition. ``elimination_order`` lists the vertices
    in removal order, each with at most ``degeneracy`` neighbours after it;
    ``average_degeneracy`` is the exact mean over edges of the smaller
    endpoint degree, a Fraction so tests never compare floats."""

    degeneracy: int
    elimination_order: list[int]
    average_degeneracy: Fraction


def degeneracy(G: Graph) -> DegeneracyReport:
    """Exact degeneracy by the vertex form of the threshold peel: round k
    removes the vertices left with fewer than k live neighbours, so each
    has at most k - 1 neighbours removed after it, and the last round to
    remove one is the degeneracy plus one."""
    from fractions import Fraction  # with decimal behind it: only its callers load it
    if G.n == 0:
        return DegeneracyReport(0, [], Fraction(0))
    delta = array("q", G.degrees.tobytes())
    order = array("q", (np.flatnonzero(G.degrees[1:] == 0) + 1).tobytes())  # round 1 takes no step
    core, _ = _peel(delta, int(G.degrees.max()) + 1, *_vertex_steps(G, delta, order))
    avg = Fraction(int(np.minimum(*G.degrees[G.ends.T]).sum()), G.m or 1)
    return DegeneracyReport(max(core), order.tolist(), avg)


def _vertex_steps(G: Graph, delta: array, order: array):
    """``(remove, bulk)`` over residual degrees ``delta``: each appends the
    vertices it removes to ``order`` and decrements their live neighbours,
    one step a decrement, at most m in all. ``remove`` walks one vertex's
    CSR row; ``bulk`` gathers the frontier's rows and counts each neighbour."""
    indptr, nbr = G.csr[:2]
    ptr, row = memoryview(indptr), memoryview(nbr)
    live_count = np.frombuffer(delta, np.int64)

    def remove(v: int, k: int, stack: list[int]) -> int:
        assert delta[v] != REMOVED, f"vertex {v} removed twice"
        delta[v] = REMOVED
        order.append(v)
        steps = 0
        for w in row[ptr[v] : ptr[v + 1]]:
            if delta[w] != REMOVED:
                delta[w] -= 1
                steps += 1
                if delta[w] == k - 1:
                    stack.append(w)
        return steps

    def bulk(frontier: np.ndarray, k: int) -> tuple[int, np.ndarray]:
        assert (live_count[frontier] != REMOVED).all(), "frontier vertex removed twice"
        live_count[frontier] = REMOVED
        order.frombytes(frontier.tobytes())
        steps, crossed = 0, [frontier[:0]]
        first = indptr[frontier]
        for _, at in _runs(first, indptr[frontier + 1] - first, _GATHER):
            w = nbr[at]
            w, c = np.unique(w[live_count[w] != REMOVED], return_counts=True)
            live_count[w] -= c
            steps += int(c.sum())
            crossed.append(w[(live_count[w] < k) & (live_count[w] + c >= k)])
        return steps, np.concatenate(crossed)

    return remove, bulk


def _critical_trials(counts: TriangleCounts, k: int) -> tuple[bool, int]:
    """``is_critical_k_truss`` past its guards, from G's counts with their
    listing, and the number of triangles its trials killed. Each trial
    drains breadth-first and rolls back only the triangles it killed; as
    every count starts at k or more, each removed edge is queued once."""
    (ptr, tri), listing, base = counts.incidence, counts.listing, counts.per_edge.tolist()
    delta, alive = list(base), bytearray(b"\x01") * counts.total
    empties = bytearray(len(base))  # edges whose trial emptied G
    killed = array("i")

    def drain(e: int) -> list[int] | None:
        """Trial e's removed edges in order, or None at one in ``empties``."""
        queue = [e]
        for f in queue:
            for t in tri[ptr[f] : ptr[f + 1]]:
                if alive[t]:
                    alive[t] = 0
                    killed.append(t)
                    for g in listing[3 * t : 3 * t + 3]:
                        if g != f:
                            delta[g] -= 1
                            if delta[g] == k - 1:
                                if empties[g]:
                                    return None
                                queue.append(g)
        return queue

    kills, order = 0, [0]  # later trials follow the first one's removal order
    for e in order:
        removed = drain(e)
        kills += len(killed)
        for t in killed:
            alive[t] = 1
            for g in listing[3 * t : 3 * t + 3]:
                delta[g] = base[g]
        del killed[:]
        if removed is not None and len(removed) < len(base):
            return False, kills
        if len(order) == 1:
            order += removed[1:]
        empties[e] = 1
    return True, kills


def k_truss_components(
    G: Graph, k: int, labels: TrussLabels
) -> list[tuple[int, ...]]:
    """Connected components of G restricted to edges with tau(e) >= k.

    Each component's edge-induced subgraph is a connected k-truss.
    Components are ordered by their smallest edge id. For truncated
    labels, k must not exceed the truncation bound (the restricted edge
    set is only known up to there).
    """
    comp = component_ids(G, k, labels)
    edges = np.argsort(comp, kind="stable")[np.count_nonzero(comp < 0):]
    parts = np.split(edges, np.flatnonzero(np.diff(comp[edges])) + 1)
    return [tuple(part.tolist()) for part in parts if len(part)]


def component_ids(G: Graph, k: int, labels: TrussLabels) -> np.ndarray:
    """Per edge, its ``k_truss_components`` index, or -1 where tau < k."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    if len(labels.tau) != G.m:
        raise ValidationError("labels do not match graph")
    if labels.truncated_at is not None and k > labels.truncated_at:
        raise ValidationError(
            f"k={k} exceeds truncation bound {labels.truncated_at}; "
            "exact memberships unknown above it"
        )
    kept = np.flatnonzero(np.asarray(labels.tau, np.int64) >= k)
    u, v = G.ends[kept, 0], G.ends[kept, 1]
    root = np.arange(G.n + 1)
    _hook(root, u, v)
    _, first, which = np.unique(root[u], return_index=True, return_inverse=True)
    comp = np.full(G.m, -1)
    comp[kept] = np.argsort(np.argsort(first))[which]  # numbered by first kept edge
    return comp


def _hook(root: np.ndarray, u: np.ndarray, v: np.ndarray, within=slice(None)) -> None:
    """Join the components across the edges (u, v) in ``root``, where each
    vertex points at its component's smallest vertex, its root. Each round
    hooks every root onto the smallest smaller root across an edge, then
    jumps pointers until each vertex ``within`` points at its root again;
    ``within`` must hold every vertex of the joined components."""
    while (split := root[u] != root[v]).any():
        ru, rv = root[u[split]], root[v[split]]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        while not np.array_equal(up := root[root[within]], root[within]):
            root[within] = up
