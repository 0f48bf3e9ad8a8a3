"""Truss decomposition by threshold peeling.

Per edge we keep the number of triangles it still lies on in the residual
graph (sentinel -1 once removed). One kernel, ``_peel``, runs the rounds:
a stack drives cascading removals inside a round, and the scan list is a
plain array compacted lazily by swapping dead entries to the end while it
is being traversed, so no linked structure is needed. The kernel is given
the removal step that finds the triangles through a removed edge. The
exact decomposition, and the criticality trials at one fixed k, walk the
edge's row of the edge -> triangle incidence built from the listing and
kill each live triangle once (the triangle-list peel of Wang & Cheng
2012), so a whole peel does O(T) removal work for T triangles. The
truncated decomposition is the same peel stopped after round k_trunc;
the witness engine in ``witness`` runs those rounds with a step that
reads its table instead.
Each decomposition is a single-threaded state machine; the input Graph is
only read, so decompositions of different graphs can run concurrently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import isqrt

from .graphs import Graph, ValidationError
from .triangles import TriangleCounts, triangle_counts

REMOVED = -1


@dataclass
class TrussLabels:
    """Per-edge trussness.

    ``tau[e]`` is exact below ``truncated_at``; an edge labelled
    ``truncated_at`` only has the lower bound "tau >= truncated_at". Full
    decompositions have ``truncated_at`` None, and every label exact.
    """

    tau: list[int]
    truncated_at: int | None = None

    @property
    def exact(self) -> list[bool]:
        """Per edge, whether ``tau[e]`` is exact rather than a lower bound."""
        k = self.truncated_at
        return [k is None or t < k for t in self.tau]

    def histogram(self) -> dict[int, int]:
        """Exact-tau value -> edge count (lower-bound edges keyed by bound)."""
        hist: dict[int, int] = {}
        for t in self.tau:
            hist[t] = hist.get(t, 0) + 1
        return dict(sorted(hist.items()))


@dataclass
class PeelStats:
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
        return TrussLabels([], k_trunc), PeelStats()
    counts = triangle_counts(G)
    delta = list(counts.per_edge)
    remove = _triangle_removal(delta, counts)
    k_stop = k_trunc or min(isqrt(2 * m), max(delta) + 1)
    tau = [k_stop] * m
    residual, stats = _peel(delta, k_stop, remove, tau)
    assert k_trunc or residual == 0, "peeling failed to remove every edge"
    return TrussLabels(tau, k_trunc), stats


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


def _peel(delta, k_stop, remove, tau, check=None) -> tuple[int, PeelStats]:
    """Threshold-peeling rounds k = 1..k_stop over the residual counts
    ``delta``, stopping early once no edge is left; returns the number of
    edges left and the work counters.

    Round k removes every residual edge whose count drops below k and
    sets its tau to k - 1. The scan list is compacted lazily by swapping
    removed entries to the end while it is traversed; triangle-free edges
    leave during the round-1 scan without being stacked, since removing
    them changes no other count. ``remove(e, k, stack)`` marks e removed,
    decrements the two other edges of every residual triangle through e,
    pushes each one that reaches k - 1, and returns the steps it took; it
    is the only part that knows how the triangles are found.
    ``check(k, stack)``, if given, runs after each scan and after each
    drained stack.
    """
    scan_list = list(range(len(delta)))
    stack: list[int] = []
    residual = len(delta)
    k = scans = pops = steps = 0
    for k in range(1, k_stop + 1):
        i = 0
        while i < len(scan_list):
            scans += 1
            e = scan_list[i]
            de = delta[e]
            if de == REMOVED or (k == 1 and de == 0):
                if de == 0:
                    tau[e] = 0
                    delta[e] = REMOVED
                    residual -= 1
                scan_list[i] = scan_list[-1]
                scan_list.pop()
                continue
            if de == k - 1:
                stack.append(e)
            i += 1
        if check:
            check(k, stack)
        while stack:
            e = stack.pop()
            pops += 1
            steps += remove(e, k, stack)
            tau[e] = k - 1
            residual -= 1
        if check:
            check(k, stack)
        if residual == 0:
            break
    stats = PeelStats(rounds=k, stack_pushes=pops, scan_steps=scans, removal_steps=steps)
    return residual, stats


def _triangle_removal(delta: list[int], counts: TriangleCounts):
    """The removal step that walks the removed edge's row of the
    edge -> triangle incidence; each triangle still alive is killed once,
    and each kill is one step, so a whole peel takes at most T steps."""
    ptr, tri = counts.incidence
    listing = counts.listing
    alive = bytearray(b"\x01") * counts.total

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

    return remove


def _critical_trials(counts: TriangleCounts, k: int) -> tuple[bool, int]:
    """``is_critical_k_truss`` past its guards, from G's counts with their
    listing, and the number of triangles its trials killed. Each trial
    drains breadth-first and rolls back only the triangles it killed; as
    every count starts at k or more, each removed edge is queued once."""
    (ptr, tri), listing, base = counts.incidence, counts.listing, counts.per_edge
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
    if k < 1:
        raise ValidationError("k must be at least 1")
    if len(labels.tau) != G.m:
        raise ValidationError("labels do not match graph")
    if labels.truncated_at is not None and k > labels.truncated_at:
        raise ValidationError(
            f"k={k} exceeds truncation bound {labels.truncated_at}; "
            "exact memberships unknown above it"
        )
    keep = [e for e in range(G.m) if labels.tau[e] >= k]
    ends = G.ends.tolist()
    parent = list(range(G.n + 1))
    for e in keep:
        u, v = ends[e]
        parent[_find(parent, u)] = _find(parent, v)
    groups: dict[int, list[int]] = {}
    for e in keep:  # first seen first, so ordered by smallest edge id
        groups.setdefault(_find(parent, ends[e][0]), []).append(e)
    return [tuple(g) for g in groups.values()]


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
