"""Truss decomposition by threshold peeling.

Per edge we keep the number of triangles it still lies on in the residual
graph (sentinel -1 once removed). One kernel, ``_peel``, runs the rounds:
a stack drives cascading removals inside a round, and the scan list is a
plain array compacted lazily by swapping dead entries to the end while it
is being traversed, so no linked structure is needed. The kernel is given
the removal step that finds the triangles through a removed edge: here a
scan of the smaller-degree endpoint's adjacency, which the exact
decomposition and ``peel_to_fixed_point`` share; the truncated
decomposition in ``witness`` passes one that reads the witness table.
Each decomposition is a single-threaded state machine; the input Graph is
only read, so decompositions of different graphs can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .graphs import Graph, ValidationError
from .triangles import ordered_endpoints, triangle_counts

REMOVED = -1


@dataclass
class TrussLabels:
    """Per-edge trussness.

    ``tau[e]`` is exact where ``exact[e]`` is True; otherwise it records
    the lower bound ``truncated_at`` ("tau >= truncated_at"). Full
    decompositions have every flag True and ``truncated_at`` None.
    """

    tau: list[int]
    exact: list[bool]
    truncated_at: int | None = None

    @property
    def all_exact(self) -> bool:
        return all(self.exact)

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


def truss_decomposition(G: Graph, *, check_invariants: bool = False) -> TrussLabels:
    labels, _ = instrumented_truss_decomposition(G, check_invariants=check_invariants)
    return labels


def instrumented_truss_decomposition(
    G: Graph, *, check_invariants: bool = False
) -> tuple[TrussLabels, PeelStats]:
    """Compute exact tau(e) for every edge, with work counters.

    Runs the peeling rounds with the neighbor-scan removal step; the round
    counter never needs to pass sqrt(2m) or the largest initial count plus
    one. ``check_invariants`` re-derives the residual counts from scratch
    at round boundaries and asserts the stack discipline; intended for
    tests, quadratic-ish cost.
    """
    m = G.m
    if m == 0:
        return TrussLabels([], [], None), PeelStats()
    delta = list(triangle_counts(G).per_edge)
    tau = [0] * m
    remove = _scan_removal(G, delta)
    check = None
    if check_invariants:
        scan_remove = remove

        def remove(e: int, k: int, stack: list[int]) -> int:
            assert delta[e] != REMOVED, f"edge {e} stacked twice"
            return scan_remove(e, k, stack)

        def check(k: int, stack: list[int]) -> None:
            _assert_invariants(G, delta, stack, k)

    k_stop = min(isqrt(2 * m), max(delta) + 1)
    residual, stats = _peel(delta, k_stop, remove, tau, check)
    assert residual == 0, "peeling failed to remove every edge"
    return TrussLabels(tau, [True] * m, None), stats


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


def _scan_removal(G: Graph, delta: list[int]):
    """The removal step that finds the triangles through an edge by
    scanning its smaller-degree endpoint's adjacency with pair lookups;
    each adjacency entry is one step."""
    edge_ids = G._edge_ids
    adj = G.adj

    def remove(e: int, k: int, stack: list[int]) -> int:
        u, v = ordered_endpoints(G, e)
        delta[e] = REMOVED
        nbrs = adj[u]
        for w in nbrs:
            if w == v:
                continue
            f_vw = edge_ids.get((v, w) if v < w else (w, v))
            if f_vw is None or delta[f_vw] == REMOVED:
                continue
            f_uw = edge_ids[(u, w) if u < w else (w, u)]
            if delta[f_uw] == REMOVED:
                continue
            delta[f_uw] -= 1
            if delta[f_uw] == k - 1:
                stack.append(f_uw)
            delta[f_vw] -= 1
            if delta[f_vw] == k - 1:
                stack.append(f_vw)
        return len(nbrs)

    return remove


def _residual_counts(G: Graph, delta: list[int]) -> list[int]:
    """Triangle counts of the residual graph, recomputed from scratch."""
    out = [REMOVED] * G.m
    for e, (u, v) in enumerate(G.edges):
        if delta[e] == REMOVED:
            continue
        cnt = 0
        a, b = ordered_endpoints(G, e)
        for w in G.adj[a]:
            f1 = G.edge_id(a, w)
            f2 = G.edge_id(b, w)
            if f2 is not None and delta[f1] != REMOVED and delta[f2] != REMOVED:
                cnt += 1
        out[e] = cnt
    return out


def _assert_invariants(G, delta, stack, k):
    """Every residual count is current, and every residual edge below the
    round threshold is on the stack (which is empty once a round ends)."""
    fresh = _residual_counts(G, delta)
    on_stack = set(stack)
    for e in range(G.m):
        if delta[e] == REMOVED:
            continue
        assert delta[e] == fresh[e], f"stale count on edge {e}"
        assert delta[e] >= k or e in on_stack, f"edge {e} below round threshold, unstacked"
    for e in on_stack:
        assert delta[e] != REMOVED and delta[e] < k, f"stacked edge {e} invalid"


def peel_to_fixed_point(
    G: Graph,
    k: int,
    *,
    pre_removed: tuple[int, ...] = (),
    base_delta: list[int] | None = None,
) -> list[int]:
    """Edges surviving repeated deletion of edges with < k residual
    triangles, optionally with some edges deleted up front.

    ``base_delta`` lets callers share one initial count across many calls;
    it is copied, never mutated.
    """
    m = G.m
    if m == 0:
        return []
    delta = list(base_delta) if base_delta is not None else list(
        triangle_counts(G).per_edge
    )
    remove = _scan_removal(G, delta)
    stack: list[int] = []
    for e in set(pre_removed):
        if not (0 <= e < m):
            raise ValidationError(f"edge id {e} out of range")
        if delta[e] != REMOVED:
            remove(e, k, stack)
    stack.extend(e for e in range(m) if delta[e] != REMOVED and delta[e] < k)
    while stack:
        e = stack.pop()
        if delta[e] != REMOVED:
            remove(e, k, stack)
    return [e for e in range(m) if delta[e] != REMOVED]


def max_k_truss(G: Graph, k: int) -> tuple[int, ...]:
    """The unique maximal edge set whose edge-induced subgraph keeps every
    edge on at least k triangles; equals {e : tau(e) >= k}."""
    if k < 0:
        raise ValidationError("k must be nonnegative")
    if k == 0:
        return tuple(range(G.m))
    return tuple(peel_to_fixed_point(G, k))


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
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in keep:
        u, v = G.edges[e]
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    groups: dict[int, list[int]] = {}
    for e in keep:
        root = find(G.edges[e][0])
        groups.setdefault(root, []).append(e)
    return [tuple(groups[r]) for r in sorted(groups, key=lambda r: groups[r][0])]
