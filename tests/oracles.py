"""Reference computations the tests compare trusskit against, and the
subgraph helpers some tests build their inputs with.

Each reference takes a road of its own: one all-triples scan for the
triangles and the per-edge counts, dense adjacency products for the
decomposition, the truss test and the greedy suspension, every edge
subset for criticality, neighbour-set recounts for the maximal k-truss
and the m single-edge peels, plain loops over the residual graph for the
witness table and the peel's invariant check, a search per level for
the bound report, for the torus search a candidate list built up front
and checked on a dense adjacency matrix, and one f-string per row for the
row writers. None of them calls the
code path it checks. The expensive ones refuse inputs past their caps,
raising ``CapExceeded`` or failing an assertion, rather than hang.
``vertex_counts`` is no reference: it reads per-vertex counts off the
production listing, as the library keeps none.
"""

from collections import namedtuple
from math import isqrt

import numpy as np

from trusskit import Graph, TrussLabels, ValidationError
from trusskit.triangles import triangle_vertices

DEFAULT_CAP = 200


class CapExceeded(Exception):
    """Input too large for a brute-force oracle."""


def edge_pairs(G):
    """G's edges as (u, v) tuples, u < v, in edge-id order."""
    return [tuple(p) for p in G.ends.tolist()]


def adjacency(G):
    """Each vertex's neighbour set (slot 0 empty), from the edge list."""
    nbrs = [set() for _ in range(G.n + 1)]
    for u, v in G.ends.tolist():
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def min_degree_sum(G):
    """The smaller endpoint degree summed over G's edges: m times the
    average degeneracy."""
    deg = G.degrees.tolist()
    return sum(min(deg[u], deg[v]) for u, v in edge_pairs(G))


def edge_index(G):
    """Edge id of each adjacent pair, in both orders, from the edge list."""
    ids = {}
    for e, (u, v) in enumerate(G.ends.tolist()):
        ids[u, v] = ids[v, u] = e
    return ids


def scratch_witness_table(state):
    """Witness table rebuilt from its definition over the residual graph."""
    G = state.G
    eid = edge_index(G)
    S = np.zeros_like(state.S)
    for e, (u, v) in enumerate(edge_pairs(G)):
        if state.delta[e] < 0:
            continue
        for w in G.vertices:
            if w == u or w == v:
                continue
            f1 = eid.get((u, w))
            f2 = eid.get((v, w))
            if (
                f1 is not None
                and f2 is not None
                and state.delta[f1] >= 0
                and state.delta[f2] >= 0
            ):
                S[e][state.xmat[w]] += w
    return S


def residual_common_neighbors(state, e):
    G = state.G
    eid = edge_index(G)
    u, v = edge_pairs(G)[e]
    out = []
    for w in G.vertices:
        if w == u or w == v:
            continue
        f1 = eid.get((u, w))
        f2 = eid.get((v, w))
        if (
            f1 is not None
            and f2 is not None
            and state.delta[f1] >= 0
            and state.delta[f2] >= 0
        ):
            out.append(w)
    return out


def triple_scan_triangles(G):
    """All triangles as sorted vertex triples, by scanning all triples."""
    eid = edge_index(G)
    out = []
    for a in G.vertices:
        for b in range(a + 1, G.n + 1):
            if (a, b) not in eid:
                continue
            for c in range(b + 1, G.n + 1):
                if (a, c) in eid and (b, c) in eid:
                    out.append((a, b, c))
    return out


def edge_rows_text(G, values):
    """The "u v value" rows the per-edge subcommands write, sorted by
    endpoint pair here: one f-string per edge, skipping the edges whose
    value is None."""
    lab, edges = G.labels, edge_pairs(G)
    order = sorted(range(G.m), key=edges.__getitem__)
    return "".join(
        f"{lab[edges[e][0]]}\t{lab[edges[e][1]]}\t{values[e]}\n" for e in order if values[e] is not None
    )


def triangle_rows_text(G):
    """The "a b c" rows of ``triangles``, from the all-triples scan, sorted
    as the label tuples (a + " ", b + " ", c)."""
    lab = G.labels
    rows = sorted(triple_scan_triangles(G), key=lambda t: (lab[t[0]] + " ", lab[t[1]] + " ", lab[t[2]]))
    return "".join(f"{lab[a]} {lab[b]} {lab[c]}\n" for a, b, c in rows)


def serialized_text(G):
    """G's edge-list text, one "u v" f-string per edge, the pairs sorted here."""
    lab = G.labels
    return "".join(f"{lab[u]} {lab[v]}\n" for u, v in sorted(edge_pairs(G)))


BruteCounts = namedtuple("BruteCounts", "per_edge per_vertex total")


def brute_force_triangles(G, cap=DEFAULT_CAP):
    """Exact per-edge and per-vertex (1-based, slot 0 unused) counts from
    the all-triples scan. O(n^3), capped."""
    if G.n > cap:
        raise CapExceeded(f"brute-force triangle scan refused for n={G.n} > cap={cap}")
    per_edge = [0] * G.m
    per_vertex = [0] * (G.n + 1)
    tris = triple_scan_triangles(G)
    eid = edge_index(G)
    for a, b, c in tris:
        for x, y in ((a, b), (b, c), (a, c)):
            per_edge[eid[x, y]] += 1
        for x in (a, b, c):
            per_vertex[x] += 1
    return BruteCounts(per_edge, per_vertex, len(tris))


def vertex_counts(G):
    """Triangles through each vertex, 1-based (slot 0 unused), from the
    production listing ``triangle_vertices``."""
    return np.bincount(triangle_vertices(G).ravel(), minlength=G.n + 1).tolist()


def residual_counts(G, delta):
    """Triangle counts of the residual graph, the edges whose ``delta`` is
    not the removed sentinel -1, recounted from the adjacency; -1 for a
    removed edge."""
    nbrs, eid = adjacency(G), edge_index(G)
    out = [-1] * G.m
    for e, (u, v) in enumerate(edge_pairs(G)):
        if delta[e] < 0:
            continue
        out[e] = sum(
            1
            for w in nbrs[u]
            if (f := eid.get((v, w))) is not None
            and delta[f] >= 0
            and delta[eid[u, w]] >= 0
        )
    return out


def assert_invariants(G, delta, k, stack):
    """The peel's state at a round boundary, as ``peel._peel``'s ``check``
    hook sees it: every residual count is current, and every residual edge
    below the round threshold is on the stack (empty once a round ends)."""
    fresh = residual_counts(G, delta)
    on_stack = set(stack)
    for e in range(G.m):
        if delta[e] < 0:
            continue
        assert delta[e] == fresh[e], f"stale count on edge {e}"
        assert delta[e] >= k or e in on_stack, f"edge {e} below round threshold, unstacked"
    for e in on_stack:
        assert delta[e] >= 0 and delta[e] < k, f"stacked edge {e} invalid"


def is_critical_k_truss_exhaustive(G, k, max_edges=20):
    """Criticality restated over edge subsets (the oracle's oracle): G has
    no isolated vertex, its edges all lie on k triangles, and no nonempty
    proper edge subset keeps each of its edges on k triangles inside it.
    Walks all 2^m subsets, so it refuses anything past ``max_edges``."""
    m = G.m
    if m > max_edges:
        raise CapExceeded(f"subset enumeration refused for m={m} > {max_edges}")
    if m == 0 or any(G.degrees[v] == 0 for v in G.vertices):
        return False
    eid = edge_index(G)
    tris = []
    for a, b, c in triple_scan_triangles(G):
        es = (eid[a, b], eid[b, c], eid[a, c])
        tris.append(((1 << es[0]) | (1 << es[1]) | (1 << es[2]), es))

    def is_truss(subset):
        counts = [0] * m
        for mask, es in tris:
            if mask & subset == mask:
                for e in es:
                    counts[e] += 1
        return all(counts[e] >= k for e in range(m) if subset >> e & 1)

    full = (1 << m) - 1
    return is_truss(full) and not any(is_truss(s) for s in range(1, full))


def peel_to_fixed_point(G, k):
    """The maximal k-truss as its edge ids, ascending: recount every
    residual edge's triangles from neighbour sets and delete all edges on
    fewer than k, until none is left to delete."""
    nbrs, pairs = adjacency(G), edge_pairs(G)
    alive = set(range(G.m))
    while True:
        low = [e for e in alive if len(nbrs[pairs[e][0]] & nbrs[pairs[e][1]]) < k]
        if not low:
            return sorted(alive)
        for e in low:
            u, v = pairs[e]
            nbrs[u].discard(v)
            nbrs[v].discard(u)
            alive.discard(e)


def single_edge_peels_critical(G, k):
    """Criticality by m independent reference peels: G has an edge and no
    isolated vertex, the peel of G keeps every edge, and the peel of each
    G - e, built afresh, keeps none."""
    if G.m == 0 or any(G.degrees[v] == 0 for v in G.vertices):
        return False
    if len(peel_to_fixed_point(G, k)) < G.m:
        return False
    labels, pairs = G.labels[1:], edge_pairs(G)
    return not any(
        peel_to_fixed_point(Graph(labels, pairs[:e] + pairs[e + 1 :]), k)
        for e in range(G.m)
    )


DENSE_CAP = 400


def _dense(G, size):
    assert size <= DENSE_CAP + 1, f"dense oracle refused for {size} rows"
    A = np.zeros((size, size), dtype=np.float64)
    for u, v in edge_pairs(G):
        A[u, v] = A[v, u] = 1.0
    return A


def _dense_is_truss(A, active, k):
    """Every vertex in ``active`` has an edge and every edge of A lies on
    at least k triangles, read off the dense product A @ A."""
    if (A.sum(axis=1)[active] == 0).any():
        return False
    us, vs = np.nonzero(np.triu(A))
    if us.size == 0:
        return active.size == 0
    return bool(((A @ A)[us, vs] >= k).all())


def dense_is_k_truss(G, k):
    """The k-truss test on a dense (n+1) x (n+1) adjacency matrix."""
    return _dense_is_truss(_dense(G, G.n + 1), np.arange(1, G.n + 1), k)


def oracle_truss_decomposition(G, cap=DEFAULT_CAP):
    """Naive decomposition: for k = 1, 2, ... repeatedly recompute every
    residual edge's triangle count from scratch and delete all edges below
    k until stable. Edges deleted at round k get tau = k - 1."""
    if G.n > cap:
        raise CapExceeded(f"oracle decomposition refused for n={G.n} > cap={cap}")
    m = G.m
    if m == 0:
        return TrussLabels([], None)
    tau = [0] * m
    A = _dense(G, G.n + 1)
    us, vs = np.array(edge_pairs(G), dtype=np.int64).reshape(-1, 2).T
    alive = np.ones(m, dtype=bool)
    k = 1
    guard = isqrt(2 * m) + 2
    while alive.any():
        assert k <= guard, "oracle failed to terminate"
        while True:
            low = alive & ((A @ A)[us, vs] < k)
            if not low.any():
                break
            for e in np.flatnonzero(low):
                tau[e] = k - 1
                A[us[e], vs[e]] = A[vs[e], us[e]] = 0.0
            alive &= ~low
        k += 1
    return TrussLabels(tau, None)


def dense_suspend(G, k, added):
    """Greedy apex-edge removal on a dense matrix: every tentative removal
    re-runs the whole truss test. Returns (graph, receipt)."""
    from trusskit import from_edges
    from trusskit.generators import ConstructionReceipt

    if not dense_is_k_truss(G, k):
        raise ValidationError("input is not a k-truss")
    n0 = G.n
    target = k + added
    A = _dense(G, n0 + added + 1)
    apexes = range(n0 + 1, n0 + added + 1)
    for x in apexes:
        A[x, 1:n0 + 1] = A[1:n0 + 1, x] = 1.0
    active = np.arange(1, n0 + added + 1)
    if not _dense_is_truss(A, active, target):
        raise ValidationError("full suspension is not a truss")
    changed = True
    while changed:
        changed = False
        for x in apexes:
            for v in range(1, n0 + 1):
                if A[x, v] == 0.0:
                    continue
                A[x, v] = A[v, x] = 0.0
                if _dense_is_truss(A, active, target):
                    changed = True
                else:
                    A[x, v] = A[v, x] = 1.0
    us, vs = np.nonzero(np.triu(A))
    g = from_edges(n0 + added, list(zip(us.tolist(), vs.tolist())))
    receipt = ConstructionReceipt(
        "suspend", n0 + added, g.m, g.n, g.m,
        ["vertex_count", "edge_count", f"is_{target}_truss", "apex_set_minimal"],
        [f"k={k}", f"added={added}", f"apex_edges={g.m - G.m}"],
    )
    return g, receipt


def induced_by_vertices(G, vertex_set):
    """Vertex-induced subgraph on the given internal ids.

    Kept vertices are renumbered 1..|U| in ascending old-id order and keep
    their original labels. Vertices isolated inside U are retained.
    """
    keep = sorted(set(vertex_set))
    for v in keep:
        if not (1 <= v <= G.n):
            raise ValidationError(f"unknown vertex id {v}")
    remap = {old: new for new, old in enumerate(keep, start=1)}
    pairs = [(remap[u], remap[v]) for u, v in edge_pairs(G) if u in remap and v in remap]
    return Graph([G.labels[v] for v in keep], pairs)


def induced_by_edges(G, edge_set):
    """Edge-induced subgraph: vertex set is exactly the endpoints of the
    kept edges, so the result has no isolated vertices."""
    kept = sorted(set(edge_set))
    for e in kept:
        if not (0 <= e < G.m):
            raise ValidationError(f"edge id {e} out of range [0, {G.m})")
    edges = edge_pairs(G)
    touched = sorted({v for e in kept for v in edges[e]})
    remap = {old: new for new, old in enumerate(touched, start=1)}
    pairs = [(remap[edges[e][0]], remap[edges[e][1]]) for e in kept]
    return Graph([G.labels[v] for v in touched], pairs)


def edge_components(G, kept):
    """The kept edge ids grouped by connected component, a breadth-first
    walk from each unvisited kept edge in ascending order: components by
    smallest edge id, edges ascending inside each."""
    edges = edge_pairs(G)
    at = {}
    for e in sorted(kept):
        for v in edges[e]:
            at.setdefault(v, []).append(e)
    seen, comps = set(), []
    for e in sorted(kept):
        if e in seen:
            continue
        seen.add(e)
        comp = [e]
        for f in comp:
            for g in (g for v in edges[f] for g in at[v] if g not in seen):
                seen.add(g)
                comp.append(g)
        comps.append(tuple(sorted(comp)))
    return comps


def level_bound_checks(G, tau):
    """The per-level checks of ``bound_report``, rebuilt level by level:
    for each k the subgraph of edges with tau >= k is split into
    components by search, and every degree and triangle count is
    recounted inside it. Returns the worst instance of each check (the
    first one on ties, walking k upward, components by smallest vertex,
    vertices ascending), sorted by name."""
    from trusskit.checks import BoundCheck

    worst = {}

    def consider(name, margin, detail, witness):
        if name not in worst or margin < worst[name].margin:
            worst[name] = BoundCheck(name, margin >= 0, margin, detail, witness)

    edges = edge_pairs(G)

    def edge_name(e):
        u, v = edges[e]
        return f"edge {G.labels[u]}-{G.labels[v]}"

    for k in range(1, max(tau, default=0) + 1):
        level = {e for e in range(G.m) if tau[e] >= k}
        nbrs = {}
        for e in sorted(level):
            u, v = edges[e]
            nbrs.setdefault(u, set()).add(v)
            nbrs.setdefault(v, set()).add(u)
        seen = set()
        for start in sorted(nbrs):
            if start in seen:
                continue
            comp, frontier = {start}, [start]
            while frontier:
                for w in nbrs[frontier.pop()] - comp:
                    comp.add(w)
                    frontier.append(w)
            seen |= comp
            vs_c = sorted(comp)
            edges_c = sorted(e for e in level if edges[e][0] in comp)
            tri = {
                v: sum(1 for a in nbrs[v] for b in nbrs[v] if a < b and b in nbrs[a])
                for v in vs_c
            }
            n_c, m_c, t_c = len(vs_c), len(edges_c), sum(tri.values()) // 3
            where = f"component of {edge_name(edges_c[0])}"
            consider("component_vertex_count", n_c - (k + 2),
                     f"k={k}: component has {n_c} vertices vs bound {k + 2}", where)
            consider("component_edge_count", 2 * m_c - (n_c - 1) * (k + 2),
                     f"k={k}: 2*m_c = {2 * m_c} vs (n_c-1)(k+2) = {(n_c - 1) * (k + 2)}",
                     where)
            consider("component_triangle_count", 6 * t_c - (n_c - 1) * (k + 2) * k,
                     f"k={k}: 6*t_c = {6 * t_c} vs (n_c-1)(k+2)k = "
                     f"{(n_c - 1) * (k + 2) * k}", where)
            for v in vs_c:
                d = len(nbrs[v])
                consider("component_min_degree", d - (k + 1),
                         f"k={k}: deg = {d} vs bound {k + 1}", f"vertex {G.labels[v]}")
                consider("clustering_support", tri[v] - (k + 1) * k // 2,
                         f"k={k}: triangles at v = {tri[v]} vs C(k+1,2) = {(k + 1) * k // 2}",
                         f"vertex {G.labels[v]}")
    if not worst:
        worst["component_min_degree"] = BoundCheck(
            "component_min_degree", True, None, "no k-truss components (triangle-free)"
        )
    return [worst[name] for name in sorted(worst)]


def eager_torus_search(i, t, strict):
    """The torus search with its whole candidate list built first: for each
    tall cell (p, t-2-p), p = 1..t-3, and each split of the i unit squares,
    the stacking and, unless symmetric, its swap, each tried at twist
    offsets 2..h-2. Returns the first valid candidate's faces and offset,
    or None. Each face set is checked from scratch on a dense adjacency
    matrix: simple walks of length >= 4 covering 1..h, every edge on two
    distinct faces, V - E + F = 0, a connected skeleton and, if
    ``strict``, chord-free faces and no skeleton triangle."""
    squares = [(1, 1)] * i
    h = i + t - 2
    orders = []
    for p in range(1, t - 2):
        a, b = (p, t - 2 - p), (t - 2 - p, p)
        for split in range(i + 1):
            orders.append([a] + squares[:split] + [b] + squares[split:])
            if a != b:
                orders.append([b] + squares[:split] + [a] + squares[split:])
    for heights in orders:
        for offset in range(2, h - 1):
            left, right, faces = 0, offset, []
            for p, q in heights:  # up the left column, down the right
                walk = [(left + s) % h for s in range(p + 1)]
                walk += [(right + s) % h for s in range(q, -1, -1)]
                faces.append(tuple(v + 1 for v in walk))
                left, right = left + p, right + q
            if _torus_faces_valid(faces, h, strict):
                assert sorted(map(len, faces)) == sorted(p + q + 2 for p, q in heights)
                return tuple(faces), offset
    return None


def _torus_faces_valid(faces, h, strict):
    if any(len(f) < 4 or len(set(f)) < len(f) for f in faces):
        return False
    if set().union(*faces) != set(range(1, h + 1)):
        return False
    on_faces = {}
    for idx, f in enumerate(faces):
        for u, v in zip(f, f[1:] + f[:1]):
            on_faces.setdefault(frozenset((u, v)), []).append(idx)
    if any(len(ids) != 2 or ids[0] == ids[1] for ids in on_faces.values()):
        return False
    if h - len(on_faces) + len(faces) != 0:
        return False
    A = np.zeros((h, h))
    for u, v in on_faces:
        A[u - 1, v - 1] = A[v - 1, u - 1] = 1
    if not np.linalg.matrix_power(A + np.eye(h), h).all():
        return False  # disconnected skeleton
    if not strict:
        return True
    for f in faces:
        rows = np.subtract(f, 1)
        if A[np.ix_(rows, rows)].sum() != 2 * len(f):
            return False  # a chord
    return np.trace(A @ A @ A) == 0
