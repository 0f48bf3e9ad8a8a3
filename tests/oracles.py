"""Test-only reference computations, independent of the code paths they check."""

import numpy as np


def scratch_witness_table(state):
    """Witness table rebuilt from its definition over the residual graph."""
    G = state.G
    S = np.zeros_like(state.S)
    for e in range(G.m):
        if state.delta[e] < 0:
            continue
        u, v = G.edges[e]
        for w in G.vertices:
            if w == u or w == v:
                continue
            f1 = G.edge_id(u, w)
            f2 = G.edge_id(v, w)
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
    u, v = G.edges[e]
    out = []
    for w in G.vertices:
        if w == u or w == v:
            continue
        f1 = G.edge_id(u, w)
        f2 = G.edge_id(v, w)
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
    out = []
    for a in G.vertices:
        for b in range(a + 1, G.n + 1):
            if not G.has_edge(a, b):
                continue
            for c in range(b + 1, G.n + 1):
                if G.has_edge(a, c) and G.has_edge(b, c):
                    out.append((a, b, c))
    return out


DENSE_CAP = 400


def _dense(G, size):
    assert size <= DENSE_CAP + 1, f"dense oracle refused for {size} rows"
    A = np.zeros((size, size), dtype=np.float64)
    for u, v in G.edges:
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


def dense_suspend(G, k, added):
    """Greedy apex-edge removal on a dense matrix: every tentative removal
    re-runs the whole truss test. Returns (graph, receipt)."""
    from trusskit import ValidationError, from_edges
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

    def edge_name(e):
        u, v = G.edges[e]
        return f"edge {G.labels[u]}-{G.labels[v]}"

    for k in range(1, max(tau, default=0) + 1):
        level = {e for e in range(G.m) if tau[e] >= k}
        nbrs = {}
        for e in sorted(level):
            u, v = G.edges[e]
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
            edges_c = sorted(e for e in level if G.edges[e][0] in comp)
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
