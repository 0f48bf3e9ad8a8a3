"""Truss deciders and bound checks.

The k-truss and critical-k-truss deciders work from sparse per-edge
triangle counts. The critical test peels G - e for each edge e over one
triangle incidence and stops at the first edge g whose own peel emptied
G, as the k-truss of G - e lies in that of G - g: m full peels at worst.
The bound report evaluates the structural inequalities a correct
decomposition can never violate, from the labels and one pass over the
triangle listing. No path here builds an n x n array; the brute-force
oracles the tests compare against live with the tests.

All functions are read-only over Graph and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graphs as gr
from .graphs import Graph, ValidationError
from .peel import TrussLabels, _critical_trials
from .triangles import _blocks, triangle_counts


def is_k_truss(G: Graph, k: int) -> bool:
    """True iff every edge lies on at least k triangles and no vertex is
    isolated. The empty graph passes vacuously."""
    if G.n == 0:
        return True
    if not G.degrees[1:].all():
        return False
    return min(triangle_counts(G, keep_listing=False).per_edge) >= k


def is_critical_k_truss(G: Graph, k: int) -> bool:
    """True iff G is a k-truss and no nonempty proper edge subset induces one.

    The maximal k-truss is unique and monotone under taking subgraphs, so
    G is critical iff peeling G - e at threshold k empties it for every
    edge e. If that peel removes g, the k-truss of G - e lies in that of
    G - g, so it stops at the first g whose own peel emptied G. The worst
    case is still m full peels, O(m T) for T triangles.
    """
    if G.m == 0 or not G.degrees[1:].all():
        return False
    counts = triangle_counts(G)
    return min(counts.per_edge) >= k and _critical_trials(counts, k)[0]


# -- bound report ------------------------------------------------------------


@dataclass
class BoundCheck:
    """One verified inequality. ``margin`` is observed minus bound in the
    check's integer units (0 means tight); the witness names the vertex or
    edge realizing the worst margin."""

    name: str
    passed: bool
    margin: int | None
    detail: str
    witness: str | None = None


@dataclass
class BoundReport:
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[BoundCheck]:
        return [c for c in self.checks if not c.passed]


def _edge_name(G: Graph, e: int) -> str:
    u, v = G.ends[e].tolist()
    return f"edge {G.labels[u]}-{G.labels[v]}"


def bound_report(G: Graph, labels: TrussLabels) -> BoundReport:
    """Evaluate every structural bound implied by exact trussness labels.

    Covers, per k-level component: minimum degree k+1, at least k+2
    vertices, per-vertex triangle support C(k+1, 2) (equivalently the
    clustering-coefficient bound), edge count at least (n_c - 1)(1 + k/2)
    and triangle count at least (n_c - 1)(k + 2)k / 6; plus globally
    tau(e) vs sqrt(2m + 1/4) - 3/2 and tau(e) vs degeneracy - 1.
    Comparisons use integers only (square-root bounds are squared).
    """
    if labels.truncated_at is not None:
        raise ValidationError("bound report needs exact, untruncated labels")
    if len(labels.tau) != G.m:
        raise ValidationError("labels do not match graph")
    report = BoundReport()
    m = G.m
    if m == 0:
        report.checks.append(
            BoundCheck("trussness_vs_edge_count", True, None, "no edges")
        )
        return report
    tau = labels.tau
    # (d) (2 tau + 3)^2 <= 8m + 1, i.e. tau <= sqrt(2m + 1/4) - 3/2
    worst_e = max(range(m), key=lambda e: tau[e])
    margin_d = (8 * m + 1) - (2 * tau[worst_e] + 3) ** 2
    report.checks.append(
        BoundCheck(
            "trussness_vs_edge_count",
            margin_d >= 0,
            margin_d,
            f"(2*tau+3)^2 = {(2 * tau[worst_e] + 3) ** 2} vs 8m+1 = {8 * m + 1}",
            _edge_name(G, worst_e),
        )
    )
    # (e) tau <= degeneracy - 1
    dg = gr.degeneracy(G).degeneracy
    margin_e = (dg - 1) - tau[worst_e]
    report.checks.append(
        BoundCheck(
            "trussness_vs_degeneracy",
            margin_e >= 0,
            margin_e,
            f"max tau = {tau[worst_e]} vs degeneracy-1 = {dg - 1}",
            _edge_name(G, worst_e),
        )
    )
    # per-level component checks, aggregated to the worst instance of each
    # kind: the smallest margin, ties to the lowest level, then the first seen
    worst: dict[str, BoundCheck] = {}
    order: dict[str, tuple[int, int]] = {}

    def consider(name: str, margin: int, detail: str, witness: str):
        if name not in order or (margin, k) < order[name]:
            order[name] = (margin, k)
            worst[name] = BoundCheck(name, margin >= 0, margin, detail, witness)

    # Level k keeps the edges with tau >= k and the triangles whose smallest
    # edge tau is >= k. One sweep from the top level down adds each level's
    # edges to a union-find over the vertices, and its edges and triangles
    # to the per-vertex degree, smallest edge id and triangle count.
    max_tau = max(tau)
    edges_at: list[list[int]] = [[] for _ in range(max_tau + 1)]
    for e, t in enumerate(tau):
        edges_at[t].append(e)
    tris_at: list[list[np.ndarray]] = [[] for _ in range(max_tau + 1)]
    tau_arr = np.asarray(tau)
    for vertices, edges in _blocks(G):
        x, y, z = tau_arr[edges].T
        level = np.minimum(np.minimum(x, y), z)
        for lv in np.flatnonzero(np.bincount(level)).tolist():
            tris_at[lv].append(vertices[level == lv])
    ends = G.ends.tolist()
    parent = list(range(G.n + 1))
    deg = [0] * (G.n + 1)
    low = [m] * (G.n + 1)
    tri = [0] * (G.n + 1)
    active: list[int] = []
    for k in range(max_tau, 0, -1):
        for e in edges_at[k]:
            u, v = ends[e]
            for x in (u, v):
                if not deg[x]:
                    active.append(x)
                deg[x] += 1
                low[x] = min(low[x], e)
            parent[_find(parent, u)] = _find(parent, v)
        for block in tris_at[k]:
            for x in block.ravel().tolist():
                tri[x] += 1
        active.sort()
        comps: dict[int, list[int]] = {}
        for x in active:  # components by smallest vertex, vertices ascending
            comps.setdefault(_find(parent, x), []).append(x)
        for vs_c in comps.values():
            n_c = len(vs_c)
            m_c = sum(deg[v] for v in vs_c) // 2
            named = f"component of {_edge_name(G, min(low[v] for v in vs_c))}"
            # (b) component has at least k+2 vertices
            consider(
                "component_vertex_count",
                n_c - (k + 2),
                f"k={k}: component has {n_c} vertices vs bound {k + 2}",
                named,
            )
            # (f) edge count: 2 m_c >= (n_c - 1)(k + 2)
            consider(
                "component_edge_count",
                2 * m_c - (n_c - 1) * (k + 2),
                f"k={k}: 2*m_c = {2 * m_c} vs (n_c-1)(k+2) = {(n_c - 1) * (k + 2)}",
                named,
            )
            # (f) triangle count: 6 t_c >= (n_c - 1)(k + 2) k
            t_c = sum(tri[v] for v in vs_c) // 3
            consider(
                "component_triangle_count",
                6 * t_c - (n_c - 1) * (k + 2) * k,
                f"k={k}: 6*t_c = {6 * t_c} vs (n_c-1)(k+2)k = {(n_c - 1) * (k + 2) * k}",
                named,
            )
            for v in vs_c:
                # (a) degree inside the component
                consider(
                    "component_min_degree",
                    deg[v] - (k + 1),
                    f"k={k}: deg = {deg[v]} vs bound {k + 1}",
                    f"vertex {G.labels[v]}",
                )
                # (c) triangle support, equivalent to cc(v) >= C(k+1,2)/C(d,2)
                consider(
                    "clustering_support",
                    tri[v] - (k + 1) * k // 2,
                    f"k={k}: triangles at v = {tri[v]} vs C(k+1,2) = {(k + 1) * k // 2}",
                    f"vertex {G.labels[v]}",
                )
    if not worst:
        worst["component_min_degree"] = BoundCheck(
            "component_min_degree", True, None, "no k-truss components (triangle-free)"
        )
    report.checks.extend(worst[name] for name in sorted(worst))
    return report


def _find(parent: list[int], x: int) -> int:
    """Union-find root of x, halving the path on the way up."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x
