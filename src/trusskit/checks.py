"""Brute-force oracles and bound checkers.

Everything here is ground truth for the rest of the package: the triangle
oracle scans all vertex triples, the decomposition oracle re-derives every
count from scratch on each pass, and the bound report evaluates the
structural inequalities a correct decomposition can never violate. The
internal subgraph statistics are computed on dense adjacency matrices, a
representation deliberately different from the incremental peeling path.

All functions are read-only over Graph and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from . import graphs as gr
from .graphs import Graph, ValidationError
from .peel import TrussLabels, k_truss_components, peel_to_fixed_point
from .triangles import TriangleCounts, triangle_counts

DEFAULT_CAP = 200


class CapExceeded(Exception):
    """Input too large for a brute-force oracle."""


def _dense_adjacency(G: Graph) -> np.ndarray:
    A = np.zeros((G.n + 1, G.n + 1), dtype=np.float64)
    for v in G.vertices:
        nbrs = G.adj[v]
        if nbrs:
            A[v, list(nbrs)] = 1.0
    return A


def _edge_arrays(edges) -> tuple[np.ndarray, np.ndarray]:
    us = np.array([u for u, _ in edges], dtype=np.int64)
    vs = np.array([v for _, v in edges], dtype=np.int64)
    return us, vs


def brute_force_triangles(G: Graph, cap: int = DEFAULT_CAP) -> TriangleCounts:
    """Exact counts by scanning all vertex triples. O(n^3), capped."""
    if G.n > cap:
        raise CapExceeded(f"brute-force triangle scan refused for n={G.n} > cap={cap}")
    per_edge = [0] * G.m
    per_vertex = [0] * (G.n + 1)
    total = 0
    eid = G.edge_id
    n = G.n
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            eab = eid(a, b)
            if eab is None:
                continue
            for c in range(b + 1, n + 1):
                ebc = eid(b, c)
                if ebc is None:
                    continue
                eac = eid(a, c)
                if eac is None:
                    continue
                total += 1
                per_edge[eab] += 1
                per_edge[ebc] += 1
                per_edge[eac] += 1
                per_vertex[a] += 1
                per_vertex[b] += 1
                per_vertex[c] += 1
    return TriangleCounts(per_edge, per_vertex, total)


def oracle_truss_decomposition(G: Graph, cap: int = DEFAULT_CAP) -> TrussLabels:
    """Naive decomposition: for k = 1, 2, ... repeatedly recompute every
    residual edge's triangle count from scratch and delete all edges below
    k until stable. Edges deleted at round k get tau = k - 1."""
    if G.n > cap:
        raise CapExceeded(f"oracle decomposition refused for n={G.n} > cap={cap}")
    m = G.m
    tau = [0] * m
    if m == 0:
        return TrussLabels([], [], None)
    A = _dense_adjacency(G)
    us, vs = _edge_arrays(G.edges)
    alive = np.ones(m, dtype=bool)
    k = 1
    guard = isqrt(2 * m) + 2
    while alive.any():
        assert k <= guard, "oracle failed to terminate"
        while True:
            counts = (A @ A)[us, vs]
            low = alive & (counts < k)
            if not low.any():
                break
            for e in np.flatnonzero(low):
                tau[e] = k - 1
                A[us[e], vs[e]] = 0.0
                A[vs[e], us[e]] = 0.0
            alive &= ~low
        k += 1
    return TrussLabels(tau, [True] * m, None)


def is_k_truss(G: Graph, k: int) -> bool:
    """True iff every edge lies on at least k triangles and no vertex is
    isolated. The empty graph passes vacuously."""
    if G.n == 0:
        return True
    if any(G.degree(v) == 0 for v in G.vertices):
        return False
    if G.m == 0:
        return False
    A = _dense_adjacency(G)
    us, vs = _edge_arrays(G.edges)
    counts = (A @ A)[us, vs]
    return bool((counts >= k).all())


def _matrix_is_k_truss(A: np.ndarray, active: np.ndarray, k: int) -> bool:
    """Truss test on a dense adjacency matrix; ``active`` lists the
    vertices that must not be isolated. Used by the suspension builder."""
    deg = A.sum(axis=1)
    if (deg[active] == 0).any():
        return False
    us, vs = np.nonzero(np.triu(A))
    if us.size == 0:
        return active.size == 0
    counts = (A @ A)[us, vs]
    return bool((counts >= k).all())


def is_k_truss_scalar(G: Graph, k: int) -> bool:
    """Pure-Python restatement of is_k_truss; kept as a cross-check."""
    if G.n == 0:
        return True
    if any(G.degree(v) == 0 for v in G.vertices) or G.m == 0:
        return False
    return all(c >= k for c in triangle_counts(G).per_edge)


def is_critical_k_truss(G: Graph, k: int) -> bool:
    """True iff G is a k-truss and no nonempty proper edge subset induces one.

    Decided by m single-edge deletions: the maximal k-truss edge set is
    unique and monotone under taking subgraphs, so any nonempty proper
    witness subset would survive peeling inside G minus some edge, and
    conversely criticality forces every such peel to empty out.
    """
    if G.m == 0:
        return False
    if not is_k_truss(G, k):
        return False
    base = triangle_counts(G).per_edge
    for e in range(G.m):
        if peel_to_fixed_point(G, k, pre_removed=(e,), base_delta=base):
            return False
    return True


def is_critical_k_truss_exhaustive(G: Graph, k: int, max_edges: int = 20) -> bool:
    """Subset-enumeration restatement of criticality (the oracle's oracle).

    Walks all nonempty proper edge subsets, so it refuses anything past
    ``max_edges`` edges.
    """
    m = G.m
    if m > max_edges:
        raise CapExceeded(f"subset enumeration refused for m={m} > {max_edges}")
    if m == 0:
        return False
    if not is_k_truss(G, k):
        return False
    tri_edge_masks: list[tuple[int, tuple[int, int, int]]] = []
    eid = G.edge_id
    for a in range(1, G.n + 1):
        for b in range(a + 1, G.n + 1):
            eab = eid(a, b)
            if eab is None:
                continue
            for c in range(b + 1, G.n + 1):
                ebc = eid(b, c)
                eac = eid(a, c)
                if ebc is None or eac is None:
                    continue
                mask = (1 << eab) | (1 << ebc) | (1 << eac)
                tri_edge_masks.append((mask, (eab, ebc, eac)))
    full = (1 << m) - 1
    for subset in range(1, full):
        counts = [0] * m
        for mask, tri in tri_edge_masks:
            if mask & subset == mask:
                for e in tri:
                    counts[e] += 1
        ok = True
        for e in range(m):
            if subset >> e & 1 and counts[e] < k:
                ok = False
                break
        if ok:
            return False  # found a smaller k-truss
    return True


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
    u, v = G.edges[e]
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
    if not labels.all_exact or labels.truncated_at is not None:
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
    # per-level component checks, aggregated to the worst instance of each kind
    worst: dict[str, BoundCheck] = {}

    def consider(name: str, margin: int, detail: str, witness: str):
        cur = worst.get(name)
        if cur is None or margin < cur.margin:
            worst[name] = BoundCheck(name, margin >= 0, margin, detail, witness)

    max_tau = max(tau)
    A_full = _dense_adjacency(G)
    for k in range(1, max_tau + 1):
        # components by smallest vertex, so ties keep naming the same witness
        comps = sorted(
            (sorted({x for e in comp for x in G.edges[e]}), comp)
            for comp in k_truss_components(G, k, labels)
        )
        if not comps:
            continue
        Ak = np.zeros_like(A_full)
        for _, comp in comps:
            for e in comp:
                u, v = G.edges[e]
                Ak[u, v] = Ak[v, u] = 1.0
        sq = Ak @ Ak
        deg_k = Ak.sum(axis=1)
        for vs_c, edges_c in comps:
            tri_v = {v: int(round((sq[v] * Ak[v]).sum())) // 2 for v in vs_c}
            n_c = len(vs_c)
            m_c = len(edges_c)
            # (b) component has at least k+2 vertices
            consider(
                "component_vertex_count",
                n_c - (k + 2),
                f"k={k}: component has {n_c} vertices vs bound {k + 2}",
                f"component of {_edge_name(G, edges_c[0])}",
            )
            # (f) edge count: 2 m_c >= (n_c - 1)(k + 2)
            consider(
                "component_edge_count",
                2 * m_c - (n_c - 1) * (k + 2),
                f"k={k}: 2*m_c = {2 * m_c} vs (n_c-1)(k+2) = {(n_c - 1) * (k + 2)}",
                f"component of {_edge_name(G, edges_c[0])}",
            )
            # (f) triangle count: 6 t_c >= (n_c - 1)(k + 2) k
            t_c = sum(tri_v[v] for v in vs_c) // 3
            consider(
                "component_triangle_count",
                6 * t_c - (n_c - 1) * (k + 2) * k,
                f"k={k}: 6*t_c = {6 * t_c} vs (n_c-1)(k+2)k = {(n_c - 1) * (k + 2) * k}",
                f"component of {_edge_name(G, edges_c[0])}",
            )
            for v in vs_c:
                d_v = int(round(deg_k[v]))
                # (a) degree inside the component
                consider(
                    "component_min_degree",
                    d_v - (k + 1),
                    f"k={k}: deg = {d_v} vs bound {k + 1}",
                    f"vertex {G.labels[v]}",
                )
                # (c) triangle support, equivalent to cc(v) >= C(k+1,2)/C(d,2)
                consider(
                    "clustering_support",
                    tri_v[v] - (k + 1) * k // 2,
                    f"k={k}: triangles at v = {tri_v[v]} vs C(k+1,2) = {(k + 1) * k // 2}",
                    f"vertex {G.labels[v]}",
                )
    if not worst:
        worst["component_min_degree"] = BoundCheck(
            "component_min_degree", True, None, "no k-truss components (triangle-free)"
        )
    report.checks.extend(worst[name] for name in sorted(worst))
    return report
