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

from .graphs import Graph, ValidationError, stable_order
from .peel import TrussLabels, _critical_trials, _hook, degeneracy
from .triangles import _blocks, triangle_counts


def is_k_truss(G: Graph, k: int) -> bool:
    """True iff every edge lies on at least k triangles and no vertex is
    isolated. The empty graph passes vacuously."""
    if G.n == 0:
        return True
    if not G.degrees[1:].all():
        return False
    return int(triangle_counts(G, keep_listing=False).per_edge.min()) >= k


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
    return int(counts.per_edge.min()) >= k and _critical_trials(counts, k)[0]


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
    if G.m == 0:
        return BoundReport([BoundCheck("trussness_vs_edge_count", True, None, "no edges")])
    tau = np.asarray(labels.tau, np.int64)
    worst = _level_checks(G, tau)  # before the degeneracy builds the CSR: a lower peak
    e = int(np.argmax(tau))  # the first largest
    top, dg, m = int(tau[e]), degeneracy(G).degeneracy, G.m
    report = BoundReport()
    for name, margin, detail in (
        # (d) (2 tau + 3)^2 <= 8m + 1, i.e. tau <= sqrt(2m + 1/4) - 3/2
        ("trussness_vs_edge_count", (8 * m + 1) - (2 * top + 3) ** 2,
         f"(2*tau+3)^2 = {(2 * top + 3) ** 2} vs 8m+1 = {8 * m + 1}"),
        # (e) tau <= degeneracy - 1
        ("trussness_vs_degeneracy", (dg - 1) - top, f"max tau = {top} vs degeneracy-1 = {dg - 1}"),
    ):
        report.checks.append(BoundCheck(name, margin >= 0, margin, detail, _edge_name(G, e)))
    if not worst:
        worst["component_min_degree"] = BoundCheck(
            "component_min_degree", True, None, "no k-truss components (triangle-free)"
        )
    report.checks.extend(worst[name] for name in sorted(worst))
    return report


def _level_checks(G: Graph, tau: np.ndarray) -> dict[str, BoundCheck]:
    """The worst instance of each per-level component check: the smallest
    margin, ties to the lowest level, then the smallest component root (its
    smallest vertex), then the smallest vertex.

    Level k keeps the edges with tau >= k and the triangles whose smallest
    edge tau is >= k. One sweep from the top level down adds each level's
    edges to the per-vertex degree and smallest edge id, and joins their
    components with ``component_ids``' hooking: components only merge as k
    falls, so the roots carry down. A level that holds no edge is skipped:
    it has the components of the level above and a larger margin in every
    check. The triangles are listed once, from the edges on some level,
    and counted a block at a time into one slot per vertex and level up to
    that of its top edge: with exact labels a vertex on level k has degree
    above k, so the slots number at most 2m.
    """
    levels = np.sort(tau[tau > 0])
    levels = levels[np.diff(levels, prepend=0) > 0]  # each label above 0 once
    if not len(levels):
        return {}
    at = np.searchsorted(levels, tau, side="right") - 1  # each edge's level index, -1 below 1
    ends = G.ends
    span = np.zeros(G.n + 1, np.int64)  # the levels up to each vertex's top edge's
    np.maximum.at(span, ends.ravel(), np.repeat(at + 1, 2))
    base = np.cumsum(span) - span  # vertex x counts level i's triangles at base[x] + i
    fresh = np.zeros(int(span.sum()), np.int64)
    on = np.flatnonzero(at >= 0)  # a triangle through any other edge is on no level
    sub, at_on = (ends if len(on) == G.m else ends[on]), at[on]  # the edges on a level
    for opposite, edges in _blocks(sub, np.bincount(sub.ravel(), minlength=G.n + 1)):
        level = np.minimum(np.minimum(at_on[edges[:, 0]], at_on[edges[:, 1]]), at_on[edges[:, 2]])
        for x in opposite.T:
            np.add.at(fresh, base[x] + level, 1)
        del opposite, edges, level, x  # so the next block is built without them
    by_level = stable_order(at + 1, len(levels) + 1)
    cut = np.searchsorted(at[by_level], np.arange(len(levels) + 1))
    deg, tri = np.zeros(G.n + 1, np.int64), np.zeros(G.n + 1, np.int64)
    low, root = np.full(G.n + 1, G.m), np.arange(G.n + 1)
    active = np.empty(0, np.int64)
    worst: dict[str, BoundCheck] = {}
    for i in range(len(levels) - 1, -1, -1):
        k, new = int(levels[i]), by_level[cut[i] : cut[i + 1]]
        pair = ends[new]
        grow = np.sort(pair[deg[pair] == 0])  # the vertices this level adds
        active = np.sort(np.concatenate([active, grow[np.diff(grow, prepend=0) > 0]]))
        for x in pair.T:
            np.add.at(deg, x, 1)
            np.minimum.at(low, x, new)
        _hook(root, *pair.T, active)
        tri[active] += fresh[base[active] + i]
        vs = active[np.argsort(root[active], kind="stable")]  # by component, vertices ascending
        start = np.flatnonzero(np.diff(root[vs], prepend=-1))
        # Python ints where a bound could overflow int64, as labels past any trussness can
        kind = np.int64 if (k + 2) * k * len(vs) < 2**62 else object
        d, t = deg[vs].astype(kind), tri[vs].astype(kind)
        n_c = np.diff(start, append=len(vs)).astype(kind)
        first = np.minimum.reduceat(low[vs], start)  # each component's smallest edge id
        for name, seen, bound, text, of in (
            # (b) component has at least k+2 vertices
            ("component_vertex_count", n_c, k + 2, "component has {} vertices vs bound {}", first),
            # (f) edge count: 2 m_c >= (n_c - 1)(k + 2)
            ("component_edge_count", np.add.reduceat(d, start), (n_c - 1) * (k + 2),
             "2*m_c = {} vs (n_c-1)(k+2) = {}", first),
            # (f) triangle count: 6 t_c >= (n_c - 1)(k + 2) k
            ("component_triangle_count", 2 * np.add.reduceat(t, start), (n_c - 1) * (k + 2) * k,
             "6*t_c = {} vs (n_c-1)(k+2)k = {}", first),
            # (a) degree inside the component
            ("component_min_degree", d, k + 1, "deg = {} vs bound {}", vs),
            # (c) triangle support, equivalent to cc(v) >= C(k+1,2)/C(d,2)
            ("clustering_support", t, (k + 1) * k // 2, "triangles at v = {} vs C(k+1,2) = {}", vs),
        ):
            margins = seen - bound
            j = int(np.argmin(margins))  # the first smallest
            margin, w = int(margins[j]), int(of[j])
            if name in worst and margin > worst[name].margin:
                continue  # an equal margin moves to this lower level
            witness = f"vertex {G.labels[w]}" if of is vs else f"component of {_edge_name(G, w)}"
            detail = f"k={k}: " + text.format(seen[j], seen[j] - margin)
            worst[name] = BoundCheck(name, margin >= 0, margin, detail, witness)
    return worst
