"""Truncated truss decomposition backed by randomized witness sums.

For L random vertex sets X_1..X_L the structure keeps, per edge e = (u, v),
the table entry S[e, l] = sum of ids of the residual common neighbors of u
and v that lie in X_l, plus the exact residual triangle count of e. When a
set isolates a single common neighbor, the row entry *is* that vertex's id,
so triangles through an edge can usually be recovered by scanning its row
instead of the neighborhoods; a deterministic fallback scan keeps the
output exact (and therefore seed-independent) when the row misses some.
Removing an edge subtracts the vanished endpoints' ids from the affected
rows, keeping the table consistent without recomputation.

Direct initialization intersects each edge's endpoint neighbor sets (a
scan of the smaller-degree side, as in triangle counting) and streams the
(edge, witness) pairs through a fixed-size buffer; each flush adds every
witness id to its edge's entries for the sets holding it. That is
O(m * avg degeneracy + 3T * q * L) expected work for T triangles, with no
dense adjacency matrix. ``init_witness`` refuses up front a configuration
whose estimated footprint, every array init allocates, exceeds the cap.

The state is single-threaded and mutable; the underlying Graph is shared
read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, ValidationError
from .peel import REMOVED, TrussLabels
from .triangles import ordered_endpoints

DEFAULT_SEED = 1729
DEFAULT_MEM_CAP = 4 * 2**30  # bytes init_witness may allocate in the CLI

_INIT_CHUNK = 1024  # (edge, witness) pairs buffered per flush during direct init
_INIT_MODES = ("direct", "matrix")


class ResourceLimitError(Exception):
    """Configuration would exceed the configured memory budget."""


@dataclass(frozen=True)
class WitnessConfig:
    """Parameters of the witness structure.

    ``sets`` (L) defaults to ceil(10 * k_trunc * ln n) and ``prob`` (q) to
    1/k_trunc; the log is natural, which is what makes the miss
    probability per vertex polynomially small. ``b`` steers the
    heavy/light degree split of matrix-mode initialization and defaults
    to max(a, 2/3) with a = log_m(k_trunc).
    """

    k_trunc: int
    seed: int = DEFAULT_SEED
    sets: int | None = None
    prob: float | None = None
    b: float | None = None
    init_mode: str = "direct"
    mem_cap_bytes: int = DEFAULT_MEM_CAP


@dataclass
class EnumerationOutcome:
    """Result of enumerating the residual triangles of one edge.

    ``witnesses`` holds the third vertices; every entry is a verified
    residual common neighbor, and without fallback their number equals
    the edge's residual count.
    """

    witnesses: list[int]
    used_fallback: bool
    candidates_tested: int


class WitnessState:
    """Mutable decomposition state: random sets, witness table, counts."""

    def __init__(self, G, cfg, L, q, a, b, xmat, sets, S, delta, heavy, mem_estimate):
        self.G = G
        self.cfg = cfg
        self.L = L
        self.q = q
        self.a = a
        self.b = b
        self.xmat = xmat  # (n+1, L) bool; row 0 all False
        self.sets = sets  # sets[v] = indices l with v in X_l
        self.S = S  # (m, L) int64
        self.delta = delta  # (m,) int64, REMOVED sentinel
        self.heavy = heavy  # (n+1,) bool
        self.mem_estimate = mem_estimate  # bytes; upper bound on init's peak
        self._stamp = np.zeros(G.n + 1, dtype=np.int64)
        self._tick = 0
        self.enumeration_calls = 0
        self.fallback_calls = 0

    def residual_edges(self) -> list[int]:
        return [e for e in range(self.G.m) if self.delta[e] != REMOVED]


def _truncation_cap(m: int) -> int:
    cap = math.isqrt(2 * m)
    if cap * cap < 2 * m:
        cap += 1
    return cap


def _resolve(G: Graph, cfg: WitnessConfig) -> tuple[int, float, float, float]:
    n, m = G.n, G.m
    k = cfg.k_trunc
    if k < 1:
        raise ValidationError("k_trunc must be positive")
    if cfg.init_mode not in _INIT_MODES:
        raise ValidationError(f"unknown init_mode {cfg.init_mode!r}")
    if k > _truncation_cap(m):
        raise ValidationError(
            f"k_trunc={k} exceeds ceil(sqrt(2m))={_truncation_cap(m)} for m={m}"
        )
    q = cfg.prob if cfg.prob is not None else 1.0 / k
    if not (0.0 < q <= 1.0):
        raise ValidationError(f"inclusion probability q={q} outside (0, 1]")
    L = cfg.sets if cfg.sets is not None else math.ceil(10 * k * math.log(max(n, 2)))
    if L < 1:
        raise ValidationError("number of random sets must be at least 1")
    if k == 1:
        a = 0.0
    elif m > 1:
        a = math.log(k) / math.log(m)
    else:
        a = 1.0
    b = cfg.b if cfg.b is not None else max(a, 2.0 / 3.0)
    if not (a - 1e-12 <= b <= 1.0 + 1e-12):
        raise ValidationError(f"b={b} outside [a, 1] with a={a:.4f}")
    return L, q, a, b


def _footprint(G: Graph, L: int, degrees: np.ndarray, heavy: np.ndarray, mode: str) -> int:
    """Upper bound in bytes on what init_witness allocates, as tracemalloc
    counts it (array data plus object and slot overheads).

    Always: per vertex the bool membership and the membership lists (9L
    at q = 1; the float64 draw, 8L, is freed before the lists exist) and
    small arrays; per edge the table row and count. Direct mode: neighbor sets (<= 128 bytes per entry), one
    common-neighbor set, and a buffer of at most _INIT_CHUNK + max-degree
    pairs, each with list and index bookkeeping and, per set holding its
    witness, six int64 temporaries. Matrix mode: five float64 h x h arrays
    for h heavy vertices and index lists over the heavy-heavy edges.
    """
    n1, m = G.n + 1, G.m
    total = 9 * n1 * L + 160 * n1 + 8 * m * L + 8 * m + 65536
    if mode == "direct":
        dmax = int(degrees.max())
        pairs = min(_INIT_CHUNK + dmax, m * dmax)
        total += 216 * n1 + 256 * m + 128 * dmax + pairs * (48 * L + 160)
    else:
        h = int(np.count_nonzero(heavy))
        total += 40 * h * h + 160 * min(m, h * (h - 1) // 2) + 256 * h
    return total


def init_witness(G: Graph, cfg: WitnessConfig, _xmat=None) -> WitnessState:
    """Sample the random sets and build exact tables for the full graph.

    Direct mode intersects each edge's endpoint neighbor sets and adds
    every common neighbor's id to the row entries of the sets holding it,
    never forming a dense adjacency matrix. Matrix mode splits vertices
    into heavy and light at degree m^(1-b), finds triangles with a light
    vertex by scanning light vertices' edge pairs, and heavy-only
    triangles through classical (cubic) matrix products on the heavy x
    heavy block, built from the heavy vertices' adjacency lists. Both
    produce identical tables.

    Raises ResourceLimitError, before allocating, when the ``_footprint``
    estimate (all of init, not just the table) exceeds
    ``cfg.mem_cap_bytes``; the returned state keeps it as
    ``mem_estimate``. ``_xmat`` injects explicit membership for tests.
    """
    L, q, a, b = _resolve(G, cfg)
    n, m = G.n, G.m
    degrees = np.fromiter(map(len, G.adj), dtype=np.int64, count=n + 1)
    heavy = degrees > m ** (1.0 - b)
    needed = _footprint(G, L, degrees, heavy, cfg.init_mode)
    if needed > cfg.mem_cap_bytes:
        raise ResourceLimitError(
            f"witness init needs ~{needed} bytes ({m} edges x {L} sets, "
            f"{cfg.init_mode} init), over the {cfg.mem_cap_bytes}-byte cap; "
            "raise --mem-cap or lower k_trunc / --sets"
        )
    if _xmat is not None:
        xmat = np.asarray(_xmat, dtype=bool)
        if xmat.shape != (n + 1, L):
            raise ValidationError(f"explicit set matrix must be shape {(n + 1, L)}")
        xmat = xmat.copy()
    else:
        rng = np.random.default_rng(cfg.seed)
        xmat = rng.random((n + 1, L)) < q
    xmat[0] = False
    # memberships in vertex order: the sets holding v are
    # set_ids[indptr[v]:indptr[v + 1]]
    set_ids = np.flatnonzero(xmat)
    set_ids %= L
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.count_nonzero(xmat, axis=1), out=indptr[1:])
    sets = np.split(set_ids, indptr[1:-1])
    if cfg.init_mode == "direct":
        S, delta = _init_direct(G, indptr, set_ids, L)
    else:
        S, delta = _init_matrix(G, xmat, sets, heavy)
    return WitnessState(G, cfg, L, q, a, b, xmat, sets, S, delta, heavy, needed)


def _init_direct(
    G: Graph, indptr: np.ndarray, set_ids: np.ndarray, L: int
) -> tuple[np.ndarray, np.ndarray]:
    m = G.m
    S = np.zeros((m, L), dtype=np.int64)
    delta = np.zeros(m, dtype=np.int64)
    nbrs = [set(a) for a in G.adj]
    es: list[int] = []
    ws: list[int] = []  # ws[i] is a common neighbor of the endpoints of edge es[i]
    for e, (u, v) in enumerate(G.edges):
        common = nbrs[u] & nbrs[v]  # iterates the smaller set, probes the other
        if common:
            es.extend([e] * len(common))
            ws.extend(common)
            if len(es) >= _INIT_CHUNK:
                _flush_pairs(S, delta, indptr, set_ids, es, ws)
                es.clear()
                ws.clear()
    if es:
        _flush_pairs(S, delta, indptr, set_ids, es, ws)
    return S, delta


def _flush_pairs(S, delta, indptr, set_ids, es, ws) -> None:
    """Fold buffered (edge e, witness w) pairs into the counts and the
    table: delta[e] += 1, and S[e, l] += w for every set X_l holding w."""
    E = np.array(es, dtype=np.int64)
    W = np.array(ws, dtype=np.int64)
    np.add.at(delta, E, 1)
    lo = indptr[W]
    lens = indptr[W + 1] - lo
    ends = np.cumsum(lens)
    # positions in set_ids of every pair's memberships, pair after pair
    pos = np.arange(ends[-1]) + np.repeat(lo - (ends - lens), lens)
    flat = np.repeat(E * S.shape[1], lens) + set_ids[pos]
    np.add.at(S.reshape(-1), flat, np.repeat(W, lens))


def _init_matrix(
    G: Graph, xmat: np.ndarray, sets: list[np.ndarray], heavy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    m, L = G.m, xmat.shape[1]
    S = np.zeros((m, L), dtype=np.int64)
    delta = np.zeros(m, dtype=np.int64)
    if m == 0:
        return S, delta
    eid = G.edge_id
    # triangles with at least one light vertex: loop light vertices over
    # incident edge pairs, handling each triangle at its smallest light vertex
    for w in G.vertices:
        if heavy[w]:
            continue
        nbrs = G.adj[w]
        d = len(nbrs)
        for i in range(d):
            u = nbrs[i]
            if not heavy[u] and u < w:
                continue
            for j in range(i + 1, d):
                v = nbrs[j]
                if not heavy[v] and v < w:
                    continue
                e_uv = eid(u, v)
                if e_uv is None:
                    continue
                e_uw = eid(u, w)
                e_vw = eid(v, w)
                delta[e_uv] += 1
                delta[e_uw] += 1
                delta[e_vw] += 1
                S[e_uv, sets[w]] += w
                S[e_uw, sets[v]] += v
                S[e_vw, sets[u]] += u
    # heavy-only triangles via products on the heavy x heavy block
    hh_edges = [e for e, (u, v) in enumerate(G.edges) if heavy[u] and heavy[v]]
    if hh_edges:
        hv = np.flatnonzero(heavy)
        pos = {int(v): i for i, v in enumerate(hv)}
        Ah = np.zeros((hv.size, hv.size))
        for i, v in enumerate(hv.tolist()):
            Ah[i, [pos[w] for w in G.adj[v] if w in pos]] = 1.0
        iu = np.array([pos[G.edges[e][0]] for e in hh_edges])
        iv = np.array([pos[G.edges[e][1]] for e in hh_edges])
        counts = Ah @ Ah.T
        delta[hh_edges] += np.rint(counts[iu, iv]).astype(np.int64)
        ids_h = hv.astype(np.float64)
        for ell in range(L):
            cols = np.flatnonzero(xmat[hv, ell])
            if cols.size == 0:
                continue
            B = Ah[:, cols]
            Bw = B * ids_h[cols]  # weight columns by the witness id
            contrib = B @ Bw.T
            S[hh_edges, ell] += np.rint(contrib[iu, iv]).astype(np.int64)
    return S, delta


def enumerate_residual(state: WitnessState, e: int) -> EnumerationOutcome:
    """All residual triangles through residual edge e.

    The primary pass scans the witness row: any entry that is a valid
    vertex id and passes the residual-edge test for both endpoints is a
    confirmed witness. If the row does not account for every residual
    triangle, a scan of the smaller-degree endpoint's adjacency recovers
    the exact set.
    """
    delta = state.delta
    if delta[e] == REMOVED:
        raise ValidationError(f"edge {e} already removed")
    G = state.G
    n = G.n
    u, v = G.edges[e]
    target = int(delta[e])
    state.enumeration_calls += 1
    state._tick += 1
    tick = state._tick
    stamp = state._stamp
    eid = G.edge_id
    witnesses: list[int] = []
    tested = 0
    if target > 0:
        for s in state.S[e].tolist():
            if s < 1 or s > n:
                continue
            tested += 1
            if stamp[s] == tick:
                continue
            stamp[s] = tick
            if s == u or s == v:
                continue
            f1 = eid(u, s)
            if f1 is None or delta[f1] == REMOVED:
                continue
            f2 = eid(v, s)
            if f2 is None or delta[f2] == REMOVED:
                continue
            witnesses.append(s)
            if len(witnesses) == target:
                break
    if len(witnesses) < target:
        state.fallback_calls += 1
        a, b = ordered_endpoints(G, e)
        witnesses = []
        for w in G.adj[a]:
            if w == b or delta[eid(a, w)] == REMOVED:
                continue
            f2 = eid(b, w)
            if f2 is None or delta[f2] == REMOVED:
                continue
            witnesses.append(w)
        return EnumerationOutcome(witnesses, True, tested)
    return EnumerationOutcome(witnesses, False, tested)


def remove_edge(
    state: WitnessState, e: int, witnessed: EnumerationOutcome
) -> list[int]:
    """Remove edge e given its full residual triangle list.

    For every triangle (u, v, w) the two surviving edges lose one count,
    and the vanished endpoint's id is subtracted from their rows on the
    sets containing it. Returns the updated edge ids so the caller can
    re-examine their thresholds.
    """
    delta = state.delta
    if delta[e] == REMOVED:
        raise ValidationError(f"edge {e} removed twice")
    G = state.G
    u, v = G.edges[e]
    eid = G.edge_id
    S = state.S
    sets = state.sets
    delta[e] = REMOVED
    affected: list[int] = []
    for w in witnessed.witnesses:
        f_uw = eid(u, w)
        f_vw = eid(v, w)
        if f_uw is None or f_vw is None or delta[f_uw] == REMOVED or delta[f_vw] == REMOVED:
            raise ValidationError(
                f"witness list for edge {e} names non-residual triangle vertex {w}"
            )
        delta[f_uw] -= 1
        delta[f_vw] -= 1
        S[f_uw, sets[v]] -= v
        S[f_vw, sets[u]] -= u
        affected.append(f_uw)
        affected.append(f_vw)
    return affected


_EMPTY_OUTCOME = EnumerationOutcome([], False, 0)


def truncated_decomposition(G: Graph, cfg: WitnessConfig) -> TrussLabels:
    """Exact tau(e) for every edge with tau below k_trunc; the rest are
    labelled with the lower bound k_trunc.

    Rounds follow the same stack/scan-list discipline as the full peeler,
    stopping after round k_trunc. The randomness only affects how often
    the fallback scan runs, never the labels, so the output is
    seed-independent.
    """
    m = G.m
    k_trunc = cfg.k_trunc
    if k_trunc < 1:
        raise ValidationError("k_trunc must be positive")
    if m == 0:
        return TrussLabels([], [], k_trunc)
    state = init_witness(G, cfg)
    return _run_rounds(state)


def _run_rounds(state: WitnessState) -> TrussLabels:
    G = state.G
    m = G.m
    k_trunc = state.cfg.k_trunc
    delta = state.delta
    tau = [k_trunc] * m
    exact = [False] * m
    scan_list = list(range(m))
    stack: list[int] = []
    residual = m
    for k in range(1, k_trunc + 1):
        i = 0
        while i < len(scan_list):
            e = scan_list[i]
            de = delta[e]
            if de == REMOVED:
                scan_list[i] = scan_list[-1]
                scan_list.pop()
                continue
            if k == 1 and de == 0:
                remove_edge(state, e, _EMPTY_OUTCOME)
                tau[e] = 0
                exact[e] = True
                residual -= 1
                scan_list[i] = scan_list[-1]
                scan_list.pop()
                continue
            if de == k - 1:
                stack.append(e)
            i += 1
        while stack:
            e = stack.pop()
            outcome = enumerate_residual(state, e)
            affected = remove_edge(state, e, outcome)
            tau[e] = k - 1
            exact[e] = True
            residual -= 1
            for f in affected:
                if delta[f] == k - 1:
                    stack.append(f)
        if residual == 0:
            break
    return TrussLabels(tau, exact, k_trunc)


def instrumented_truncated_decomposition(
    G: Graph, cfg: WitnessConfig
) -> tuple[TrussLabels, WitnessState]:
    """Like truncated_decomposition but also returns the final state
    (enumeration/fallback counters, residual table) for benchmarks."""
    m = G.m
    if cfg.k_trunc < 1:
        raise ValidationError("k_trunc must be positive")
    if m == 0:
        raise ValidationError("instrumented run needs at least one edge")
    state = init_witness(G, cfg)
    labels = _run_rounds(state)
    return labels, state
