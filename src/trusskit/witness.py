"""Truncated truss decomposition backed by randomized witness sums.

For L random vertex sets X_1..X_L the structure keeps, per edge e = (u, v),
the table entry S[e, l] = sum of ids of the residual common neighbors of u
and v that lie in X_l, plus the exact residual triangle count of e. When a
set isolates a single common neighbor, the row entry *is* that vertex's id,
so triangles through an edge can usually be recovered by scanning its row
instead of the neighborhoods; a deterministic fallback scan keeps the
output exact (and therefore seed-independent) when the row misses some.
Removing an edge subtracts the vanished endpoints' ids from the affected
rows, keeping the table consistent without recomputation. The truncated
decomposition is the exact peel's kernel (``peel._peel``) stopped after
round k_trunc, with enumeration plus removal as its removal step. It is
a library path, timed by ``bench --k-trunc``; ``truncated-truss`` stops
the exact peel after the same round instead.

Initialization reads the triangle listing block by block: each
triangle's vertex witnesses the edge opposite it, and every chunk of
(edge, witness) pairs adds each witness id to its edge's entries for the
sets holding it. That is O(m * avg degeneracy + 3T * q * L) expected work
for T triangles, with no dense adjacency matrix. Matrix mode, after the
heavy/light triangle generation of Bjorklund et al. (2014), leaves the
triangles whose three vertices all have high degree ("heavy") out of
that fold and adds them through matrix products on the heavy x heavy
block instead.
``init_witness`` refuses up front a configuration whose estimated
footprint, every array init allocates, exceeds the cap, or whose matrix
products exceed a multiply-add ceiling.

The state is single-threaded and mutable; the underlying Graph is shared
read-only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, ValidationError
from .peel import REMOVED, TrussLabels, _check_k_trunc, _peel
from .triangles import MEM_CAP_ENV, ResourceLimitError, mem_cap, out_wedges
from .triangles import _WEDGE_BLOCK, _blocks, _footprint as _listing_footprint

DEFAULT_SEED = 1729

_INIT_CHUNK = 1024  # (edge, witness) pairs folded per flush during init
_DRAW_BLOCK = 1 << 16  # float64 draws per block when sampling set membership
_INIT_MODES = ("direct", "matrix")
_MATRIX_MULADDS = 1 << 38  # multiply-adds matrix init's products may take


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


@dataclass
class EnumerationOutcome:
    """Result of enumerating the residual triangles of one edge.

    ``witnesses`` holds the third vertices; every entry is a verified
    residual common neighbor, and without fallback their number equals
    the edge's residual count. ``edges[i]`` holds the ids of the residual
    edges (u, w) and (v, w) for w = ``witnesses[i]``, (u, v) the edge's
    endpoints in ``G.ends`` order.
    """

    witnesses: list[int]
    edges: list[tuple[int, int]]


class WitnessState:
    """Mutable decomposition state: random sets, witness table, counts."""

    def __init__(self, G, cfg, L, q, xmat, S, delta, mem_estimate):
        self.G = G
        self.cfg = cfg
        self.L = L
        self.q = q
        self.xmat = xmat  # (n+1, L) bool; row 0 all False
        self.S = S  # (m, L) int64
        self.delta = delta  # (m,) int64, REMOVED sentinel
        self.mem_estimate = mem_estimate  # bytes; upper bound on init's peak
        self.adj = tuple(map(memoryview, G.csr))  # G's CSR, read as Python ints
        self.enumeration_calls = 0
        self.fallback_calls = 0


def _resolve(G: Graph, cfg: WitnessConfig) -> tuple[int, float, float]:
    n, m = G.n, G.m
    k = cfg.k_trunc
    _check_k_trunc(k, m)
    if cfg.init_mode not in _INIT_MODES:
        raise ValidationError(f"unknown init_mode {cfg.init_mode!r}")
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
    return L, q, b


def _footprint(G: Graph, L: int, heavy: np.ndarray | None) -> int:
    """Upper bound in bytes on what init_witness allocates, as tracemalloc
    counts it (array data plus object and slot overheads).

    Per vertex the bool membership and the int64 set ids of its
    memberships (9L at q = 1; the float64 draw, taken in row blocks of
    about _DRAW_BLOCK values and so never over 8L per vertex, is freed
    before the ids exist) and small arrays; per edge the table row and
    count, and G's CSR, which enumeration searches;
    the triangle listing, keeping no triangles, and a chunk of
    _INIT_CHUNK pairs, each with index bookkeeping and, per set holding
    its witness, six int64 temporaries. A chunk holds no more pairs than
    three per out-wedge of G, as each out-wedge closes at most one
    triangle, so a star, with none, is charged for none. Matrix mode
    (``heavy`` given) adds one block's copy without its all-heavy
    triangles, five float64
    h x h arrays for h heavy vertices and index arrays over the
    heavy-heavy edges; its edge-end and per-vertex arrays fit in the
    listing's share, freed before the products.
    """
    n1, m = G.n + 1, G.m
    total = 9 * n1 * L + 88 * n1 + 8 * m * L + 200 * m + 65536
    total += _listing_footprint(G, 0) + min(_INIT_CHUNK, 3 * out_wedges(G)) * (48 * L + 160)
    if heavy is not None:
        h = int(np.count_nonzero(heavy))
        total += 56 * _WEDGE_BLOCK + 40 * h * h + 64 * min(m, h * (h - 1) // 2)
    return total


def init_witness(G: Graph, cfg: WitnessConfig, _xmat=None) -> WitnessState:
    """Sample the random sets and build exact tables for the full graph.

    Both modes fold the triangle listing: each triangle vertex's id goes
    into the row entries of the opposite edge for the sets holding it,
    with no dense adjacency matrix. Matrix mode splits vertices into heavy
    and light at degree m^(1-b), skips the triangles whose three vertices
    are heavy in the fold, and adds those through classical (cubic) matrix
    products on the heavy x heavy block. Both produce identical tables.

    Raises ResourceLimitError, before allocating, when the ``_footprint``
    estimate (all of init, not just the table) exceeds ``mem_cap()``, the
    budget of the triangle listing too, or matrix products exceed
    ``_MATRIX_MULADDS``;
    the state keeps the footprint as ``mem_estimate``. ``_xmat`` injects
    explicit membership for tests.
    """
    L, q, b = _resolve(G, cfg)
    n, m = G.n, G.m
    heavy = None
    if cfg.init_mode == "matrix":
        heavy = G.degrees > m ** (1.0 - b)
        h = int(np.count_nonzero(heavy))
        muladds = h**3 * (L + 1)  # L + 1 h x h products, at most, for h heavy vertices
        if muladds > _MATRIX_MULADDS:
            raise ResourceLimitError(
                f"matrix init needs ~{muladds} multiply-adds ({h} heavy vertices, {L} sets), "
                f"over the {_MATRIX_MULADDS} ceiling; lower WitnessConfig.b "
                "or use init_mode='direct'"
            )
    needed, cap = _footprint(G, L, heavy), mem_cap()
    if needed > cap:
        raise ResourceLimitError(
            f"witness init needs ~{needed} bytes ({m} edges x {L} sets, "
            f"{cfg.init_mode} init), over the {cap}-byte cap; "
            f"raise {MEM_CAP_ENV}, or lower k_trunc or sets"
        )
    if _xmat is not None:
        xmat = np.asarray(_xmat, dtype=bool)
        if xmat.shape != (n + 1, L):
            raise ValidationError(f"explicit set matrix must be shape {(n + 1, L)}")
        xmat = xmat.copy()
    else:
        # row blocks of one generator continue its stream, so the sets are
        # those of a single (n+1) x L draw without holding it in float64
        rng = np.random.default_rng(cfg.seed)
        xmat = np.empty((n + 1, L), dtype=bool)
        rows = max(1, _DRAW_BLOCK // L)
        for lo in range(0, n + 1, rows):
            block = xmat[lo : lo + rows]
            np.less(rng.random(block.shape), q, out=block)
    xmat[0] = False
    # memberships in vertex order: the sets holding v are
    # set_ids[indptr[v]:indptr[v + 1]]
    set_ids = np.flatnonzero(xmat)
    set_ids %= L
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.count_nonzero(xmat, axis=1), out=indptr[1:])
    S = np.zeros((m, L), dtype=np.int64)
    delta = np.zeros(m, dtype=np.int64)
    for opposite, edges in _blocks(G.ends, G.degrees):
        if heavy is not None:
            x, y, z = heavy[opposite].T
            light = ~(x & y & z)
            opposite, edges = opposite[light], edges[light]
        es, ws = edges.ravel(), opposite.ravel()
        for lo in range(0, len(es), _INIT_CHUNK):
            hi = lo + _INIT_CHUNK
            _flush_pairs(S, delta, indptr, set_ids, es[lo:hi], ws[lo:hi])
    if heavy is not None:
        _add_heavy_triangles(G, xmat, heavy, S, delta)
    return WitnessState(G, cfg, L, q, xmat, S, delta, needed)


def _flush_pairs(S, delta, indptr, set_ids, E, W) -> None:
    """Fold (edge e, witness w) pairs into the counts and the table:
    delta[e] += 1, and S[e, l] += w for every set X_l holding w."""
    np.add.at(delta, E, 1)
    lo = indptr[W]
    lens = indptr[W + 1] - lo
    ends = np.cumsum(lens)
    # positions in set_ids of every pair's memberships, pair after pair
    pos = np.arange(ends[-1]) + np.repeat(lo - (ends - lens), lens)
    flat = np.repeat(E * S.shape[1], lens) + set_ids[pos]
    np.add.at(S.reshape(-1), flat, np.repeat(W, lens))


def _add_heavy_triangles(G, xmat, heavy, S, delta) -> None:
    """Add the triangles whose three vertices are heavy: with A the heavy x
    heavy adjacency, (A A)[u, v] counts them through edge (u, v), and
    (A_l (w * A_l)^T)[u, v], A_l keeping the columns of heavy w in X_l,
    sums their witness ids for set l."""
    ends = G.ends
    hh = np.flatnonzero(heavy[ends[:, 0]] & heavy[ends[:, 1]])
    if hh.size == 0:
        return
    hv = np.flatnonzero(heavy)
    iu, iv = (np.cumsum(heavy) - 1)[ends[hh]].T  # positions among heavy vertices
    A = np.zeros((hv.size, hv.size))
    A[iu, iv] = A[iv, iu] = 1.0
    delta[hh] += np.rint((A @ A)[iu, iv]).astype(np.int64)
    ids = hv.astype(np.float64)
    for ell in range(S.shape[1]):
        cols = np.flatnonzero(xmat[hv, ell])
        if cols.size == 0:
            continue
        B = A[:, cols]
        S[hh, ell] += np.rint((B @ (B * ids[cols]).T)[iu, iv]).astype(np.int64)


def enumerate_residual(state: WitnessState, e: int) -> EnumerationOutcome:
    """All residual triangles through residual edge e.

    The primary pass scans the witness row: any entry that is a valid
    vertex id and passes the residual-edge test for both endpoints is a
    confirmed witness. If the row does not account for every residual
    triangle, a scan of the smaller-degree endpoint's CSR row recovers the
    exact set. Edges are found by binary search in the CSR rows.
    """
    delta = state.delta
    if delta[e] == REMOVED:
        raise ValidationError(f"edge {e} already removed")
    G, adj = state.G, state.adj
    u, v = G.ends[e].tolist()
    target = int(delta[e])
    state.enumeration_calls += 1
    witnesses: list[int] = []
    edges: list[tuple[int, int]] = []
    if target > 0:
        seen = {u, v}
        for s in state.S[e].tolist():
            if s < 1 or s > G.n or s in seen:
                continue
            seen.add(s)
            f1 = _edge(adj, u, s)
            if f1 < 0 or delta[f1] == REMOVED:
                continue
            f2 = _edge(adj, v, s)
            if f2 < 0 or delta[f2] == REMOVED:
                continue
            witnesses.append(s)
            edges.append((f1, f2))
            if len(witnesses) == target:
                break
    if len(witnesses) < target:
        state.fallback_calls += 1
        flip = G.degrees[u] > G.degrees[v]  # scan from the smaller-degree end, u on a tie
        a, b = (v, u) if flip else (u, v)
        witnesses, edges = [], []
        ptr, nbr, slot = adj
        for w, f1 in zip(nbr[ptr[a] : ptr[a + 1]], slot[ptr[a] : ptr[a + 1]]):
            if w == b or delta[f1] == REMOVED:
                continue
            f2 = _edge(adj, b, w)
            if f2 < 0 or delta[f2] == REMOVED:
                continue
            witnesses.append(w)
            edges.append((f2, f1) if flip else (f1, f2))
    return EnumerationOutcome(witnesses, edges)


def _edge(adj, x: int, w: int) -> int:
    """Id of the edge (x, w), or -1: a binary search of x's CSR row."""
    ptr, nbr, slot = adj
    hi = ptr[x + 1]
    i = bisect_left(nbr, w, ptr[x], hi)
    return slot[i] if i < hi and nbr[i] == w else -1


def remove_edge(
    state: WitnessState, e: int, witnessed: EnumerationOutcome
) -> list[int]:
    """Remove edge e given its full residual triangle list, as
    ``enumerate_residual`` returned it.

    For every triangle (u, v, w) the two surviving edges, whose ids the
    list carries, lose one count, and the vanished endpoint's id is
    subtracted from their rows on the sets containing it. Returns the
    updated edge ids so the caller can re-examine their thresholds.
    """
    delta = state.delta
    if delta[e] == REMOVED:
        raise ValidationError(f"edge {e} removed twice")
    u, v = state.G.ends[e].tolist()
    S, lose_u, lose_v = state.S, state.xmat[u] * u, state.xmat[v] * v  # dense rows
    delta[e] = REMOVED
    affected: list[int] = []
    for w, (f_uw, f_vw) in zip(witnessed.witnesses, witnessed.edges):
        if delta[f_uw] == REMOVED or delta[f_vw] == REMOVED:
            raise ValidationError(
                f"witness list for edge {e} names non-residual triangle vertex {w}"
            )
        delta[f_uw] -= 1
        delta[f_vw] -= 1
        S[f_uw] -= lose_v
        S[f_vw] -= lose_u
        affected.append(f_uw)
        affected.append(f_vw)
    return affected


def truncated_decomposition(G: Graph, cfg: WitnessConfig) -> TrussLabels:
    """Exact tau(e) for every edge with tau below k_trunc; the rest are
    labelled with the lower bound k_trunc.

    Runs the exact peel's rounds, stopping after round k_trunc, with a
    removal step that enumerates each edge's triangles from the witness
    table. The randomness only affects how often the fallback scan runs,
    never the labels, so the output is seed-independent.
    """
    _check_k_trunc(cfg.k_trunc, G.m)
    if G.m == 0:
        return TrussLabels(np.zeros(0, np.int64), cfg.k_trunc)
    return run_rounds(init_witness(G, cfg))


def run_rounds(state: WitnessState) -> TrussLabels:
    """The peel's rounds 1..k_trunc on a state fresh from ``init_witness``;
    the state keeps the enumeration and fallback counters of the run."""
    k_trunc = state.cfg.k_trunc
    delta = state.delta

    def remove(e: int, k: int, stack: list[int]) -> int:
        affected = remove_edge(state, e, enumerate_residual(state, e))
        for f in affected:
            if delta[f] == k - 1:
                stack.append(f)
        return len(affected)

    tau, _ = _peel(delta, k_trunc, remove)
    return TrussLabels(np.frombuffer(tau, np.int64), k_trunc)
