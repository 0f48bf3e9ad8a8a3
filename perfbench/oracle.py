"""Checks of trusskit's outputs that share no code with trusskit.

Every check raises CheckFailed with a one-line reason. Graphs are handled
as integer label arrays and scipy.sparse matrices, a representation
trusskit does not use, so a fault in the program cannot hide in a shared
helper.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def parse_edges(text: bytes) -> np.ndarray:
    """Integer-labelled "u v" lines as an (m, 2) int64 array."""
    toks = text.split()
    if len(toks) % 2:
        raise CheckFailed("edge list has an odd number of tokens")
    return np.array(toks, dtype=np.int64).reshape(-1, 2)


def edge_keys(edges: np.ndarray, base: int) -> np.ndarray:
    """One int64 key per unordered pair, for set comparisons."""
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return lo * base + hi


def _compact(edges: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Vertex count and 0-based endpoint arrays."""
    labels, inv = np.unique(edges.ravel(), return_inverse=True)
    inv = inv.reshape(-1, 2)
    return labels.size, inv[:, 0], inv[:, 1]


def _adjacency(n: int, us: np.ndarray, vs: np.ndarray) -> sp.csr_array:
    ones = np.ones(2 * us.size, dtype=np.int32)
    return sp.csr_array(
        (ones, (np.concatenate([us, vs]), np.concatenate([vs, us]))), shape=(n, n)
    )


def _support(A: sp.csr_array, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """((A @ A) * A) at the given edges, as row products A[u] * A[v]."""
    if us.size == 0:
        return np.zeros(0, dtype=np.int64)
    return np.asarray(A[us].multiply(A[vs]).sum(axis=1)).ravel().astype(np.int64)


def min_degree_sum(edges: np.ndarray) -> int:
    """Sum over edges of the smaller endpoint degree: m times the average
    degeneracy, the paper's work bound for the peel."""
    n, us, vs = _compact(edges)
    deg = np.bincount(np.concatenate([us, vs]), minlength=n)
    return int(np.minimum(deg[us], deg[vs]).sum())


def triangle_total(edges: np.ndarray) -> int:
    """Number of triangles: the supports sum to three per triangle."""
    n, us, vs = _compact(edges)
    return int(_support(_adjacency(n, us, vs), us, vs).sum() // 3)


def level_peel(edges: np.ndarray, k_stop: int | None = None) -> np.ndarray:
    """Trussness per input edge by a sparse level peel.

    For k = 1, 2, ... it recomputes the support of the surviving edges
    and drops every edge below k until none is below k; an edge dropped
    at level k has trussness k - 1. After a drop only the edges that share
    an endpoint with a dropped edge are recomputed, since no other
    support can change. With ``k_stop`` the peel ends after level k_stop
    and edges still alive read -1.
    """
    n, us, vs = _compact(edges)
    m = us.size
    tau = np.full(m, -1, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    k = 1
    while alive.any() and (k_stop is None or k <= k_stop):
        check = np.flatnonzero(alive)
        while check.size:
            keep = np.flatnonzero(alive)
            A = _adjacency(n, us[keep], vs[keep])
            low = check[_support(A, us[check], vs[check]) < k]
            if low.size == 0:
                break
            tau[low] = k - 1
            alive[low] = False
            touched = np.zeros(n, dtype=bool)
            touched[us[low]] = True
            touched[vs[low]] = True
            check = np.flatnonzero(alive & (touched[us] | touched[vs]))
        k += 1
    return tau


def _rows(output: bytes, width: int) -> list[list[bytes]]:
    toks = output.split()
    if len(toks) % width:
        raise CheckFailed(f"output is not {width}-column rows")
    return [toks[i : i + width] for i in range(0, len(toks), width)]


def _match_rows(edges: np.ndarray, out_edges: np.ndarray) -> np.ndarray:
    """Index into ``edges`` of each output row; the output must name every
    input edge exactly once."""
    if out_edges.shape[0] != edges.shape[0]:
        raise CheckFailed(
            f"output has {out_edges.shape[0]} rows for {edges.shape[0]} edges"
        )
    base = int(max(edges.max(), out_edges.max())) + 1
    want = edge_keys(edges, base)
    got = edge_keys(out_edges, base)
    order = np.argsort(want)
    pos = np.searchsorted(want[order], got)
    pos[pos == want.size] = 0
    idx = order[pos]
    if not np.array_equal(want[idx], got):
        raise CheckFailed("output names an edge that is not in the input")
    if np.unique(idx).size != idx.size:
        raise CheckFailed("output names an edge twice")
    return idx


def check_truss(edges: np.ndarray, tau: np.ndarray, output: bytes) -> None:
    """``trusskit truss`` rows "u v tau" against the level peel's tau."""
    rows = np.array(_rows(output, 3), dtype=np.int64).reshape(-1, 3)
    idx = _match_rows(edges, rows[:, :2])
    bad = np.flatnonzero(rows[:, 2] != tau[idx])
    if bad.size:
        r = rows[bad[0]]
        raise CheckFailed(
            f"{bad.size} edges disagree, e.g. {r[0]}-{r[1]}: "
            f"program {r[2]}, level peel {tau[idx[bad[0]]]}"
        )


def check_truncated(
    edges: np.ndarray, tau: np.ndarray, k_trunc: int, output: bytes
) -> None:
    """``trusskit truncated-truss`` rows "u v tau marker": exact below
    k_trunc, "k_trunc lower_bound" at or above it. ``tau`` comes from a
    level peel stopped after level k_trunc (-1 for the edges left)."""
    rows = _rows(output, 4)
    nums = np.array([r[:3] for r in rows], dtype=np.int64).reshape(-1, 3)
    exact = np.array([r[3] == b"exact" for r in rows], dtype=bool)
    if not all(r[3] in (b"exact", b"lower_bound") for r in rows):
        raise CheckFailed("unknown marker in truncated output")
    idx = _match_rows(edges, nums[:, :2])
    want_exact = tau[idx] >= 0
    want_tau = np.where(want_exact, tau[idx], k_trunc)
    bad = np.flatnonzero((nums[:, 2] != want_tau) | (exact != want_exact))
    if bad.size:
        i = bad[0]
        raise CheckFailed(
            f"{bad.size} edges disagree, e.g. {nums[i, 0]}-{nums[i, 1]}: program "
            f"{nums[i, 2]} {rows[i][3].decode()}, clamped peel {want_tau[i]} "
            f"{'exact' if want_exact[i] else 'lower_bound'}"
        )


def check_k_truss(edges: np.ndarray, k: int) -> None:
    """Every edge lies on at least k triangles; no duplicate edge or loop."""
    if np.any(edges[:, 0] == edges[:, 1]):
        raise CheckFailed("self-loop")
    base = int(edges.max()) + 1
    if np.unique(edge_keys(edges, base)).size != edges.shape[0]:
        raise CheckFailed("duplicate edge")
    n, us, vs = _compact(edges)
    sup = _support(_adjacency(n, us, vs), us, vs)
    if sup.size == 0 or sup.min() < k:
        raise CheckFailed(f"an edge lies on {sup.min() if sup.size else 0} < {k} triangles")


def check_critical_output(k: int, n: int, output: bytes) -> None:
    """``trusskit generate critical --k k --n n``: n vertices labelled 1..n,
    none isolated, a k-truss, the extremal edge lower bound
    2m >= (n - 1)(k + 2), and the documented budget
    m <= n(k/2 + 5/2 - 1/k) + 10 k^2."""
    edges = parse_edges(output)
    if edges.size == 0:
        raise CheckFailed("empty construction")
    labels = np.unique(edges)
    if labels.size != n or labels[0] != 1 or labels[-1] != n:
        raise CheckFailed(f"{labels.size} non-isolated vertices, wanted 1..{n}")
    check_k_truss(edges, k)
    m = edges.shape[0]
    if 2 * m < (n - 1) * (k + 2):
        raise CheckFailed(f"m={m} below the k-truss minimum (n-1)(k+2)/2")
    if 2 * k * m > n * (k * k + 5 * k - 2) + 20 * k**3:
        raise CheckFailed(f"m={m} over the documented edge budget")


def deletion_survivors(edges: np.ndarray, k: int) -> int:
    """How many edges e leave a nonempty k-truss in G - e: 0 exactly when
    the k-truss G is critical. Each deletion is followed by a queue peel
    over Python sets from the graph's sparse supports: deleting an edge
    ends every triangle it is on, and an edge that falls below k
    triangles is deleted in turn."""
    n, us, vs = _compact(edges)
    A = _adjacency(n, us, vs)
    base = _support(A, us, vs).tolist()
    nbrs = [set(A.indices[A.indptr[v] : A.indptr[v + 1]].tolist()) for v in range(n)]
    us, vs = us.tolist(), vs.tolist()
    eid = {}
    for i, (u, v) in enumerate(zip(us, vs)):
        eid[u, v] = eid[v, u] = i
    survivors = 0
    for e in range(len(us)):
        adj = [set(s) for s in nbrs]
        sup = list(base)
        alive = [True] * len(us)
        alive[e] = False
        queue = [e]
        while queue:
            f = queue.pop()
            u, v = us[f], vs[f]
            adj[u].discard(v)
            adj[v].discard(u)
            for w in adj[u] & adj[v]:
                for g in (eid[u, w], eid[v, w]):
                    if alive[g]:
                        sup[g] -= 1
                        if sup[g] < k:
                            alive[g] = False
                            queue.append(g)
        survivors += any(alive)
    return survivors


def check_verify_critical(edges: np.ndarray, k: int, output: bytes) -> None:
    """``trusskit verify critical --k k`` on a critical k-truss: one PASS
    row naming the graph's n and m; the input itself must be a k-truss
    whose every single-edge deletion peels out to nothing."""
    check_k_truss(edges, k)
    if deletion_survivors(edges, k):
        raise CheckFailed("the input is not a critical k-truss")
    n, m = np.unique(edges).size, edges.shape[0]
    want = [f"is_critical_{k}_truss".encode(), b"PASS", f"n={n}".encode(), f"m={m}".encode()]
    if output.split() != want:
        raise CheckFailed(f"verify printed {output[:80]!r}, wanted one PASS row for n={n} m={m}")
