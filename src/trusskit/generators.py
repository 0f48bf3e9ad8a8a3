"""Extremal truss constructions.

Every generator returns a Graph whose vertex and edge counts were checked
against closed-form expectations at build time; pass ``return_receipt=True``
to also get the ConstructionReceipt recording those checks. All functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import index

import numpy as np

from . import checks
from .graphs import ConstructionError, Graph, InfeasibleError, ValidationError, from_edges
from .peel import _hook
from .triangles import _blocks, triangle_counts


@dataclass
class ConstructionReceipt:
    generator: str
    expected_n: int
    expected_m: int
    actual_n: int
    actual_m: int
    checks_passed: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"generator\t{self.generator}",
            f"expected_n\t{self.expected_n}",
            f"actual_n\t{self.actual_n}",
            f"expected_m\t{self.expected_m}",
            f"actual_m\t{self.actual_m}",
            f"checks_passed\t{','.join(self.checks_passed)}",
        ]
        out.extend(f"note\t{n}" for n in self.notes)
        return out


def _finish(name, g, expected_n, expected_m, k_for_truss, notes=()):
    receipt = ConstructionReceipt(name, expected_n, expected_m, g.n, g.m, [], list(notes))
    if g.n != expected_n or g.m != expected_m:
        raise ConstructionError(
            f"{name}: built ({g.n}, {g.m}) but expected ({expected_n}, {expected_m})"
        )
    receipt.checks_passed += ["vertex_count", "edge_count"]
    if not checks.is_k_truss(g, k_for_truss):
        raise ConstructionError(f"{name}: output is not a {k_for_truss}-truss")
    receipt.checks_passed.append(f"is_{k_for_truss}_truss")
    return g, receipt


def _unpack(result, return_receipt):
    return result if return_receipt else result[0]


# -- clique chains ----------------------------------------------------------


def _chain(name, k, s, r, notes=()):
    """s copies of K_{k+2} then one K_r, consecutive cliques sharing one
    vertex: n = s(k+1) + r and m = s * C(k+2, 2) + C(r, 2)."""
    ti, tj = np.triu_indices(k + 2, 1)
    first = (k + 1) * np.arange(s)[:, None] + 1  # each K_{k+2}'s first vertex
    last = np.stack(np.triu_indices(r, 1), axis=1) + s * (k + 1) + 1
    pairs = np.concatenate([np.stack([first + ti, first + tj], axis=2).reshape(-1, 2), last])
    n = s * (k + 1) + r
    m = s * (k + 2) * (k + 1) // 2 + r * (r - 1) // 2
    return _finish(name, from_edges(n, pairs), n, m, k, notes)


def clique_chain(k: int, s: int, return_receipt: bool = False):
    """Chain of s copies of K_{k+2}, consecutive cliques sharing one vertex.

    The sparsest connected k-truss on its vertex count: n = s(k+1) + 1 and
    m = s * C(k+2, 2) = (n - 1)(1 + k/2).
    """
    if k < 1 or s < 1:
        raise ValidationError("clique_chain needs k >= 1 and s >= 1")
    return _unpack(_chain("clique_chain", k, s - 1, k + 2), return_receipt)


def clique_chain_remainder(k: int, n: int, return_receipt: bool = False):
    """Connected k-truss on exactly n vertices: a clique chain finished by
    one clique K_r with k+2 <= r < 2k+3 absorbing the remainder."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    if n < k + 2:
        raise ValidationError(f"need n >= k+2 = {k + 2}")
    r = n % (k + 1)
    while r < k + 2:
        r += k + 1
    s = (n - r) // (k + 1)
    assert k + 2 <= r < 2 * k + 3 and s >= 0
    return _unpack(_chain("clique_chain_remainder", k, s, r, [f"s={s}", f"r={r}"]), return_receipt)


# -- small critical trusses --------------------------------------------------


def critical_2truss(n: int, return_receipt: bool = False):
    """Minimum critical 2-truss on n vertices: a cycle of length n - 2 plus
    two mutually non-adjacent vertices joined to every cycle vertex.
    Exactly 3n - 6 edges."""
    if n < 6:
        raise ValidationError("critical_2truss needs n >= 6")
    cycle = np.arange(1, n - 1)  # edges (i, i + 1) and (n - 2, 1), then to each apex
    far = np.concatenate([cycle % (n - 2) + 1, np.full(n - 2, n - 1), np.full(n - 2, n)])
    g = from_edges(n, np.stack([np.tile(cycle, 3), far], axis=1))
    return _unpack(_finish("critical_2truss", g, n, 3 * n - 6, 2), return_receipt)


def suspend(G: Graph, k: int, added: int, return_receipt: bool = False):
    """Add ``added`` (1 or 2) apex vertices over a k-truss, keeping only an
    inclusion-minimal apex edge set that makes the result a (k+added)-truss.

    Candidate apex edges are dropped greedily in ascending (apex, old id)
    order whenever the result stays a (k+added)-truss; passes repeat
    until none can be dropped, which guarantees true minimality. Apexes are
    never adjacent to each other. If G is a critical k-truss on more than
    k+3 vertices, the result is a critical (k+added)-truss. The output is
    relabelled 1..n+added (original labels are not carried over). One
    count-only triangle pass, then walks of G's CSR rows: O(n + m) memory.
    """
    if added not in (1, 2):
        raise ValidationError("added must be 1 or 2")
    n0, m, target = G.n, G.m, k + added
    # is_k_truss, keeping the counts: the empty graph is a k-truss
    per_edge = triangle_counts(G, keep_listing=False).per_edge if n0 and G.degrees[1:].all() else None
    if n0 and (per_edge is None or per_edge.min() < k):
        raise ValidationError("suspend requires the input to be a k-truss")
    # Full suspension: edge e of G lies on its own triangles plus one per
    # apex; apex edge m + a*n0 + v - 1, (v, apex a), lies on deg(v), as
    # apexes are never adjacent.
    degrees = G.degrees[1:].tolist()
    if min(degrees, default=target - 1) < target:
        raise ValidationError(f"full suspension is not a {target}-truss; input too sparse")
    count = (per_edge + added).tolist() + degrees * added
    live, left = [True] * (added * n0), [n0] * added  # apex edges, and per apex
    ptr, nbr, slot = (a.tolist() for a in G.csr)
    # The current graph is always a target-truss, so dropping the apex edge
    # (v, x) keeps it one exactly when x keeps an edge and every edge that
    # loses its triangle (v, w, x) with it stays at or above target.
    changed = True
    while changed:
        changed = False
        for a in range(added):
            base = a * n0 - 1  # apex edge of v: live[base + v], count[m + base + v]
            for v in G.vertices:
                if not live[base + v] or left[a] == 1:
                    continue
                row = range(ptr[v], ptr[v + 1])
                lose = [(m + base + nbr[s], slot[s]) for s in row if live[base + nbr[s]]]
                if any(count[f] <= target or count[g] <= target for f, g in lose):
                    continue
                live[base + v] = False
                left[a] -= 1
                for f, g in lose:
                    count[f] -= 1
                    count[g] -= 1
                changed = True
    apex = np.flatnonzero(live)
    pairs = np.concatenate([G.ends, np.stack([apex % n0 + 1, apex // n0 + n0 + 1], axis=1)])
    g = from_edges(n0 + added, pairs[np.lexsort(pairs.T[::-1])])  # in pair order
    receipt = ConstructionReceipt(
        "suspend", n0 + added, g.m, g.n, g.m,
        ["vertex_count", "edge_count", f"is_{target}_truss", "apex_set_minimal"],
        [f"k={k}", f"added={added}", f"apex_edges={g.m - G.m}"],
    )
    if g.m > G.m + added * n0:
        raise ConstructionError("suspension exceeded the m + added*n edge budget")
    return (g, receipt) if return_receipt else g


def suspension_ladder(k: int, n: int, return_receipt: bool = False):
    """Critical k-truss on n vertices built by iterated suspension from a
    critical 2-truss. Valid for k >= 2, n >= k+4; edge count stays within
    n(k+1) - k^2/2 - 2k + 1/2."""
    if k < 2 or n < k + 4:
        raise ValidationError("suspension_ladder needs k >= 2 and n >= k + 4")
    base_n = n - k + 2  # then k - 2 apexes: two at a time, and one more for odd k
    g = critical_2truss(base_n)
    for cur_k in range(2, k - 1, 2):
        g = suspend(g, cur_k, 2)
    if k % 2:
        g = suspend(g, k - 1, 1)
    assert g.n == n
    # bound of the iterated construction: 2m <= 2n(k+1) - k^2 - 4k + 1
    if 2 * g.m > 2 * n * (k + 1) - k * k - 4 * k + 1:
        raise ConstructionError("suspension ladder exceeded its edge bound")
    receipt = ConstructionReceipt(
        "suspension_ladder", n, g.m, g.n, g.m,
        ["vertex_count", f"is_{k}_truss", "ladder_edge_bound"],
        [f"k={k}", f"base_n={base_n}"],
    )
    return (g, receipt) if return_receipt else g


# -- toroidal face embeddings -------------------------------------------------


@dataclass(frozen=True)
class FaceEmbedding:
    """Combinatorial torus embedding: closed face walks over vertices
    1..vertex_count, every edge on exactly two distinct faces. ``walks``,
    the faces as read-only int64 arrays, is derived once, on first use,
    and ``problem`` checks them once per ``strict``."""

    vertex_count: int
    faces: tuple[tuple[int, ...], ...]

    @cached_property
    def walks(self) -> tuple[np.ndarray, np.ndarray]:
        """Each face's length, and the face walks concatenated: integers only."""
        lengths = np.fromiter(map(len, self.faces), np.int64, len(self.faces))
        walk = np.fromiter(map(index, chain.from_iterable(self.faces)), np.int64, lengths.sum())
        for a in (lengths, walk):
            a.setflags(write=False)
        return lengths, walk

    def problem(self, strict: bool = False) -> str | None:
        """The first invariant the embedding breaks, in ``validate``'s
        words, or None; ``strict`` adds ``has_truss_safe_shape``'s two."""
        known = self.__dict__.setdefault("_problems", {})
        if strict not in known:
            known[strict] = _problem(self.vertex_count, *self.walks, strict)
        return known[strict]

    def validate(self) -> None:
        """Raise ValidationError naming the first invariant that fails:
        faces are simple cycles of length >= 4 covering 1..vertex_count,
        each edge lies on exactly two distinct faces, V - E + F is zero
        (torus) and the skeleton is connected. Checked once, on arrays."""
        if (problem := self.problem()) is not None:
            raise ValidationError(problem)


def _step_keys(h: int, lengths: np.ndarray, walk: np.ndarray) -> np.ndarray:
    """Key lo * (h + 1) + hi of the edge each walk step crosses, from a
    vertex to the next on its face, the last back to the first."""
    nxt = np.arange(1, len(walk) + 1)
    nxt[np.cumsum(lengths) - 1] -= lengths
    return np.minimum(walk, walk[nxt]) * (h + 1) + np.maximum(walk, walk[nxt])


def _skeleton(h: int, lengths: np.ndarray, walk: np.ndarray) -> np.ndarray:
    """The skeleton's edges as sorted (E, 2) rows (u, v), u < v."""
    keys = np.sort(_step_keys(h, lengths, walk))
    keys = keys[np.diff(keys, prepend=keys[:1] - 1) != 0]  # np.unique would load numpy.ma
    return np.stack(np.divmod(keys, h + 1), axis=1)


def _problem(h: int, lengths: np.ndarray, walk: np.ndarray, strict: bool) -> str | None:
    """``FaceEmbedding.problem`` of the faces ``walk``, cut into
    ``lengths``, over vertices 1..h: ``validate``'s checks in its order,
    on sorted (vertex, face) pairs and edge keys instead of sets."""
    r = len(lengths)
    if h < 3 or not r:
        return "embedding too small"
    face = np.repeat(np.arange(r), lengths)
    by_vertex = np.lexsort((face, walk))  # (vertex, face) order: a revisit repeats a row
    on, of = walk[by_vertex], face[by_vertex]
    twice = of[1:][(on[1:] == on[:-1]) & (of[1:] == of[:-1])]
    # the first faulty face names its first fault: length, revisit, range
    faults = (np.flatnonzero(lengths < 4), twice, face[(walk < 1) | (walk > h)])
    first = min((int(f.min()) for f in faults if f.size), default=r)
    if first < r:
        at = walk[face == first]
        if len(at) < 4:
            return f"face of length {len(at)} < 4"
        if first in twice:
            return f"face walk revisits a vertex: {tuple(at.tolist())}"
        return f"face vertex {at[(at < 1) | (at > h)][0]} out of range"
    count = np.bincount(walk, minlength=h + 1)
    if not count[1:].all():
        return "embedding has vertices on no face"
    keys = _step_keys(h, lengths, walk)
    order = np.argsort(keys, kind="stable")  # an edge's crossings, its first one heading them
    keys, crossed = keys[order], face[order]
    head = np.flatnonzero(np.diff(keys, prepend=-1))
    size = np.diff(head, append=len(keys))
    bad = np.flatnonzero((size != 2) | (crossed[head] == crossed[(head + 1) % len(keys)]))
    if bad.size:
        e = bad[np.argmin(order[head[bad]])]  # the bad edge crossed first
        faces = tuple(crossed[head[e] : head[e] + size[e]].tolist())
        return f"edge {divmod(int(keys[head[e]]), h + 1)} lies on faces {faces}, need two distinct"
    if h - len(head) + r != 0:
        return "Euler count is not toroidal"
    (u, v), root = np.divmod(keys[head], h + 1), np.arange(h + 1)
    _hook(root, u, v)
    if (root[1:] != 1).any():
        return "skeleton is disconnected"
    if not strict:
        return None
    # count[v], v's corners on the faces, is its skeleton degree; any() stops at a triangle
    if any(len(edges) for _, edges in _blocks(np.stack([u, v], axis=1), count, vertices=False)):
        return "skeleton has a triangle"
    # per skeleton edge (u, v), the faces of u that v is on too: its own
    # two, and any other face it is a chord of
    start, reps = (np.cumsum(count) - count)[u], count[u]  # u's rows in (vertex, face) order
    slot = np.repeat(start - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
    member, want = on * r + of, np.repeat(v, reps) * r + of[slot]
    found = np.searchsorted(member, want, "right") - np.searchsorted(member, want)
    return "a face has a chord" if found.sum() > 2 * len(u) else None


def has_truss_safe_shape(emb: FaceEmbedding) -> bool:
    """True when the embedding is valid, its faces are induced cycles and
    its skeleton is triangle-free: ``emb.problem(strict=True)`` is None.

    Inserting face cliques into an embedding without these two properties
    yields a k-truss that is provably not critical: an in-face skeleton
    chord or a skeleton triangle adds spare triangles that let a proper
    edge subset (everything minus one face gadget) survive as a k-truss.
    """
    return emb.problem(strict=True) is None


def _stackings(i: int, t: int):
    """Cell stackings in search order, one at a time, as the cells' left
    and right heights: a tall cell (p, t-2-p) and its mirror with the i
    unit squares split between them, then the two tall cells swapped."""
    for p in range(1, t - 2):
        tall = ((p, t - 2 - p), (t - 2 - p, p))
        for split in range(i + 1):
            for first, second in (tall, tall[::-1])[: 1 + (tall[0] != tall[1])]:
                heights = np.ones((i + 2, 2), np.int64)
                heights[0], heights[split + 1] = first, second
                yield heights.T


def _candidates(i: int, t: int):
    """The search's candidates in order, one at a time, as (offset,
    lengths, walk): each twist offset of each stacking. Both columns are
    the cycle 1..h, the right one read at the offset; cell c, p[c] rows
    high on the left and q[c] on the right, has its face go up the left
    column, across, and down the right."""
    h = i + t - 2
    for p, q in _stackings(i, t):
        lengths = p + q + 2
        face = np.repeat(np.arange(len(lengths)), lengths)
        at = np.arange(len(face)) - (np.cumsum(lengths) - lengths)[face]  # place on its face
        right = at > p[face]
        down = (np.cumsum(q) - q + lengths - 1)[face] - at  # the right column, less the offset
        rows = np.where(right, down, (np.cumsum(p) - p)[face] + at)
        for offset in range(2, h - 1):
            yield offset, lengths, (rows + offset * right) % h + 1


def torus_embedding(i: int, t: int, return_receipt: bool = False, strict: bool = False):
    """Torus embedding whose faces are two t-cycles and i four-cycles.

    Realized as two concentric copies of one h-cycle joined by chord
    edges: unit cells give the square faces and taller (for odd t,
    left/right-unbalanced) cells give the two long faces. Candidate cell
    stackings and twist offsets are searched deterministically, one at a
    time, and each candidate's walks are validated as arrays, so an
    invalid embedding is never returned; only the one returned is made
    into face tuples. Parameters with no simple realization raise
    InfeasibleError.

    ``strict`` additionally demands chord-free (induced) faces and a
    triangle-free skeleton, the shape needed for the derived k-truss to
    be critical; small parameters often only admit non-strict embeddings.
    """
    if i < 0 or t < 4:
        raise ValidationError("torus_embedding needs i >= 0 and t >= 4")
    h = i + t - 2
    for offset, lengths, walk in _candidates(i, t):
        if _problem(h, lengths, walk, strict) is not None:
            continue
        flat, ends = walk.tolist(), np.cumsum(lengths).tolist()
        emb = FaceEmbedding(h, tuple(tuple(flat[a:b]) for a, b in zip([0, *ends], ends)))
        emb.__dict__["_problems"] = {False: None, strict: None}
        if not return_receipt:
            return emb
        return emb, ConstructionReceipt(
            "torus_embedding", h, h + i + 2, h, len(walk) // 2,
            ["embedding_validated"] + (["truss_safe_shape"] if strict else []),
            [f"i={i}", f"t={t}", f"offset={offset}"],
        )
    raise InfeasibleError(
        f"no simple toroidal embedding with two {t}-cycle faces and {i} four-cycle faces "
        f"exists in the searched family ({'strict shape, ' if strict else ''}h={h} "
        f"vertices, {h + i + 2} edges needed)"
    )


def truss_from_embedding(emb: FaceEmbedding, k: int, return_receipt: bool = False):
    """Critical k-truss from a toroidal face embedding (k >= 3).

    The skeleton is kept and each face gains a clique on k-1 fresh
    vertices joined completely to the face's cycle. With r faces and
    total face length g the result has r(k-2) + g/2 vertices and
    r * C(k-1, 2) + (k - 1/2) g edges. The edges are built as one int64
    array, dropped before the self-check. ``validate`` reuses its verdict.
    """
    if k < 3:
        raise ValidationError("truss_from_embedding needs k >= 3")
    emb.validate()
    r, g = len(emb.faces), len(emb.walks[1])
    n = r * (k - 2) + g // 2
    m = r * (k - 1) * (k - 2) // 2 + (2 * (k - 1) + 1) * g // 2
    graph = from_edges(n, _face_truss_pairs(emb.vertex_count, *emb.walks, k))
    return _unpack(_finish("truss_from_embedding", graph, n, m, k, [f"k={k}", f"faces={r}"]),
                   return_receipt)


def _face_truss_pairs(h: int, lengths: np.ndarray, walk: np.ndarray, k: int) -> np.ndarray:
    """``truss_from_embedding``'s edges: the sorted skeleton, then per face
    its clique's pairs and each clique vertex's joins to the walk."""
    ti, tj = np.triu_indices(k - 1, 1)
    c = len(ti)
    block = c + (k - 1) * lengths  # per face: its clique's pairs, then its joins
    face = np.repeat(np.arange(len(lengths)), block)
    j = np.arange(len(face)) - (np.cumsum(block) - block)[face] - c  # join j, or pair j + c
    fresh, span = h + 1 + (k - 1) * face, lengths[face]  # the clique follows every face vertex
    pair, start = np.minimum(j + c, c - 1), (np.cumsum(lengths) - lengths)[face]
    near = np.where(j < 0, fresh + ti[pair], walk[start + j % span])  # join j: walk j % span
    far = fresh + np.where(j < 0, tj[pair], j // span)  # to clique vertex j // span
    return np.concatenate([_skeleton(h, lengths, walk), np.stack([near, far], axis=1)])


def critical_truss(k: int, n: int, return_receipt: bool = False):
    """Critical k-truss on exactly n vertices (k >= 2, n >= k + 4).

    k = 2 uses the two-apex cycle; small n (<= 2k) uses the suspension
    ladder; otherwise n = ik + j steers a toroidal construction with i
    faces (two (j+4)-cycles, i-2 squares), restricted to embeddings with
    induced faces and a triangle-free skeleton since criticality fails
    without them. When no such embedding exists the generator falls back
    to the suspension ladder and says so in the receipt.
    """
    if k < 2:
        raise ValidationError("critical_truss needs k >= 2")
    if n < k + 4:
        raise ValidationError(f"critical_truss needs n >= k + 4 = {k + 4}")
    notes: list[str] = []
    if k == 2:
        g, receipt = critical_2truss(n, return_receipt=True)
        notes.append("strategy=two_apex_cycle")
    elif n <= 2 * k:
        g, receipt = suspension_ladder(k, n, return_receipt=True)
        notes.append("strategy=suspension_ladder")
    else:
        i, j = divmod(n, k)
        try:
            emb = torus_embedding(i - 2, j + 4, strict=True)
            g, receipt = truss_from_embedding(emb, k, return_receipt=True)
            notes.append(f"strategy=torus(i={i}, t={j + 4})")
        except InfeasibleError as exc:
            g, receipt = suspension_ladder(k, n, return_receipt=True)
            notes.append("strategy=suspension_ladder")
            notes.append(f"fallback_reason={exc}")
    if g.n != n:
        raise ConstructionError(f"critical_truss built {g.n} vertices, wanted {n}")
    # edge budget: m <= n(k/2 + 5/2 - 1/k) + 10 k^2, compared over 2k
    if 2 * k * g.m > n * (k * k + 5 * k - 2) + 20 * k**3:
        raise ConstructionError("critical_truss exceeded its edge budget")
    receipt = ConstructionReceipt(
        "critical_truss", n, g.m, g.n, g.m,
        receipt.checks_passed + ["edge_budget"], notes + receipt.notes,
    )
    return (g, receipt) if return_receipt else g

