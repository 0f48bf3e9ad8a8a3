"""Extremal truss constructions and random test graphs.

Every generator returns a Graph whose vertex and edge counts were checked
against closed-form expectations at build time; pass ``return_receipt=True``
to also get the ConstructionReceipt recording those checks. All functions
are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from . import checks
from .graphs import ConstructionError, Graph, InfeasibleError, ValidationError, from_edges


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
    if k_for_truss is not None:
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
    pairs = []
    for c, size in enumerate([k + 2] * s + [r]):
        base = c * (k + 1)
        pairs.extend(combinations(range(base + 1, base + size + 1), 2))
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
    chain = _chain("clique_chain_remainder", k, s, r, [f"s={s}", f"r={r}"])
    return _unpack(chain, return_receipt)


# -- small critical trusses --------------------------------------------------


def critical_2truss(n: int, return_receipt: bool = False):
    """Minimum critical 2-truss on n vertices: a cycle of length n - 2 plus
    two mutually non-adjacent vertices joined to every cycle vertex.
    Exactly 3n - 6 edges."""
    if n < 6:
        raise ValidationError("critical_2truss needs n >= 6")
    c = n - 2
    pairs = [(i, i + 1) for i in range(1, c)] + [(c, 1)]
    for apex in (n - 1, n):
        pairs.extend((i, apex) for i in range(1, c + 1))
    g = from_edges(n, pairs)
    return _unpack(_finish("critical_2truss", g, n, 3 * n - 6, 2), return_receipt)


def suspend(G: Graph, k: int, added: int, return_receipt: bool = False):
    """Add ``added`` (1 or 2) apex vertices over a k-truss, keeping only an
    inclusion-minimal apex edge set that makes the result a (k+added)-truss.

    Candidate apex edges are dropped greedily in ascending (apex, old id)
    order whenever the result stays a (k+added)-truss; passes repeat
    until none can be dropped, which guarantees true minimality. Apexes are
    never adjacent to each other. If G is a critical k-truss on more than
    k+3 vertices, the result is a critical (k+added)-truss. The output is
    relabelled 1..n+added (original labels are not carried over).
    """
    if added not in (1, 2):
        raise ValidationError("added must be 1 or 2")
    if not checks.is_k_truss(G, k):
        raise ValidationError("suspend requires the input to be a k-truss")
    n0 = G.n
    target = k + added
    apexes = range(n0 + 1, n0 + added + 1)
    ptr, nbr = (a.tolist() for a in G.csr[:2])
    nbrs = [set(nbr[ptr[v] : ptr[v + 1]]) for v in range(n0 + 1)]
    nbrs += [set(G.vertices) for _ in apexes]
    for v in G.vertices:
        nbrs[v].update(apexes)
    # triangles per edge, keyed (smaller id, larger id); apexes have the
    # largest ids
    count = {
        (u, v): len(nbrs[u] & nbrs[v])
        for u in range(1, n0 + added + 1)
        for v in nbrs[u]
        if u < v
    }
    if not all(nbrs[1:]) or min(count.values()) < target:
        raise ValidationError(
            f"full suspension is not a {target}-truss; input too sparse"
        )
    # The current graph is always a target-truss, so dropping the apex edge
    # (v, x) keeps it one exactly when x keeps an edge and every edge that
    # loses its triangle with (v, x) stays at or above target.
    changed = True
    while changed:
        changed = False
        for x in apexes:
            for v in G.vertices:
                if v not in nbrs[x] or len(nbrs[x]) == 1:
                    continue
                common = nbrs[x] & nbrs[v]
                if any(
                    count[w, x] <= target or count[min(v, w), max(v, w)] <= target
                    for w in common
                ):
                    continue
                nbrs[x].remove(v)
                nbrs[v].remove(x)
                del count[v, x]
                for w in common:
                    count[w, x] -= 1
                    count[min(v, w), max(v, w)] -= 1
                changed = True
    g = from_edges(n0 + added, sorted(count))
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
    if k % 2 == 0:
        base_n = n + 2 - k
        doubles = (k - 2) // 2
        odd_step = False
    else:
        base_n = n - k + 2
        doubles = (k - 3) // 2
        odd_step = True
    g = critical_2truss(base_n)
    cur_k = 2
    for _ in range(doubles):
        g = suspend(g, cur_k, 2)
        cur_k += 2
    if odd_step:
        g = suspend(g, cur_k, 1)
        cur_k += 1
    assert cur_k == k and g.n == n
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
    1..vertex_count, every edge on exactly two distinct faces. The edge ->
    face incidence and the skeleton adjacency are derived once, on first
    use."""

    vertex_count: int
    faces: tuple[tuple[int, ...], ...]

    @property
    def girth_sum(self) -> int:
        return sum(len(f) for f in self.faces)

    @cached_property
    def edge_face_incidence(self) -> dict[tuple[int, int], list[int]]:
        """Each skeleton edge (u, v), u < v, and the faces whose walks cross it."""
        inc: dict[tuple[int, int], list[int]] = {}
        for idx, walk in enumerate(self.faces):
            for u, v in zip(walk, walk[1:] + walk[:1]):
                inc.setdefault((u, v) if u < v else (v, u), []).append(idx)
        return inc

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        """Each skeleton vertex's neighbour set."""
        adj: dict[int, set[int]] = {}
        for u, v in self.edge_face_incidence:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return adj

    def edge_set(self) -> list[tuple[int, int]]:
        return sorted(self.edge_face_incidence)

    def validate(self) -> None:
        """Raise ValidationError unless every structural invariant holds:
        faces are simple cycles of length >= 4, each edge lies on exactly
        two distinct faces, the skeleton is a simple connected graph, and
        the Euler count V - E + F is zero (torus)."""
        if self.vertex_count < 3 or not self.faces:
            raise ValidationError("embedding too small")
        seen_vertices: set[int] = set()
        for walk in self.faces:
            if len(walk) < 4:
                raise ValidationError(f"face of length {len(walk)} < 4")
            if len(set(walk)) != len(walk):
                raise ValidationError(f"face walk revisits a vertex: {walk}")
            for u in walk:
                if not (1 <= u <= self.vertex_count):
                    raise ValidationError(f"face vertex {u} out of range")
            for i, u in enumerate(walk):
                if u == walk[(i + 1) % len(walk)]:
                    raise ValidationError("face walk contains a loop")
            seen_vertices.update(walk)
        if len(seen_vertices) != self.vertex_count:
            raise ValidationError("embedding has vertices on no face")
        inc = self.edge_face_incidence
        for key, face_ids in inc.items():
            if len(face_ids) != 2 or face_ids[0] == face_ids[1]:
                raise ValidationError(
                    f"edge {key} lies on faces {tuple(face_ids)}, need two distinct"
                )
        if 2 * len(inc) != self.girth_sum:
            raise ValidationError("face lengths inconsistent with edge count")
        if self.vertex_count - len(inc) + len(self.faces) != 0:
            raise ValidationError("Euler count is not toroidal")
        # connectivity of the skeleton; vertex 1 lies on a face
        adj = self.adjacency
        reach, frontier = {1}, [1]
        while frontier:
            for w in adj[frontier.pop()]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        if len(reach) != self.vertex_count:
            raise ValidationError("skeleton is disconnected")


def _try_embedding(heights: list[tuple[int, int]], offset: int) -> FaceEmbedding | None:
    """Realize stacked cells on a twisted cylinder quotient.

    Cell c spans ``heights[c][0]`` rows on the left column and
    ``heights[c][1]`` rows on the right; both columns are the same cycle
    of h vertices, the right one read at ``offset``. Returns None when the
    result would not be a simple-cycle-faced simple graph.
    """
    h = sum(p for p, _ in heights)
    if h != sum(q for _, q in heights) or h < 3:
        return None
    faces, left, right = [], 0, offset
    for p, q in heights:
        # up the left column, across, down the right, as vertices 1..h
        walk = [(left + s) % h + 1 for s in range(p + 1)]
        walk += [(right + s) % h + 1 for s in range(q, -1, -1)]
        faces.append(tuple(walk))
        left, right = left + p, right + q
    emb = FaceEmbedding(h, tuple(faces))
    try:
        emb.validate()  # rejects, among others, walks that revisit a vertex
    except ValidationError:
        return None
    # the face multiset must be exactly as requested
    if sorted(len(f) for f in emb.faces) != sorted(p + q + 2 for p, q in heights):
        return None
    return emb


def has_truss_safe_shape(emb: FaceEmbedding) -> bool:
    """True when the faces of a validated embedding are induced cycles and
    the skeleton is triangle-free.

    Inserting face cliques into an embedding without these two properties
    yields a k-truss that is provably not critical: an in-face skeleton
    chord or a skeleton triangle adds spare triangles that let a proper
    edge subset (everything minus one face gadget) survive as a k-truss.
    """
    adj = emb.adjacency
    if any(adj[u] & adj[v] for u, v in emb.edge_face_incidence):
        return False
    for walk in emb.faces:
        # the walk's own edges give each of its vertices two neighbours on
        # it; any more is a chord
        on_face = set(walk)
        if sum(len(adj[u] & on_face) for u in walk) > 2 * len(walk):
            return False
    return True


def _stackings(i: int, t: int):
    """Cell stackings in search order, one at a time: a tall cell (p, t-2-p)
    and its mirror with the i unit squares split between them, then the
    two tall cells swapped."""
    squares = [(1, 1)] * i
    for p in range(1, t - 2):
        tall_a = (p, t - 2 - p)
        tall_b = (t - 2 - p, p)
        for split in range(i + 1):
            yield [tall_a] + squares[:split] + [tall_b] + squares[split:]
            if tall_a != tall_b:
                yield [tall_b] + squares[:split] + [tall_a] + squares[split:]


def torus_embedding(i: int, t: int, return_receipt: bool = False, strict: bool = False):
    """Torus embedding whose faces are two t-cycles and i four-cycles.

    Realized as two concentric copies of one h-cycle joined by chord
    edges: unit cells give the square faces and taller (for odd t,
    left/right-unbalanced) cells give the two long faces. Candidate cell
    stackings and twist offsets are searched deterministically, one at a
    time, and each candidate is validated structurally, so an invalid
    embedding is never returned; parameters with no simple realization
    raise InfeasibleError.

    ``strict`` additionally demands chord-free (induced) faces and a
    triangle-free skeleton, the shape needed for the derived k-truss to
    be critical; small parameters often only admit non-strict embeddings.
    """
    if i < 0 or t < 4:
        raise ValidationError("torus_embedding needs i >= 0 and t >= 4")
    h = i + t - 2
    for heights in _stackings(i, t):
        for offset in range(2, h - 1):
            emb = _try_embedding(heights, offset)
            if emb is None or strict and not has_truss_safe_shape(emb):
                continue
            if return_receipt:
                receipt = ConstructionReceipt(
                    "torus_embedding",
                    h,
                    h + i + 2,
                    emb.vertex_count,
                    len(emb.edge_face_incidence),
                    ["embedding_validated"] + (["truss_safe_shape"] if strict else []),
                    [f"i={i}", f"t={t}", f"offset={offset}"],
                )
                return emb, receipt
            return emb
    raise InfeasibleError(
        f"no simple toroidal embedding with two {t}-cycle faces and {i} "
        f"four-cycle faces exists in the searched family "
        f"({'strict shape, ' if strict else ''}h={h} vertices, "
        f"{h + i + 2} edges needed)"
    )


def truss_from_embedding(emb: FaceEmbedding, k: int, return_receipt: bool = False):
    """Critical k-truss from a toroidal face embedding (k >= 3).

    The skeleton is kept and each face gains a clique on k-1 fresh
    vertices joined completely to the face's cycle. With r faces and
    total face length g the result has r(k-2) + g/2 vertices and
    r * C(k-1, 2) + (k - 1/2) g edges.
    """
    if k < 3:
        raise ValidationError("truss_from_embedding needs k >= 3")
    emb.validate()
    h = emb.vertex_count
    r = len(emb.faces)
    g = emb.girth_sum
    pairs = emb.edge_set()
    nxt = h + 1
    for walk in emb.faces:
        clique = range(nxt, nxt + k - 1)
        nxt += k - 1
        pairs.extend(combinations(clique, 2))
        # face vertices are at most h, below every fresh clique vertex
        pairs.extend((w, c) for c in clique for w in walk)
    n = r * (k - 2) + g // 2
    m = r * (k - 1) * (k - 2) // 2 + (2 * (k - 1) + 1) * g // 2
    graph = from_edges(n, pairs)
    return _unpack(
        _finish("truss_from_embedding", graph, n, m, k, [f"k={k}", f"faces={r}"]),
        return_receipt,
    )


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


# -- random graphs ------------------------------------------------------------


def gnp_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with deterministic seeding; isolated vertices
    are kept so n is exact."""
    if n < 1 or not (0.0 <= p <= 1.0):
        raise ValidationError("need n >= 1 and p in [0, 1]")
    rng = np.random.default_rng(seed)
    pairs = []
    # row u draws for the pairs (u, u+1..n): consecutive draws continue
    # one stream, so this equals one draw over all pairs in row order
    for u in range(1, n):
        keep = np.flatnonzero(rng.random(n - u) < p) + (u + 1)
        pairs.extend((u, v) for v in keep.tolist())
    return from_edges(n, pairs)
