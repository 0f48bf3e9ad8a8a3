"""Triangle listing and exact triangle counts.

Each triangle is listed once by the forward scheme (Chiba & Nishizeki
1985; Latapy 2008): edges point up the (degree, id) ranking, and each pair
of out-edges of a vertex (an out-wedge) closes a triangle if the edge
between their heads exists. There are O(m * avg degeneracy) out-wedges,
closed in numpy blocks of ``_WEDGE_BLOCK`` by a ``searchsorted`` on the
sorted oriented edge keys. Counting for the peel keeps each triangle's
edge ids, from which it builds its edge -> triangle incidence, and the
vertex listing keeps each triangle's vertices, both under the memory cap;
count-only callers keep none, and witness init and the bound report read
the blocks as they come.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Iterator

import numpy as np

from .graphs import Graph

DEFAULT_MEM_CAP = 4 * 2**30  # bytes a triangle listing or witness init may allocate
MEM_CAP_ENV = "TRUSSKIT_MEM_CAP"
_WEDGE_BLOCK = 1 << 13  # out-wedges closed per numpy block


class ResourceLimitError(Exception):
    """Configuration would exceed the configured memory budget."""


def mem_cap() -> int:
    """Memory budget in bytes: ``TRUSSKIT_MEM_CAP`` if set, else 4 GiB."""
    env = os.environ.get(MEM_CAP_ENV)
    return int(env) if env else DEFAULT_MEM_CAP


@dataclass
class TriangleCounts:
    """Exact triangle counts.

    ``per_edge[e]`` counts triangles through edge e and sums to three
    times ``total``. From ``triangle_counts``, ``listing[3t:3t + 3]`` holds
    triangle t's edge ids, if kept, and ``mem_estimate`` bounds the bytes
    of listing and incidence.
    """

    per_edge: list[int]
    total: int
    listing: array | None = field(default=None, repr=False, compare=False)
    mem_estimate: int = field(default=0, repr=False, compare=False)

    @cached_property
    def incidence(self) -> tuple[array, array]:
        """Edge -> triangle CSR ``(ptr, tri)``: the triangles through edge
        e are ``tri[ptr[e]:ptr[e + 1]]``, ascending."""
        ptr = array("q", accumulate(self.per_edge, initial=0))
        rows = np.argsort(np.frombuffer(self.listing, np.int32), kind="stable")
        rows //= 3
        rows = rows.astype(np.int32)
        return ptr, array("i", rows.tobytes())


def _footprint(G: Graph, kept: int) -> int:
    """Bytes that listing G and keeping ``kept`` triangles with their
    incidence may allocate, as tracemalloc counts: arrays per vertex and
    per edge, a block's temporaries, and per triangle the listing, the
    incidence's int64 argsort and int32 rows and the peel's alive byte."""
    return 64 * (G.n + 1) + 80 * G.m + 140 * _WEDGE_BLOCK + 56 * kept + 65536


def _reserve(G: Graph, kept: int) -> int:
    """``_footprint``, or ResourceLimitError if it is over ``mem_cap()``."""
    need, cap = _footprint(G, kept), mem_cap()
    if need > cap:
        raise ResourceLimitError(
            f"triangle listing needs ~{need} bytes (n={G.n}, m={G.m}, {kept} "
            f"triangles kept), over the {cap}-byte cap; raise {MEM_CAP_ENV}"
        )
    return need


def _blocks(G: Graph) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(opposite, edges)`` per wedge block, int64 (t, 3) arrays:
    ``edges`` holds each closed triangle's edge ids and ``opposite``,
    column for column, the vertex opposite each. Callers check the cap."""
    n1, m = G.n + 1, G.m
    if m == 0:
        return
    by_rank = np.argsort(G.degrees, kind="stable")
    rank = np.argsort(by_rank, kind="stable")  # position in (degree, id) order
    ends = rank[G.ends]
    keys = ends.min(axis=1) * n1 + ends.max(axis=1)  # edge (lo, hi) in rank order
    del ends
    eid = np.argsort(keys, kind="stable")  # edge ids in (src, dst) order: the out-CSR
    keys = keys[eid]
    src, dst = np.divmod(keys, n1)
    # slot s heads the later[s] wedges (s, t), t a later slot of its out-list
    later = np.cumsum(np.bincount(src, minlength=n1))[src] - 1 - np.arange(m)
    last = np.cumsum(later)  # wedges headed by slots up to s
    for lo in range(0, int(last[-1]), _WEDGE_BLOCK):
        w = np.arange(lo, min(lo + _WEDGE_BLOCK, int(last[-1])))
        s = np.searchsorted(last, w, side="right")
        t = w - last[s] + later[s] + s + 1
        close = dst[s] * n1 + dst[t]
        at = np.minimum(np.searchsorted(keys, close), m - 1)
        hit = keys[at] == close
        s, t, at = s[hit], t[hit], at[hit]
        opposite = by_rank[np.stack([dst[t], dst[s], src[s]], axis=1)]
        yield opposite, eid[np.stack([s, t, at], axis=1)]


def triangle_vertices(G: Graph) -> np.ndarray:
    """Every triangle of G as a row of its vertices, ascending, in an int32
    (T, 3) array. Raises ResourceLimitError before keeping a block that
    takes the listing estimate, with the triangles kept so far, over the
    cap; the array holds well under the estimate's bytes per triangle."""
    _reserve(G, 0)
    kept, total = [], 0
    for vertices, _ in _blocks(G):
        total += len(vertices)
        _reserve(G, total)
        vertices.sort(axis=1)
        kept.append(vertices.astype(np.int32))
    return np.concatenate(kept) if kept else np.empty((0, 3), np.int32)


def triangle_counts(G: Graph, *, keep_listing: bool = True) -> TriangleCounts:
    """Exact per-edge triangle counts, with the listing the peel needs
    unless ``keep_listing`` is false. Raises ResourceLimitError
    before keeping a block that takes the estimate, which grows with
    triangles kept, not wedges, over the cap; without the listing only
    the fixed part is reserved."""
    need = _reserve(G, 0)
    per_edge = np.zeros(G.m, dtype=np.int64)
    listing = array("i") if keep_listing else None
    total = 0
    for _, edges in _blocks(G):
        total += len(edges)
        if listing is not None:
            need = _reserve(G, total)
            listing.frombytes(edges.astype(np.int32).view(np.uint8))
        per_edge += np.bincount(edges.ravel(), minlength=G.m)
    return TriangleCounts(per_edge.tolist(), total, listing, need)


def ordered_endpoints(G: Graph, e: int) -> tuple[int, int]:
    """Edge endpoints with the scan side first: the smaller-degree
    endpoint, ties broken toward the smaller id."""
    u, v = G.ends[e].tolist()  # u < v, so ties keep u first
    return (u, v) if G.degrees[u] <= G.degrees[v] else (v, u)
