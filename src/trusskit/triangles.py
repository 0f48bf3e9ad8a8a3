"""Triangle listing and exact triangle counts.

Each triangle is listed once by the forward scheme (Chiba & Nishizeki
1985; Latapy 2008): edges point up the (degree, id) ranking, and each pair
of out-edges of a vertex (an out-wedge) closes a triangle if the edge
between their heads exists. There are O(m * avg degeneracy) out-wedges:
numpy blocks of about ``_WEDGE_BLOCK`` expand whole out-lists with
``np.repeat`` and close each wedge by a ``searchsorted`` on the oriented
edge keys, which ``graphs.stable_order`` sorts. Counting for the peel
keeps each triangle's edge ids, counts them in one ``bincount`` and
builds the edge -> triangle incidence from them, and the
vertex listing keeps each triangle's vertices, both under the memory cap;
count-only callers keep none, and witness init and the bound report read
the blocks as they come. Only the vertex readers have the blocks build
vertex rows.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .graphs import Graph, stable_order

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
        e are ``tri[ptr[e]:ptr[e + 1]]``, ascending. A counting sort of the
        listing's edge ids, radix-sorted and placed a block at a time."""
        ids, tri = np.frombuffer(self.listing, np.int32), array("i", [0]) * len(self.listing)
        ptr = array("q", [0]) * (len(self.per_edge) + 1)
        np.cumsum(np.bincount(ids, minlength=len(ptr) - 1), out=np.frombuffer(ptr, np.int64)[1:])
        rows, fill = np.frombuffer(tri, np.int32), np.array(ptr[:-1])  # each row's next slot
        for lo in range(0, len(ids), _WEDGE_BLOCK):
            order = stable_order(ids[lo : lo + _WEDGE_BLOCK], len(fill))
            e = ids[lo + order]
            first = np.flatnonzero(np.diff(e, prepend=-1))
            size = np.diff(first, append=len(e))
            rows[np.repeat(fill[e[first]] - first, size) + np.arange(len(e))] = (lo + order) // 3
            fill[e[first]] += size
        return ptr, tri


def _footprint(G: Graph, kept: int) -> int:
    """Bytes that listing G and keeping ``kept`` triangles with their
    incidence may allocate, as tracemalloc counts: arrays per vertex and
    per edge, a block's temporaries, and per triangle (29 of the 56 bytes)
    the listing and the incidence's rows, three int32 ids each, the peel's
    alive byte and the critical trials' int32 kill journal."""
    return 64 * (G.n + 1) + 80 * G.m + 160 * _WEDGE_BLOCK + 56 * kept + 65536


def _reserve(G: Graph, kept: int) -> int:
    """``_footprint``, or ResourceLimitError if it is over ``mem_cap()``."""
    need, cap = _footprint(G, kept), mem_cap()
    if need > cap:
        raise ResourceLimitError(
            f"triangle listing needs ~{need} bytes (n={G.n}, m={G.m}, {kept} "
            f"triangles kept), over the {cap}-byte cap; raise {MEM_CAP_ENV}"
        )
    return need


def _blocks(G: Graph, vertices: bool = True) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """Yield ``(opposite, edges)`` per wedge block, int64 (t, 3) arrays:
    ``edges`` holds each closed triangle's edge ids and ``opposite``,
    column for column, the vertex opposite each, or None unless
    ``vertices``. Callers check the cap."""
    n1, m = G.n + 1, G.m
    if m == 0:
        return
    by_rank = stable_order(G.degrees, n1)
    rank = np.empty(n1, np.int64)
    rank[by_rank] = np.arange(n1)  # position in (degree, id) order
    u, v = rank[G.ends[:, 0]], rank[G.ends[:, 1]]
    keys = np.minimum(u, v) * n1 + np.maximum(u, v)  # edge (lo, hi) in rank order
    del u, v
    eid = stable_order(keys, n1 * n1)  # edge ids in (src, dst) order: the out-CSR
    keys = keys[eid]
    src, dst = np.divmod(keys, n1)
    # slot s heads the later[s] wedges (s, t), t = s + 1, s + 2, ... in its out-list
    later = np.cumsum(np.bincount(src, minlength=n1))[src] - 1 - np.arange(m)
    for s, t in _runs(np.arange(1, m + 1), later, _WEDGE_BLOCK):
        close = dst[s] * n1 + dst[t]
        at = np.minimum(np.searchsorted(keys, close), m - 1)
        hit = np.flatnonzero(keys[at] == close)  # indices gather faster than a random mask
        s, t, at = s[hit], t[hit], at[hit]
        opposite = by_rank[np.stack([dst[t], dst[s], src[s]], axis=1)] if vertices else None
        yield opposite, eid[np.stack([s, t, at], axis=1)]


def _runs(first: np.ndarray, size: np.ndarray, chunk: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield the run i and the value ``first[i] + j`` of each j < ``size[i]``
    (``size`` non-empty), in chunks of about ``chunk`` values cut at run bounds."""
    ends = np.cumsum(size)
    offset = first - ends + size  # a run's first value minus its first position
    cuts = np.searchsorted(ends, range(chunk, int(ends[-1]), chunk), side="right").tolist()
    for a, b in zip([0, *cuts], [*cuts, len(size)]):
        if a < b:
            run = np.repeat(np.arange(a, b), size[a:b])
            yield run, np.arange(ends[a] - size[a], ends[b - 1]) + offset[run]


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
    for _, edges in _blocks(G, vertices=False):
        total += len(edges)
        if listing is not None:
            need = _reserve(G, total)
            listing.frombytes(edges.astype(np.int32).view(np.uint8))
        else:
            np.add.at(per_edge, edges.ravel(), 1)  # O(block) work, a bincount O(m)
    per_edge = np.bincount(np.frombuffer(listing, np.int32), minlength=G.m) if listing else per_edge
    return TriangleCounts(per_edge.tolist(), total, listing, need)


def ordered_endpoints(G: Graph, e: int) -> tuple[int, int]:
    """Edge endpoints with the scan side first: the smaller-degree
    endpoint, ties broken toward the smaller id."""
    u, v = G.ends[e].tolist()  # u < v, so ties keep u first
    return (u, v) if G.degrees[u] <= G.degrees[v] else (v, u)
