"""Triangle listing and exact triangle counts.

Each triangle is listed once by the forward scheme (Chiba & Nishizeki
1985; Latapy 2008): edges point up the (degree, id) ranking, and each pair
of out-edges of a vertex (an out-wedge) closes a triangle if the edge
between their heads exists. There are O(m * avg degeneracy) out-wedges:
numpy blocks of about ``_WEDGE_BLOCK`` expand whole out-lists with
``np.repeat``. The oriented edge keys, which ``graphs.stable_order``
sorts, are hashed once into a direct-mapped table of their positions, so
a wedge, which mostly does not close, costs one gather and one key
compare. The keys whose slot two keys share are hashed again, under
another multiplier, into a spare table; only the wedges whose spare slot
is shared too fall back to a ``searchsorted``. Counting adds each
block's edge ids to the per-edge counts in place. Counting for the peel
also keeps each triangle's edge ids and builds the edge -> triangle
incidence from them with one sort, and the vertex listing keeps each
triangle's vertices, both under the memory cap; count-only callers keep
none, and witness init and the bound report read the blocks as they
come. Only the vertex readers have the blocks build vertex rows.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .graphs import Graph, ValidationError, stable_order

DEFAULT_MEM_CAP = 4 * 2**30  # bytes a triangle listing or witness init may allocate
MEM_CAP_ENV = "TRUSSKIT_MEM_CAP"
_WEDGE_BLOCK = 1 << 13  # out-wedges closed per numpy block
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


class ResourceLimitError(Exception):
    """Configuration would exceed the configured memory budget."""


def mem_cap() -> int:
    """Memory budget in bytes: ``TRUSSKIT_MEM_CAP`` if set, else 4 GiB.
    ValidationError if it is set to no whole number of bytes, zero or more."""
    env = os.environ.get(MEM_CAP_ENV)
    try:
        cap = int(env) if env else DEFAULT_MEM_CAP
    except ValueError:
        cap = -1  # refused below, as a negative cap
    if cap < 0:
        raise ValidationError(f"{MEM_CAP_ENV}={env!r} is not a byte count")
    return cap


@dataclass
class TriangleCounts:
    """Exact triangle counts.

    ``per_edge``, an int64 array, counts at e the triangles through edge e
    and sums to three times ``total``. From ``triangle_counts``,
    ``listing[3t:3t + 3]`` holds triangle t's edge ids, if kept, and
    ``mem_estimate`` bounds the bytes of listing and incidence.
    """

    per_edge: np.ndarray
    total: int
    listing: array | None = field(default=None, repr=False, compare=False)
    mem_estimate: int = field(default=0, repr=False, compare=False)

    @cached_property
    def incidence(self) -> tuple[array, array]:
        """Edge -> triangle CSR ``(ptr, tri)``: the triangles through edge
        e are ``tri[ptr[e]:ptr[e + 1]]``, ascending, the low words of the
        int64 keys ``edge << 32 | triangle`` of the listed ids, sorted in place."""
        ptr = array("q", [0]) * (len(self.per_edge) + 1)
        np.cumsum(self.per_edge, out=np.frombuffer(ptr, np.int64)[1:])
        key = np.frombuffer(self.listing, np.int32).astype(np.int64).reshape(-1, 3)
        key <<= 32
        key |= np.arange(self.total)[:, None]  # row t holds triangle t's ids
        key = key.ravel()
        key.sort()
        key &= 0xFFFFFFFF
        tri = array("i", [0]) * len(key)
        np.frombuffer(tri, np.int32)[:] = key
        return ptr, tri


def _footprint(G: Graph, kept: int) -> int:
    """Bytes that listing G and keeping ``kept`` triangles with their
    incidence may allocate, as tracemalloc counts: arrays per vertex, per
    edge eight int64 words and two position tables (4-8 bytes, and 8-16
    for the spare one if every key shares a slot), a block's temporaries,
    and per triangle 56 bytes: the listing's three int32 ids with the
    incidence's int64 sort keys and int32 rows (48), later the listing,
    the rows, the peel's alive byte and the critical trials' int32 kill
    journal (29). Up to seven per-edge words are live as the blocks start,
    the counts among them, which each block adds its edge ids to in place."""
    per_edge = 64 * G.m + 4 * (_table_slots(G.m) + _table_slots(2 * G.m))
    return 64 * (G.n + 1) + per_edge + 160 * _WEDGE_BLOCK + 56 * kept + 65536


def _reserve(G: Graph, kept: int) -> int:
    """``_footprint``, or ResourceLimitError if it is over ``mem_cap()``."""
    need, cap = _footprint(G, kept), mem_cap()
    if need > cap:
        raise ResourceLimitError(
            f"triangle listing needs ~{need} bytes (n={G.n}, m={G.m}, {kept} "
            f"triangles kept), over the {cap}-byte cap; raise {MEM_CAP_ENV}"
        )
    return need


def _blocks(ends: np.ndarray, degrees: np.ndarray, vertices: bool = True) -> Iterator[tuple]:
    """Yield ``(opposite, edges)`` per wedge block of the graph of ``ends``
    and ``degrees``, as a Graph holds them, int64 (t, 3) arrays:
    ``edges`` holds each closed triangle's edge ids and ``opposite``,
    column for column, the vertex opposite each, or None unless
    ``vertices``. Callers check the cap."""
    n1, m = len(degrees), len(ends)
    if m == 0:
        return
    by_rank = stable_order(degrees, n1)
    rank = np.empty(n1, np.int64)
    rank[by_rank] = np.arange(n1)  # position in (degree, id) order
    u, v = rank[ends[:, 0]], rank[ends[:, 1]]
    keys = np.minimum(u, v) * n1 + np.maximum(u, v)  # edge (lo, hi) in rank order
    del u, v
    eid = stable_order(keys, n1 * n1)  # edge ids in (src, dst) order: the out-CSR
    keys = keys[eid]
    table, shift, crowd = _position_table(keys, np.arange(m, dtype=np.int32))
    spare, spare_shift, _ = _position_table(keys[crowd], crowd, rehash=True)
    del crowd
    src = keys // n1
    # slot s heads the later[s] wedges (s, t), t = s + 1, s + 2, ... in its out-list
    later = np.cumsum(np.bincount(src, minlength=n1))[src]
    del src
    later -= np.arange(1, m + 1)
    dst = (keys % n1).astype(np.int32)
    for s, t in _runs(np.arange(1, m + 1), later, _WEDGE_BLOCK):
        close = dst[s].astype(np.int64) * n1 + dst[t]
        at = table[_slots(close, shift)]
        shared = np.flatnonzero(at == -2)  # their keys have a spare slot each, or share one
        ask = close[shared]
        again = spare[_slots(ask, spare_shift, rehash=True)]
        worst = np.flatnonzero(again == -2)
        again[worst] = np.minimum(np.searchsorted(keys, ask[worst]), m - 1)
        at[shared] = again
        # an empty slot (-1) reads the last key, which is not ``close``
        hit = np.flatnonzero(keys[at] == close)  # indices gather faster than a random mask
        s, t, at = s[hit], t[hit], at[hit]
        opposite = by_rank[np.stack([dst[t], dst[s], keys[s] // n1], axis=1)] if vertices else None
        yield opposite, eid[np.stack([s, t, at], axis=1)]


def _slots(keys: np.ndarray, shift: np.uint64, rehash: bool = False) -> np.ndarray:
    """Slots of int64 ``keys`` in a table of 2^(64 - shift): the top bits
    of key * ``_HASH_MULT`` mod 2^64 (Fibonacci hashing), or of key *
    ``_HASH_MULT``^2 to ``rehash``, one new array."""
    slots = keys.view(np.uint64) * _HASH_MULT
    if rehash:
        slots *= _HASH_MULT
    slots >>= shift
    return slots.view(np.int64)


def _table_slots(m: int) -> int:
    """Slots of a position table over m keys: 2^ceil(log2 m), at least 2."""
    return 1 << max(m - 1, 1).bit_length()


def _position_table(keys: np.ndarray, pos: np.ndarray, rehash: bool = False) -> tuple:
    """Direct-mapped int32 table over ``keys``, its ``_slots`` shift and the
    ``pos`` of the keys whose slot is shared: a slot holds the int32 ``pos``
    of the one key hashed to it, -1 if none is and -2 if more are."""
    size = _table_slots(len(keys) << rehash)  # 1-2 slots per key, 2-4 in the spare table
    shift = np.uint64(65 - size.bit_length())
    table = np.full(size, -1, np.int32)
    at = _slots(keys, shift, rehash)
    table[at] = pos  # one key of a shared slot wins it, the others then mark it
    table[at[table[at] != pos]] = -2
    return table, shift, pos[table[at] == -2]


def _runs(first: np.ndarray, size: np.ndarray, chunk: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield the run i and the value ``first[i] + j`` of each j < ``size[i]``
    (``size`` non-empty), in chunks of about ``chunk`` values cut at run
    bounds. Besides ``size`` it keeps one value per run and drops ``first``."""
    offset = np.cumsum(size)  # each run's end position, for now
    cuts = np.searchsorted(offset, range(chunk, int(offset[-1]), chunk), side="right").tolist()
    offset -= size
    np.subtract(first, offset, out=offset)  # a run's first value minus its first position
    del first
    lo = 0  # the chunk's first position
    for a, b in zip([0, *cuts], [*cuts, len(size)]):
        if a < b:
            run = np.repeat(np.arange(a, b), size[a:b])
            yield run, np.arange(lo, lo + len(run)) + offset[run]
            lo += len(run)


def triangle_vertices(G: Graph) -> np.ndarray:
    """Every triangle of G as a row of its vertices, ascending, in an int32
    (T, 3) array. Raises ResourceLimitError before keeping a block that
    takes the listing estimate, with the triangles kept so far, over the
    cap; the array holds well under the estimate's bytes per triangle."""
    _reserve(G, 0)
    kept, total = [], 0
    for vertices, _ in _blocks(G.ends, G.degrees):
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
    listing = array("i") if keep_listing else None
    per_edge = np.zeros(G.m, dtype=np.int64)
    total = 0
    for _, edges in _blocks(G.ends, G.degrees, vertices=False):
        total += len(edges)
        if listing is not None:
            need = _reserve(G, total)
            listing.frombytes(edges.astype(np.int32).view(np.uint8))
        np.add.at(per_edge, edges.ravel(), 1)  # O(block) work, a bincount O(m)
    return TriangleCounts(per_edge, total, listing, need)


def out_wedges(G: Graph) -> int:
    """Out-wedges of the forward scheme, which bound its triangles: pairs
    of edges leaving one vertex, each edge leaving its smaller-degree
    endpoint, ties the smaller id."""
    d, (u, v) = G.degrees, G.ends.T  # u < v, so ties leave u
    out = np.bincount(np.where(d[u] <= d[v], u, v), minlength=G.n + 1)
    return int((out * (out - 1) // 2).sum())

