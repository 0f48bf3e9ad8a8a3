"""Immutable undirected simple graphs over edge-end arrays.

Vertices carry contiguous 1-based internal ids; id 0 is reserved so that a
sum of vertex ids is zero only for the empty set (the witness tables rely
on this). Original input labels are kept alongside the internal ids so
edge lists round-trip through the serializer.

The parser reads ASCII text of canonical decimal labels with one numpy
read and numbers them through one table indexed by value; other ASCII text
it splits with one ``bytes.split()`` and numbers through one label map.
Text it cannot read either way, or rejects, goes through the line walk,
which names the offending line. ``text_rows`` formats every row output,
the serializer's included, from small string tables and int columns.
"""

from __future__ import annotations

import warnings
from itertools import chain, compress
from typing import Iterable, Iterator, Sequence

import numpy as np


class GraphError(Exception):
    """Base class for graph construction and validation failures."""


class ParseError(GraphError):
    """Malformed edge-list input."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(GraphError):
    """Structurally invalid input: self-loops, duplicate edges, bad ids."""


class InfeasibleError(Exception):
    """No valid construction exists for the requested parameters."""


class ConstructionError(Exception):
    """A generator produced a graph that failed its own verification."""


def stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative ints below
    ``bound``: an LSD radix sort, one stable argsort of uint16 digits,
    which numpy radix-sorts, per 16 bits of ``bound - 1``."""
    order = None
    for shift in range(0, max(bound - 1, 0).bit_length(), 16):
        digits = ((keys if order is None else keys[order]) >> shift).astype(np.uint16)
        step = np.argsort(digits, kind="stable")
        order = step if order is None else order[step]
    return np.arange(len(keys)) if order is None else order


_ROWS = 1024  # rows text_rows formats per piece


def text_rows(
    columns: Sequence[tuple[Sequence[str], np.ndarray]], order: np.ndarray
) -> Iterator[str]:
    """Text of the rows whose column j reads ``table[index[r]]`` for the
    j-th pair ``(table, index)`` of ``columns``: string tables that carry
    their own separators, and int arrays of one length. Rows r come in
    ``order``, ``_ROWS`` to a piece, and a row with an index of -1 is
    skipped. A piece gathers its bytes from one buffer of the encoded
    tables, each distinct table once: piece lengths, their offsets, one
    repeat."""
    enc, first = [], {}  # the encoded entries, and each table's first one
    for table, _ in columns:
        if id(table) not in first:
            first[id(table)] = len(enc)
            enc += [s.encode(errors="surrogatepass") for s in table]
    buf = np.frombuffer(b"".join(enc), np.uint8)
    size = np.fromiter(map(len, enc), np.int64, len(enc))
    start = np.cumsum(size) - size
    base = np.array([first[id(table)] for table, _ in columns])
    del enc
    for lo in range(0, len(order), _ROWS):
        rows = order[lo : lo + _ROWS]
        piece = np.stack([at[rows] for _, at in columns], axis=1) + base
        keep = np.logical_and.reduce([piece[:, j] >= b for j, b in enumerate(base)])
        piece = piece[keep].ravel()
        width = size[piece]
        shift = start[piece] - np.cumsum(width) + width  # a piece's source minus its place
        text = buf[np.repeat(shift, width) + np.arange(width.sum())].tobytes()
        yield text.decode(errors="surrogatepass")


class Graph:
    """Undirected simple graph, immutable after construction.

    ``ends[e]`` is the endpoint pair (u, v), u < v, of the dense edge id e
    in [0, m), in input order, ``degrees[v]`` the degree of v (slot 0
    unused) and ``pair_order`` the edge ids sorted by endpoint pair.
    ``csr``, built on first use, is ``(indptr, nbr, slot_edge)``: the
    neighbours of v, ascending, are ``nbr[indptr[v]:indptr[v + 1]]``, and
    slot s is edge ``slot_edge[s]``. Every array is read-only, so a Graph
    is safe to share across concurrent workers.
    """

    __slots__ = ("n", "m", "labels", "ends", "degrees", "pair_order", "_csr")

    def __init__(self, labels: Sequence[str], pairs: Iterable[tuple[int, int]] | np.ndarray):
        n = len(labels)
        if not isinstance(pairs, np.ndarray):
            pairs = np.fromiter(chain.from_iterable(pairs), np.int64)
        raw = pairs.astype(np.int64, copy=False).reshape(-1, 2)
        lo, hi = np.minimum(raw[:, 0], raw[:, 1]), np.maximum(raw[:, 0], raw[:, 1])
        keys = lo * (n + 1) + hi
        # keys out of range sort by their low bits: any repeat hidden follows a bad row
        order = stable_order(keys, (n + 1) ** 2)
        keys = keys[order]
        bad = np.flatnonzero((lo < 1) | (hi > n) | (lo == hi))
        twins = order[1:][keys[1:] == keys[:-1]]  # later rows of a repeated pair
        if bad.size or twins.size:
            u, v = raw[min(bad[:1].tolist() + twins.tolist())].tolist()
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValidationError(f"vertex id out of range in edge ({u}, {v})")
            if u == v:
                raise ValidationError(f"self-loop on vertex {u}")
            raise ValidationError(f"duplicate edge {(min(u, v), max(u, v))}")
        self.n, self.m = n, len(raw)
        self.labels = ("", *map(str, labels))
        self.ends = np.stack([lo, hi], axis=1)
        self.degrees = np.bincount(self.ends.ravel(), minlength=n + 1)
        self.pair_order, self._csr = order, None
        for a in (self.ends, self.degrees, order):
            a.setflags(write=False)

    # -- basic accessors ------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._csr is None:
            src, dst = self.ends.ravel(), self.ends[:, ::-1].ravel()
            slots = stable_order(src * (self.n + 1) + dst, (self.n + 1) ** 2)  # 2e, 2e + 1: edge e
            indptr = np.zeros(self.n + 2, np.int64)
            np.cumsum(self.degrees, out=indptr[1:])
            self._csr = (indptr, dst[slots], slots // 2)
            for a in self._csr:
                a.setflags(write=False)
        return self._csr

    def serialize(self) -> str:
        """Edge-list text, one "u v" line per edge sorted by (min, max) id."""
        head, tail = [s + " " for s in self.labels], [s + "\n" for s in self.labels]
        rows = [(head, self.ends[:, 0]), (tail, self.ends[:, 1])]
        return "".join(text_rows(rows, self.pair_order))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(
            self.ends[self.pair_order], other.ends[other.pair_order])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# -- construction --------------------------------------------------------


def from_edges(n: int, pairs: Iterable[tuple[int, int]] | np.ndarray) -> Graph:
    """Build a graph on vertices 1..n from internal-id edge pairs.

    Labels are the decimal ids. Vertices not touched by any edge are kept
    (possibly isolated); generators avoid emitting such vertices.
    """
    return Graph([str(i) for i in range(1, n + 1)], pairs)


# byte classes of the split parse: 0 label, 1 blank, 2 line break, and 3 for
# the bytes that str.split/splitlines and bytes.split disagree on
_BYTE_CLASS = np.zeros(256, np.uint8)
_BYTE_CLASS[[9, 32]] = 1
_BYTE_CLASS[[10, 13]] = 2
_BYTE_CLASS[[11, 12, 28, 29, 30, 31, *range(128, 256)]] = 3
_SPREAD = 4  # decimal labels up to this many times the token count index a table


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse whitespace-separated "u v" lines into a Graph.

    Lines starting with '#' and blank lines are skipped. Vertex labels are
    arbitrary tokens, mapped to ids 1..n in first-appearance order.
    Self-loops and duplicate edges are rejected, and so is text that is not
    UTF-8, each with its line number. ASCII text is read in one pass, by
    numpy if its labels are canonical decimals, else by one split; the
    line walk reads the rest and names the line of any error.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else bytes(text)
    return _split_parse(data) or _walk_lines(text)


def _split_parse(data: bytes) -> Graph | None:
    """The Graph of ``data`` read in one pass, or None if it holds a byte
    of class 3, a line without two labels that is neither blank nor headed
    by a label starting with '#', a self-loop or a duplicate edge."""
    cls = _BYTE_CLASS[np.frombuffer(data, np.uint8)]
    starts = np.flatnonzero(np.diff(cls == 0, prepend=False))[::2]  # a label's start, then its end
    line = np.searchsorted(np.flatnonzero(cls == 2), starts)  # of each label
    keep = None
    if b"#" in data:  # drop the comment lines, those a label starting with '#' heads
        hashed = np.flatnonzero(np.frombuffer(data, np.uint8)[starts] == ord("#"))
        keep = ~np.isin(line, line[hashed[np.diff(line, prepend=-1)[hashed] > 0]])
        line = line[keep]
    if cls.max(initial=0) == 3 or not np.isin(np.bincount(line), (0, 2)).all():
        return None
    count, size = len(starts), len(cls) - np.count_nonzero(cls)
    del cls, starts, line
    decimal = _decimal_ids(data, count, size) if keep is None else None
    if decimal:
        labels, flat = decimal
    else:
        tokens = data.split() if keep is None else list(compress(data.split(), keep.tolist()))
        ids = {label: i for i, label in enumerate(dict.fromkeys(tokens), start=1)}
        flat = np.fromiter(map(ids.__getitem__, tokens), np.int64, len(tokens))
        labels = [label.decode() for label in ids]
        del tokens, ids
    try:
        return Graph(labels, flat.reshape(-1, 2))
    except ValidationError:
        return None


def _decimal_ids(data: bytes, count: int, size: int) -> tuple[list[int], np.ndarray] | None:
    """The labels of ``data``, in first-appearance order, and each token's
    id, if its ``count`` tokens, ``size`` bytes in all, are canonical
    decimals (no sign, no leading zero) below ``_SPREAD * count``; else
    None. One numpy read, then one table indexed by value."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            values = np.fromstring(data, np.int64, sep=" ")
        except (ValueError, DeprecationWarning):  # a non-decimal token; older numpy warns
            return None
    top = int(values.max(initial=-1))
    if len(values) != count or top < 0 or values.min() < 0 or top >= _SPREAD * count:
        return None
    # a sign, a leading zero or any other byte leaves fewer digits than label bytes
    if count + sum(np.count_nonzero(values >= 10**k) for k in range(1, len(str(top)))) != size:
        return None
    table, at = np.empty(top + 1, np.int64), np.arange(count)
    table[values[::-1]] = at[::-1]  # each value's first position: the last write wins
    first = table[values]
    if (first > at).any():  # numpy promises no order for repeated indices
        return None
    labels = values[first == at]
    del first
    table[labels] = np.arange(1, len(labels) + 1)
    return labels.tolist(), table[values]


def _walk_lines(text: str | bytes) -> Graph:
    """Parse line by line through one label map and one edge dict, raising
    at the first bad line with its number."""
    if not isinstance(text, str):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            data, at = exc.object, exc.start
            raise ParseError(f"byte 0x{data[at]:02x} is not UTF-8",
                             len((data[:at].decode() + "x").splitlines())) from None
    ids: dict[str, int] = {}
    pairs: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2:
            raise ParseError(f"expected two tokens, got {raw.strip()!r}", line_no)
        a, b = parts
        if a == b:
            raise ValidationError(f"line {line_no}: self-loop on {a!r}")
        u = ids.setdefault(a, len(ids) + 1)
        v = ids.setdefault(b, len(ids) + 1)
        key = (u, v) if u < v else (v, u)
        if key in pairs:
            raise ValidationError(f"line {line_no}: duplicate edge {a!r} {b!r}")
        pairs[key] = len(pairs)
    return Graph(list(ids), pairs)

