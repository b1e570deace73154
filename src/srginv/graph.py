"""Graph representation, graph6 / adjacency-row parsing, and
strongly-regular-graph checks.

``parse_graphs`` takes the format from the text itself: a first
non-blank ``0`` or ``1`` starts adjacency rows, anything else graph6,
whose characters (and ``>>graph6<<`` header) can never be ``0`` or ``1``.

Vertices are 0-based everywhere. A graph stores one bit row per vertex as
an arbitrary-precision integer, so neighborhood intersection and the
isomorphism search work on whole machine words. The dense numpy view the
matrix-power kernels read is kept from the matrix a graph is built from
(``Graph.from_dense``, which both parsers call), else derived lazily.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# graph6 caps out at 2^18 vertices for this package; the dense kernels are
# meant for the SRG dataset scale (v <= a few hundred) anyway.
MAX_VERTICES = 1 << 18

GRAPH6_HEADER = ">>graph6<<"
_NOT_GRAPH6 = re.compile("[^?-~]")  # any character outside 63..126
_SIX_BITS = bytes((c - 63) % 256 for c in range(256))  # graph6 byte -> 6-bit value


class GraphFormatError(ValueError):
    """Malformed graph6 record or adjacency-row block."""


@dataclass(frozen=True)
class SrgParams:
    """The (v, k, lambda, mu) tuple of a strongly regular graph.

    ``lam`` is None for edgeless graphs (no adjacent pairs constrain it)
    and ``mu`` is None for complete graphs, where the parameter is
    undefined rather than the graph being rejected.
    """

    v: int
    k: int
    lam: int | None
    mu: int | None

    def key(self) -> str:
        lam = "*" if self.lam is None else self.lam
        mu = "*" if self.mu is None else self.mu
        return f"{self.v}-{self.k}-{lam}-{mu}"

    def sort_key(self) -> tuple[int, int, int, int]:
        return (
            self.v,
            self.k,
            -1 if self.lam is None else self.lam,
            -1 if self.mu is None else self.mu,
        )

    @property
    def degenerate(self) -> bool:
        return self.lam is None or self.mu is None


def _bits_of(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _validate_rows(v: int, rows: tuple[int, ...]) -> None:
    if v < 0:
        raise ValueError(f"vertex count must be >= 0, got {v}")
    if len(rows) != v:
        raise ValueError(f"expected {v} bit rows, got {len(rows)}")
    for a, row in enumerate(rows):
        if row < 0 or row >> v:
            raise ValueError(f"row {a} has bits outside 0..{v - 1}")
        if (row >> a) & 1:
            raise ValueError(f"self-loop at vertex {a}")
        for b in _bits_of(row):
            if not (rows[b] >> a) & 1:
                raise ValueError(f"asymmetric adjacency at ({a}, {b})")


class Graph:
    """Immutable undirected simple graph on vertices 0..v-1."""

    __slots__ = ("v", "rows", "_dense")

    def __init__(self, v: int, rows, _validated: bool = False):
        rows = tuple(int(r) for r in rows)
        if not _validated:
            _validate_rows(v, rows)
        self.v = v
        self.rows = rows
        self._dense = None

    # a pickle holds the bit rows, not the dense cache
    def __reduce__(self):
        return Graph, (self.v, self.rows, True)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.v == other.v
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.v, self.rows))

    def __repr__(self) -> str:
        return f"Graph(v={self.v}, edges={self.edge_count})"

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def _check_vertex(self, a: int) -> int:
        if not 0 <= a < self.v:
            raise ValueError(f"vertex {a} out of range 0..{self.v - 1}")
        return a

    def degree(self, a: int) -> int:
        return self.rows[self._check_vertex(a)].bit_count()

    def has_edge(self, a: int, b: int) -> bool:
        self._check_vertex(b)
        return bool((self.rows[self._check_vertex(a)] >> b) & 1)

    def neighborhood(self, a: int) -> tuple[int, ...]:
        """Neighbors of ``a`` in strictly increasing order."""
        return tuple(_bits_of(self.rows[self._check_vertex(a)]))

    def dense(self) -> np.ndarray:
        """Read-only uint8 adjacency matrix (cached)."""
        if self._dense is None:
            v = self.v
            nbytes = (v + 7) // 8 if v else 1
            buf = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
            if v:
                mat = np.unpackbits(
                    np.frombuffer(buf, dtype=np.uint8).reshape(v, nbytes),
                    axis=1,
                    bitorder="little",
                )[:, :v]
            else:
                mat = np.zeros((0, 0), dtype=np.uint8)
            mat = np.ascontiguousarray(mat)
            mat.flags.writeable = False
            self._dense = mat
        return self._dense

    def induced_subgraph(self, sel) -> "Graph":
        """Subgraph on the strictly increasing vertex list ``sel``.

        An empty selection yields the 0-vertex graph; downstream invariant
        code treats it uniformly (empty signatures).
        """
        sel = tuple(sel)
        prev = -1
        for s in sel:
            if s <= prev:
                raise ValueError(f"selection must be strictly increasing, got {sel}")
            if s >= self.v:
                raise ValueError(f"vertex {s} out of range 0..{self.v - 1}")
            prev = s
        sub = self.dense()[np.ix_(sel, sel)]
        return Graph.from_dense(sub, _validated=True)

    def to_graph6(self) -> str:
        return write_graph6(self)

    @classmethod
    def from_dense(cls, mat, _validated: bool = False) -> "Graph":
        """The graph whose edges are the nonzero entries of ``mat``; a
        read-only uint8 0/1 copy of it becomes the dense cache."""
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {mat.shape}")
        dense = np.ascontiguousarray(mat != 0, dtype=np.uint8)
        packed = np.packbits(dense, axis=1, bitorder="little")
        rows = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
        g = cls(mat.shape[0], rows, _validated=_validated)
        dense.flags.writeable = False
        g._dense = dense
        return g

    @classmethod
    def from_edges(cls, v: int, edges) -> "Graph":
        rows = [0] * v
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop ({a}, {b}) not allowed")
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"edge ({a}, {b}) out of range for v={v}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(v, rows, _validated=True)


# ---------------------------------------------------------------------------
# graph6


def _graph6_values(s: str, lo: int, hi: int, base: int) -> bytes:
    """The 6-bit values of ``s[lo:hi]``, one byte each.

    The first character outside 63..126 (non-ASCII and lone surrogates
    included) raises, named by its byte offset; ``s`` starts at ``base``.
    """
    bad = _NOT_GRAPH6.search(s, lo, hi)
    if bad:
        i = bad.start()
        raise GraphFormatError(
            f"byte {base + i}: character {s[i]!r} outside graph6 range 63..126"
        )
    return s[lo:hi].encode("ascii").translate(_SIX_BITS)


def _decode_graph6_size(s: str, base: int) -> tuple[int, int]:
    """Vertex count and index of the first data character."""
    c0 = _graph6_values(s, 0, 1, base)[0]
    if c0 < 63:
        return c0, 1
    # '~' prefix: 18-bit form in bytes 1..3, '~~' prefix: 36-bit form in bytes 2..7
    head = 2 if s[1:2] == "~" else 1
    start = 4 * head
    if len(s) < start:
        raise GraphFormatError(f"byte {base}: truncated graph6 size header")
    n = 0
    for x in _graph6_values(s, head, start, base):
        n = (n << 6) | x
    return n, start


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (an optional '>>graph6<<' prefix is stripped).

    Parse errors name the byte offset within the given string.
    """
    s = text.strip()
    base = text.index(s[0]) if s else 0
    if s.startswith(GRAPH6_HEADER):
        base += len(GRAPH6_HEADER)
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 record")
    if s[0] == ":":
        raise GraphFormatError(f"byte {base}: sparse6 records are not supported")
    if s[0] == "&":
        raise GraphFormatError(f"byte {base}: digraph6 records are not supported")

    v, start = _decode_graph6_size(s, base)
    if v > MAX_VERTICES:
        raise GraphFormatError(f"byte {base}: vertex count {v} exceeds {MAX_VERTICES}")
    if v == 0:
        raise GraphFormatError(f"byte {base}: record encodes an empty vertex set")

    need = v * (v - 1) // 2
    ndata = (need + 5) // 6
    data = s[start:]
    if len(data) < ndata:
        raise GraphFormatError(
            f"byte {base + len(s)}: truncated record ({len(data)} data bytes, need {ndata})"
        )
    if len(data) > ndata:
        raise GraphFormatError(
            f"byte {base + start + ndata}: unexpected trailing characters"
        )

    vals = np.frombuffer(_graph6_values(s, start, len(s), base), dtype=np.uint8)
    bits = np.unpackbits(vals[:, None], axis=1)[:, 2:].ravel()

    tail = bits[need:]
    if tail.any():
        bad = need + int(np.argmax(tail))
        raise GraphFormatError(
            f"byte {base + start + bad // 6}: nonzero padding bits at end of record"
        )

    mat = np.zeros((v, v), dtype=np.uint8)
    tr, tc = np.tril_indices(v, -1)  # (j, i) pairs in graph6 bit order
    mat[tr, tc] = bits[:need]
    mat |= mat.T
    return Graph.from_dense(mat, _validated=True)


def write_graph6(g: Graph) -> str:
    if g.v == 0 or g.v > MAX_VERTICES:
        raise ValueError(f"cannot encode a graph on {g.v} vertices")
    v = g.v
    if v <= 62:
        head = chr(63 + v)
    elif v <= 258047:
        head = "~" + "".join(chr(63 + ((v >> s) & 63)) for s in (12, 6, 0))
    else:
        head = "~~" + "".join(chr(63 + ((v >> s) & 63)) for s in (30, 24, 18, 12, 6, 0))
    tr, tc = np.tril_indices(v, -1)
    bits = g.dense()[tr, tc]
    pad = (-len(bits)) % 6
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 6)
    vals = groups @ np.array([32, 16, 8, 4, 2, 1], dtype=np.int64)
    return head + "".join(chr(63 + int(x)) for x in vals)


# ---------------------------------------------------------------------------
# raw 0/1 adjacency rows


def parse_adjacency_rows(text: str) -> list[Graph]:
    """Parse blocks of v lines of v characters from {0,1}, blank-line separated.

    Lines end at ``"\\n"`` only, as in :func:`parse_graphs`. Errors name
    the (0-based) block index and line within the block.
    """
    graphs: list[Graph] = []
    block: list[str] = []
    blocks: list[list[str]] = []
    for raw in text.split("\n"):
        line = raw.strip()
        if line:
            block.append(line)
        elif block:
            blocks.append(block)
            block = []
    if block:
        blocks.append(block)

    for bi, lines in enumerate(blocks):
        v = len(lines)
        for li, line in enumerate(lines):
            if len(line) != v:
                raise GraphFormatError(
                    f"block {bi}, line {li}: expected {v} characters, got {len(line)}"
                )
            stray = set(line) - {"0", "1"}
            if stray:
                raise GraphFormatError(
                    f"block {bi}, line {li}: stray character {min(stray)!r}"
                )
        mat = np.frombuffer("".join(lines).encode("ascii"), dtype=np.uint8).reshape(v, v) - ord("0")
        if np.any(np.diagonal(mat)):
            a = int(np.argmax(np.diagonal(mat)))
            raise GraphFormatError(f"block {bi}, line {a}: nonzero diagonal entry")
        if not np.array_equal(mat, mat.T):
            r, c = np.argwhere(mat != mat.T)[0]
            raise GraphFormatError(
                f"block {bi}, line {int(r)}: asymmetric entry at column {int(c)}"
            )
        graphs.append(Graph.from_dense(mat, _validated=True))
    return graphs


def detect_format(text: str) -> str:
    """'rows' when the first non-blank character is 0/1, else 'graph6'."""
    for ch in text:
        if not ch.isspace():
            return "rows" if ch in "01" else "graph6"
    return "graph6"


def parse_graphs(text: str) -> list[Graph]:
    """Parse a whole file worth of graphs in the format ``detect_format`` reads.

    Lines end at ``"\\n"`` only (readers translate other newlines), so a
    form feed, ``\\x1c`` or ``\\u2028`` stays inside its record, which then
    fails as a whole.
    """
    if detect_format(text) == "rows":
        return parse_adjacency_rows(text)
    graphs = []
    for ln, raw in enumerate(text.split("\n")):
        line = raw.strip()
        if not line or line == GRAPH6_HEADER:
            continue
        try:
            graphs.append(parse_graph6(line))
        except GraphFormatError as e:
            raise GraphFormatError(f"line {ln}: {e}") from None
    return graphs


# ---------------------------------------------------------------------------
# strongly regular graphs


def srg_diagnosis(g: Graph) -> tuple[SrgParams | None, str | None]:
    """(params, None) when g is strongly regular, else (None, reason)."""
    if g.v < 2:
        return None, "fewer than 2 vertices"
    a = g.dense()
    deg = a.sum(axis=1, dtype=np.int64)
    k = int(deg[0])
    if int(deg.min()) != int(deg.max()):
        return None, f"not regular (degrees {int(deg.min())}..{int(deg.max())})"
    # common-neighbor counts; exact in float64 since entries are <= v < 2^53
    common = (a.astype(np.float64) @ a.astype(np.float64)).astype(np.int64)
    off = ~np.eye(g.v, dtype=bool)
    adjacent = a.astype(bool)
    lam_vals = np.unique(common[adjacent])
    mu_vals = np.unique(common[off & ~adjacent])
    if lam_vals.size > 1:
        return None, (
            "adjacent pairs have differing common-neighbor counts "
            f"({int(lam_vals.min())}..{int(lam_vals.max())})"
        )
    if mu_vals.size > 1:
        return None, (
            "non-adjacent pairs have differing common-neighbor counts "
            f"({int(mu_vals.min())}..{int(mu_vals.max())})"
        )
    lam = int(lam_vals[0]) if lam_vals.size else None
    mu = int(mu_vals[0]) if mu_vals.size else None
    return SrgParams(g.v, k, lam, mu), None


def check_srg(g: Graph) -> SrgParams | None:
    """SrgParams when g is strongly regular (None otherwise).

    A non-SRG is a normal negative answer, not an error. Complete and
    edgeless graphs come back with the undefined parameter set to None.
    """
    params, _ = srg_diagnosis(g)
    return params
