"""Edge invariants from powers of the directed-edge-indexed matrix.

The underlying object is the v^2 x v^2 matrix with entry
``A_ab * A_ac * A_bd`` at position ((a,b), (c,d)). Its power diagonals are
nonzero only at edge positions, and every nonzero product chain forces
each intermediate pair to be an edge, so restricting rows and columns to
the 2|E| directed edges is exact for diagonals of powers p >= 2. The
diagonal at (a,b) counts length-p walks in the "edges adjacent by ends"
structure.

That restriction ``B`` commutes with the swap (a,b) <-> (b,a), so it
splits into two blocks on the |E| undirected edges ``e = (a<b)``,
``f = (c<d)``: ``B+ = S + W`` on orientation-symmetric vectors and
``B- = S - W`` on antisymmetric ones, with ``S[e,f] = A_ac * A_bd`` and
``W[e,f] = A_ad * A_bc``. The unit vector of (a,b) is the sum of one of
each, divided by sqrt 2, so

    B^p[(a,b),(a,b)] = B^p[(b,a),(b,a)] = (B+^p[e,e] + B-^p[e,e]) / 2,
    tr(B^p) = tr(B+^p) + tr(B-^p).

Both blocks are integer matrices, so the sum is an exact, even integer
and halves exactly (in modular mode, by the inverse of 2 mod ``p1 * p2``).
Only the blocks are powered, one after the other, and their diagonals
summed and halved in one place (:func:`matpow.half_sum`). Powers 2..5
need only the syrk squares ``B±^2`` and ``B±^4`` of each block (see
:mod:`matpow`): a sixth of the flops of powering ``B`` by a syrk square
and a product. Exact mode checks the entries of the half powers of ``B+``
and ``B-``; a square formed for an odd power stays below 2**53.
``B+^h[e,f] = B^h[(a,b),(c,d)] + B^h[(a,b),(d,c)]`` and ``B^h >= 0``, so
they bound the entries of ``B^h`` in magnitude and are at most twice as
large: an overflow error comes whenever powering ``B`` gives one, and at
most one bit of range earlier (on T(8), edge power 11 is exact and 12
overflows, either way).

Both orientations of an edge share its diagonal value, so a table keeps
per power only the |E| values of the undirected edges, as an array (int64
when every value fits), with the map from directed to undirected edges;
the per-directed-edge tuples the API returns are built when read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .matpow import check_powers, fit_int64, half_sum, power_cache
from .vertexinv import InvariantMode


class BarMatrix:
    """The bar matrix split by orientation, over the undirected edges.

    ``blocks`` is the int8 (2, |E|, |E|) stack ``(B+, B-)`` on the edges
    ``e = (a<b)`` in lexicographic order; ``edge_of[i]`` is the undirected
    index of the i-th directed edge, in the row-major order of the nonzero
    adjacency entries.
    """

    __slots__ = ("blocks", "edge_of")

    def __init__(self, blocks: np.ndarray, edge_of: np.ndarray):
        self.blocks = blocks
        self.edge_of = edge_of

    @property
    def n(self) -> int:
        """Number of directed edges, 2|E|."""
        return len(self.edge_of)

    @property
    def is_empty(self) -> bool:
        return self.n == 0


def build_bar_matrix(g: Graph) -> BarMatrix:
    """Orientation blocks of the bar matrix; an edgeless graph yields empty ones."""
    a = g.dense().astype(np.int8)  # signed: B- has entries -1..1
    heads, tails = np.nonzero(np.triu(a))
    s = a[heads][:, heads] * a[tails][:, tails]  # A_ac * A_bd
    w = a[heads][:, tails] * a[tails][:, heads]  # A_ad * A_bc
    undirected = np.zeros(a.shape, dtype=np.intp)
    undirected[heads, tails] = undirected[tails, heads] = np.arange(len(heads))
    return BarMatrix(np.stack((s + w, s - w)), undirected[np.nonzero(a)])


# float64 storage for one block's base, B^2 and B^4, shared by the two
# blocks in turn and reused from one table to the next (one set per
# thread), so that a table does not fault in fresh pages for its powers;
# no table array points into them
_thread_buffers = threading.local()


def _bar_buffers(shape: tuple[int, ...]) -> list[np.ndarray]:
    bufs = getattr(_thread_buffers, "bufs", None)
    if bufs is None or bufs[0].shape != shape:
        bufs = _thread_buffers.bufs = [np.empty(shape) for _ in range(3)]
    return bufs


class BarPowerDiag:
    """Diagonal of one bar-matrix power, and its trace.

    ``values`` holds one value per undirected edge ``e = (a<b)``, in
    lexicographic order, as both orientations of an edge share it: exact
    values, or in modular mode residues mod ``p1 * p2``, the exact value
    below it; int64 when every value fits, else an object array of Python
    ints. ``edge_of`` maps each directed edge to its undirected index.
    ``per_pair`` (per directed edge, in row-major order of the adjacency)
    and ``sorted_values`` are tuples built on each read; the trace is a
    Python int.
    """

    __slots__ = ("power", "values", "edge_of", "trace")

    def __init__(self, power: int, values: np.ndarray, edge_of: np.ndarray, trace: int):
        self.power = power
        self.values = values
        self.edge_of = edge_of
        self.trace = trace

    @property
    def per_pair(self) -> tuple[int, ...]:
        return tuple(self.values[self.edge_of].tolist())

    @property
    def sorted_values(self) -> tuple[int, ...]:
        return tuple(np.sort(self.values[self.edge_of]).tolist())

    def __eq__(self, other):
        if not isinstance(other, BarPowerDiag):
            return NotImplemented
        return (self.power, self.trace, self.per_pair) == (other.power, other.trace, other.per_pair)

    def __hash__(self) -> int:
        return hash((self.power, self.trace))

    def __repr__(self) -> str:
        return f"BarPowerDiag(power={self.power}, per_pair={self.per_pair}, trace={self.trace})"


def bar_diag_table(
    g: Graph, powers, *, modulus: tuple[int, int] | None = None
) -> dict[int, BarPowerDiag]:
    """Diagonals of bar-matrix powers, all requested powers in one pass."""
    powers = check_powers(powers, minimum=2)
    bar = build_bar_matrix(g)
    if bar.is_empty:
        return {p: BarPowerDiag(p, np.zeros(0, np.int64), bar.edge_of, 0) for p in powers}
    buffers = _bar_buffers(bar.blocks[:1].shape)
    plus, minus = (_block_diags(block, powers, modulus, buffers) for block in bar.blocks)
    out = {}
    for p in powers:
        half, trace = half_sum(np.concatenate((plus[p], minus[p])), modulus)
        out[p] = BarPowerDiag(p, fit_int64(half), bar.edge_of, trace)
    return out


def _block_diags(block: np.ndarray, powers, modulus, buffers) -> dict[int, np.ndarray]:
    """The (1, |E|) diagonals of one orientation block's powers; its engine,
    and with it every power written into ``buffers``, is dropped on return."""
    cache = power_cache(block[None], modulus, buffers=buffers)
    return {p: cache.diag_array(p) for p in powers}


def bar_power_diag(
    g: Graph,
    p: int,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
) -> tuple[int, ...]:
    """Trace (one element) or ascending diagonal of the p-th bar power.

    p = 1 is rejected: the bar diagonal at (a,b) would be A_aa * A_bb = 0
    for every edge of a loop-free graph.
    """
    table = bar_diag_table(g, (p,), modulus=modulus)
    if mode is InvariantMode.TRACE:
        return (table[p].trace,)
    return table[p].sorted_values


@dataclass(frozen=True)
class EdgeBlock:
    value: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EdgePartition:
    """Directed edges grouped by equal power-diagonal value, ascending.

    Isomorphisms must map blocks onto blocks. Orientation symmetry makes
    (a,b) and (b,a) share a value, so reports list each undirected edge
    once.
    """

    power: int
    blocks: tuple[EdgeBlock, ...]

    def undirected_triples(self) -> list[list[int]]:
        """[a, b, value] per undirected edge (a < b), for JSON reports."""
        triples = []
        for block in self.blocks:
            for a, b in block.pairs:
                if a < b:
                    triples.append([a, b, block.value])
        triples.sort()
        return triples


def edge_partition(
    g: Graph, p: int, *, modulus: tuple[int, int] | None = None
) -> EdgePartition:
    return partition_edges(g, bar_diag_table(g, (p,), modulus=modulus)[p])


def partition_edges(g: Graph, diag: BarPowerDiag) -> EdgePartition:
    """Directed edges of ``g`` grouped by their values in ``diag``, a bar
    power diagonal of ``g`` from :func:`bar_diag_table`."""
    # row-major order of the nonzero entries is the lexicographic order
    heads, tails = np.nonzero(g.dense())
    groups: dict[int, list[tuple[int, int]]] = {}
    for pair, value in zip(zip(heads.tolist(), tails.tolist()), diag.per_pair):
        groups.setdefault(value, []).append(pair)
    blocks = tuple(
        EdgeBlock(value, tuple(groups[value])) for value in sorted(groups)
    )
    return EdgePartition(diag.power, blocks)
