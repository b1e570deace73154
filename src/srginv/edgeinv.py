"""Edge invariants from powers of the directed-edge-indexed matrix.

The underlying object is the v^2 x v^2 matrix with entry
``A_ab * A_ac * A_bd`` at position ((a,b), (c,d)). Its power diagonals are
nonzero only at edge positions, and every nonzero product chain forces
each intermediate pair to be an edge, so restricting rows and columns to
the 2|E| directed edges is exact for diagonals of powers p >= 2. The
diagonal at (a,b) counts length-p walks in the "edges adjacent by ends"
structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .matpow import check_powers, power_cache
from .vertexinv import InvariantMode


class DirectedEdgeIndex:
    """Lexicographically sorted directed edge pairs with reverse lookup."""

    __slots__ = ("pairs", "_pos")

    def __init__(self, pairs):
        self.pairs = tuple((int(a), int(b)) for a, b in pairs)
        self._pos = {ab: i for i, ab in enumerate(self.pairs)}

    @classmethod
    def from_graph(cls, g: Graph) -> "DirectedEdgeIndex":
        # row-major order of the nonzero entries is the lexicographic order
        heads, tails = np.nonzero(g.dense())
        return cls(zip(heads.tolist(), tails.tolist()))

    def position(self, a: int, b: int) -> int:
        return self._pos[(a, b)]

    def __len__(self) -> int:
        return len(self.pairs)


class BarMatrix:
    """0/1 matrix over directed edges; entry((a,b),(c,d)) = A_ac * A_bd."""

    __slots__ = ("index", "entries")

    def __init__(self, index: DirectedEdgeIndex, entries: np.ndarray):
        self.index = index
        self.entries = entries

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def is_empty(self) -> bool:
        return self.n == 0


def build_bar_matrix(g: Graph) -> BarMatrix:
    """Edge-restricted bar matrix; an edgeless graph yields the empty matrix."""
    a = g.dense()
    heads, tails = np.nonzero(a)
    index = DirectedEdgeIndex(zip(heads.tolist(), tails.tolist()))
    if not index.pairs:
        return BarMatrix(index, np.zeros((0, 0), dtype=np.uint8))
    entries = a[heads][:, heads] * a[tails][:, tails]
    return BarMatrix(index, entries)


@dataclass(frozen=True)
class BarPowerDiag:
    """Diagonal of one bar-matrix power: per directed edge, sorted, and trace."""

    power: int
    per_pair: tuple[int, ...]
    sorted_values: tuple[int, ...]
    trace: int


def bar_diag_table(
    g: Graph, powers, *, modulus: tuple[int, int] | None = None
) -> dict[int, BarPowerDiag]:
    """Diagonals of bar-matrix powers, all requested powers in one pass."""
    powers = check_powers(powers, minimum=2)
    bar = build_bar_matrix(g)
    if bar.is_empty:
        return {p: BarPowerDiag(p, (), (), 0) for p in powers}
    cache = power_cache(bar.entries[None, :, :], modulus)
    out = {}
    for p in powers:
        diag = cache.diag_array(p)[0]
        out[p] = BarPowerDiag(
            p, tuple(diag.tolist()), tuple(np.sort(diag).tolist()), cache.traces(p)[0]
        )
    return out


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
    index = DirectedEdgeIndex.from_graph(g)
    groups: dict[int, list[tuple[int, int]]] = {}
    for pair, value in zip(index.pairs, diag.per_pair):
        groups.setdefault(value, []).append(pair)
    blocks = tuple(
        EdgeBlock(value, tuple(groups[value])) for value in sorted(groups)
    )
    return EdgePartition(diag.power, blocks)
