"""Vertex invariants from powers of neighborhood-restricted adjacency matrices.

For a vertex ``a`` the matrix A|_{N_a} is the adjacency matrix induced on
its neighborhood; the diagonal of its p-th power counts closed length-p
walks that stay inside the neighborhood. Either the trace or the
ascending-sorted diagonal is a relabeling invariant of the vertex; the
lexicographically sorted list over all vertices is a graph invariant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .matpow import check_powers, power_cache


class InvariantMode(enum.Enum):
    TRACE = "trace"
    SORTED_DIAG = "sortdiag"


@dataclass(frozen=True)
class VertexSignature:
    vertex: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class GraphSignature:
    """Per-vertex invariant vectors, lexicographically sorted ascending."""

    rows: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class VertexPartition:
    """Blocks of vertices sharing identical signatures.

    Blocks are ordered by ascending signature (shorter vectors first, then
    elementwise); vertices inside a block ascend. Automorphisms can only
    permute vertices within a block.
    """

    blocks: tuple[tuple[int, ...], ...]
    signatures: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class OutblockSignature:
    """Base graph signature, extended by the signature of the subgraph left
    after deleting the first (smallest-signature) block.

    ``refined`` is False when the base partition has a single block; the
    tail is then absent and the base signature stands alone.
    """

    base: GraphSignature
    refined: bool
    removed: tuple[int, ...]
    tail: GraphSignature | None


def row_sort_key(values: tuple[int, ...]):
    # Different lengths only occur across different-degree vertices; compare
    # by length first so the order is total.
    return (len(values), values)


class NeighborhoodPowerCache:
    """Per-vertex diagonals/traces of neighborhood powers, cached by power.

    Only the small diagonal tuples persist; matrices are dropped when
    ``ensure`` returns, so this stays cheap enough to keep alive per graph
    across the escalation ladder.
    """

    def __init__(self, g: Graph, modulus: tuple[int, int] | None = None):
        self.graph = g
        self.modulus = modulus
        self._diag: dict[int, list[tuple[int, ...]]] = {}
        self._trace: dict[int, list[int]] = {}

    def ensure(self, powers) -> None:
        """Sorted diagonals and traces of (A|_{N_a})^p for every vertex, for
        each power not cached yet.

        Vertices are batched by degree, and each batch is gathered in one
        step into a stacked matrix; a k-regular graph is a single (v, k, k)
        stack.
        """
        missing = sorted(set(powers) - self._diag.keys())
        if not missing:
            return
        dense = self.graph.dense()
        degrees = dense.sum(axis=1)
        caches = []
        for d in np.unique(degrees).tolist():
            verts = np.flatnonzero(degrees == d)
            nb = np.nonzero(dense[verts])[1].reshape(len(verts), d)
            caches.append(power_cache(dense[nb[:, :, None], nb[:, None, :]], self.modulus))
        # batches run in ascending degree; `back` puts their rows in vertex order
        back = np.argsort(np.argsort(degrees, kind="stable")).tolist()
        for p in missing:
            rows = [tuple(r) for c in caches for r in np.sort(c.diag_array(p), axis=1).tolist()]
            traces = [t for c in caches for t in c.trace_array(p).tolist()]
            self._diag[p] = [rows[i] for i in back]
            self._trace[p] = [traces[i] for i in back]

    def diag(self, p: int) -> list[tuple[int, ...]]:
        self.ensure((p,))
        return self._diag[p]

    def trace(self, p: int) -> list[int]:
        self.ensure((p,))
        return self._trace[p]

    def signature_values(
        self, powers: tuple[int, ...], mode: InvariantMode
    ) -> list[tuple[int, ...]]:
        """Per-vertex concatenation across powers, in vertex order."""
        self.ensure(powers)
        if mode is InvariantMode.TRACE:
            return list(zip(*(self._trace[p] for p in powers)))
        return [sum(rows, ()) for rows in zip(*(self._diag[p] for p in powers))]


def nbhd_power_diag(
    g: Graph,
    a: int,
    p: int,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
) -> tuple[int, ...]:
    """Trace (one element) or ascending diagonal of (A|_{N_a})^p."""
    g._check_vertex(a)
    if p < 1:
        raise ValueError(f"power must be >= 1, got {p}")
    nb = g.neighborhood(a)
    sub = g.dense()[np.ix_(nb, nb)]
    cache = power_cache(sub[None, :, :], modulus)
    if mode is InvariantMode.TRACE:
        return (cache.traces(p)[0],)
    return tuple(sorted(cache.diagonals(p)[0]))


def vertex_signatures(
    g: Graph,
    powers,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
) -> list[VertexSignature]:
    powers = check_powers(powers)
    cache = NeighborhoodPowerCache(g, modulus)
    values = cache.signature_values(powers, mode)
    return [VertexSignature(a, vals) for a, vals in enumerate(values)]


def graph_signature(
    g: Graph,
    powers,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
) -> GraphSignature:
    """Lex-sorted vertex signatures; identical for isomorphic graphs."""
    sigs = vertex_signatures(g, powers, mode, modulus=modulus)
    rows = tuple(sorted((s.values for s in sigs), key=row_sort_key))
    return GraphSignature(rows)


def partition_vertices(signatures) -> VertexPartition:
    """Group vertices by identical signature vectors.

    A single block is a normal outcome (the invariants could not split the
    vertices), not an error.
    """
    signatures = list(signatures)
    if not signatures:
        raise ValueError("cannot partition an empty signature list")
    groups: dict[tuple[int, ...], list[int]] = {}
    for s in signatures:
        groups.setdefault(s.values, []).append(s.vertex)
    ordered = sorted(groups, key=row_sort_key)
    return VertexPartition(
        blocks=tuple(tuple(sorted(groups[key])) for key in ordered),
        signatures=tuple(ordered),
    )


def outblock_signature(
    g: Graph,
    powers,
    mode: InvariantMode,
    *,
    modulus: tuple[int, int] | None = None,
    nbhd: NeighborhoodPowerCache | None = None,
) -> OutblockSignature:
    """Base signature plus the signature after deleting the first block.

    The "first block" is the one with the lexicographically smallest
    signature; removal happens exactly once. ``nbhd``, a cache of ``g``
    under the same modulus, supplies the base signature from the powers
    it already holds; only the tail subgraph is computed fresh.
    """
    powers = check_powers(powers)
    if nbhd is None:
        nbhd = NeighborhoodPowerCache(g, modulus)
    elif nbhd.graph != g or nbhd.modulus != modulus:
        raise ValueError("nbhd must be a cache of g under the same modulus")
    values = nbhd.signature_values(powers, mode)
    if not values:
        raise ValueError("cannot partition an empty signature list")
    base = GraphSignature(tuple(sorted(values, key=row_sort_key)))
    first = base.rows[0]
    if first == base.rows[-1]:
        return OutblockSignature(base, False, (), None)
    removed = tuple(a for a, vals in enumerate(values) if vals == first)
    keep = tuple(a for a, vals in enumerate(values) if vals != first)
    tail = graph_signature(g.induced_subgraph(keep), powers, mode, modulus=modulus)
    return OutblockSignature(base, True, removed, tail)
