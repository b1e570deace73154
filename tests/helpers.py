"""Shared test fixtures and independent oracles.

The dense tilde/bar constructions here build the full v^2 x v^2 matrices
straight from their definitions and power them in exact object
arithmetic; they exist to check the restricted kernels and must stay
independent of them.
"""

from __future__ import annotations

import random

import numpy as np

from srginv.catalog import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    paley_graph,
    path_graph,
    petersen_graph,
    rook_graph,
    shrikhande_graph,
    star_graph,
    triangular_graph,
)
from srginv.graph import Graph

# matpow thresholds to monkeypatch, lowered so that small matrices run
# every arithmetic path
TIERS = {
    "float64": {},
    "int64": {"_FLOAT_SAFE": 0},
    "object": {"_FLOAT_SAFE": 0, "_INT64_SAFE": 0},
}


def residue(x: int, modulus: tuple[int, int] | None) -> int:
    """``x`` as modular mode reports it: its residue mod ``p1 * p2``, the
    exact value below it; ``x`` itself without a modulus."""
    return x if modulus is None else x % (modulus[0] * modulus[1])


def er_graph(v: int, seed: int, p: float = 0.5) -> Graph:
    """Seeded Erdos-Renyi graph."""
    rng = random.Random(seed)
    edges = [(a, b) for a in range(v) for b in range(a + 1, v) if rng.random() < p]
    return Graph.from_edges(v, edges)


def prism_graph() -> Graph:
    """K3 x K2: 3-regular on 6 vertices, with triangles (unlike K33)."""
    return Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )


def fixture_graphs() -> dict[str, Graph]:
    return {
        "rook4": rook_graph(4),
        "shrikhande": shrikhande_graph(),
        "petersen": petersen_graph(),
        "c5": cycle_graph(5),
        "paley13": paley_graph(13),
        "paley17": paley_graph(17),
        "t5": triangular_graph(5),
        "k33": complete_bipartite_graph(3, 3),
        "prism": prism_graph(),
        "k4": complete_graph(4),
        "star3": star_graph(3),
        "path4": path_graph(4),
    }


def srg_fixtures() -> dict[str, Graph]:
    keep = ("rook4", "shrikhande", "petersen", "c5", "paley13", "paley17", "t5", "k33")
    fx = fixture_graphs()
    return {k: fx[k] for k in keep}


def directed_edges(g: Graph) -> list[tuple[int, int]]:
    """Both orientations of every edge, in lexicographic order: the order
    of ``BarPowerDiag.per_pair``."""
    return [(a, b) for a in range(g.v) for b in range(g.v) if g.has_edge(a, b)]


def dense_tilde_power_diag(g: Graph, p: int) -> dict[tuple[int, int], int]:
    """Diagonal of the p-th power of the full v^2 x v^2 matrix with entry
    A_ab * A_ac * delta_bd at ((a,b),(c,d)), keyed by (a, b)."""
    v = g.v
    a = g.dense().astype(object)
    m = np.zeros((v * v, v * v), dtype=object)
    for x in range(v):
        for y in range(v):
            for c in range(v):
                m[x * v + y, c * v + y] = int(a[x, y]) * int(a[x, c])
    pw = np.linalg.matrix_power(m, p)
    return {(x, y): int(pw[x * v + y, x * v + y]) for x in range(v) for y in range(v)}


def dense_bar_power_diag(g: Graph, p: int) -> dict[tuple[int, int], int]:
    """Diagonal of the p-th power of the full v^2 x v^2 matrix with entry
    A_ab * A_ac * A_bd at ((a,b),(c,d)), keyed by (a, b)."""
    v = g.v
    a = g.dense().astype(object)
    m = np.zeros((v * v, v * v), dtype=object)
    for x in range(v):
        for y in range(v):
            for c in range(v):
                for d in range(v):
                    m[x * v + y, c * v + d] = int(a[x, y]) * int(a[x, c]) * int(a[y, d])
    pw = np.linalg.matrix_power(m, p)
    return {(x, y): int(pw[x * v + y, x * v + y]) for x in range(v) for y in range(v)}


def directed_bar_power_diags(g: Graph, powers) -> dict[int, list[int]]:
    """Diagonals of powers of the bar matrix restricted to the directed
    edges, in the order of :func:`directed_edges`, built from the
    definition: entry ``A_ac * A_bd`` at ((a,b), (c,d)).

    The matrix is symmetric with row sums at most deg^2, so int64 holds its
    powers up to ``(deg^2)^h < 2**63``; a diagonal is the object row dot of
    the two half powers.
    """
    a = g.dense().astype(np.int64)
    pairs = directed_edges(g)
    bar = np.array([[a[x, c] * a[y, d] for c, d in pairs] for x, y in pairs])
    half = {}
    out = {}
    for p in powers:
        h = p // 2
        for i in (h, p - h):
            if i not in half:
                assert int(bar.sum(axis=1).max()) ** i < 2**63
                half[i] = np.linalg.matrix_power(bar, i).astype(object)
        out[p] = [int(x) for x in (half[h] * half[p - h]).sum(axis=1)]
    return out
