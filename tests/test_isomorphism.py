import ast
from pathlib import Path

import networkx as nx
import pytest

from srginv import graph, isomorphism
from srginv.catalog import chang_graphs, complete_graph, path_graph, star_graph, triangular_graph
from srginv.graph import Graph
from srginv.isomorphism import (
    ISOMORPHIC,
    NON_ISOMORPHIC,
    UNDECIDED,
    VertexPartition,
    _blocks_for,
    apply_permutation,
    are_isomorphic,
    random_relabel,
)

from srginv.vertexinv import InvariantMode, NeighborhoodPowerCache

from helpers import count_closed_walks, er_graph, fixture_graphs, row_sort_key

FX = fixture_graphs()

# every fixture, the Chang graphs, T(8), and irregular graphs, some with
# isolated vertices, whose neighborhoods the ladder pads
BLOCK_GRAPHS = {
    **FX,
    **{f"chang{i}": g for i, g in enumerate(chang_graphs())},
    "t8": triangular_graph(8),
    **{f"er{seed}": er_graph(5 + 2 * seed, 70 + seed, 0.2 + 0.1 * seed) for seed in range(6)},
}


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.v))
    h.add_edges_from((a, b) for a in range(g.v) for b in g.neighborhood(a) if a < b)
    return h


def test_count_closed_walks_examples():
    k3 = complete_graph(3)
    assert count_closed_walks(k3, 0, 3, {0, 1, 2}) == 2
    assert count_closed_walks(k3, 0, 1, {0, 1, 2}) == 0
    assert count_closed_walks(complete_graph(2), 0, 2, {0, 1}) == 1


def test_count_closed_walks_restricted_set():
    k4 = complete_graph(4)
    # inside a triangle only two closed 3-walks exist
    assert count_closed_walks(k4, 0, 3, {0, 1, 2}) == 2
    assert count_closed_walks(k4, 0, 3, {0, 1, 2, 3}) == 6


def test_count_closed_walks_preconditions():
    with pytest.raises(ValueError):
        count_closed_walks(complete_graph(3), 0, 3, {1, 2})
    with pytest.raises(ValueError):
        count_closed_walks(complete_graph(3), 0, 0, {0, 1, 2})


def test_random_relabel_deterministic():
    g = FX["petersen"]
    a1, p1 = random_relabel(g, 42)
    a2, p2 = random_relabel(g, 42)
    assert a1 == a2 and p1 == p2
    b, q = random_relabel(g, 43)
    assert q != p1


def test_random_relabel_witness_applies():
    for seed in range(10):
        g = er_graph(9, seed)
        h, perm = random_relabel(g, seed + 5)
        assert apply_permutation(g, perm) == h


def test_apply_permutation_validates():
    with pytest.raises(ValueError):
        apply_permutation(complete_graph(3), (0, 0, 1))


def test_isomorphic_pair_found_and_verified():
    for name in ("petersen", "rook4", "paley13", "prism"):
        g = FX[name]
        h, _ = random_relabel(g, hash(name) % 1000)
        res = are_isomorphic(g, h)
        assert res.status == ISOMORPHIC
        assert apply_permutation(g, res.witness) == h


def test_rook_vs_shrikhande_non_isomorphic():
    res = are_isomorphic(FX["rook4"], FX["shrikhande"])
    assert res.status == NON_ISOMORPHIC


def test_k33_vs_prism_non_isomorphic():
    res = are_isomorphic(FX["k33"], FX["prism"])
    assert res.status == NON_ISOMORPHIC


def test_preconditions():
    with pytest.raises(ValueError, match="vertex counts"):
        are_isomorphic(complete_graph(3), complete_graph(4))
    with pytest.raises(ValueError, match="degree sequences"):
        are_isomorphic(star_graph(3), path_graph(4))


def test_budget_exhaustion_is_explicit():
    g = FX["paley17"]
    h, _ = random_relabel(g, 7)
    res = are_isomorphic(g, h, node_budget=3)
    assert res.status == UNDECIDED
    assert res.witness is None


def test_blocks_argument():
    g = FX["prism"]
    h, _ = random_relabel(g, 3)
    p1, p2 = _blocks_for(g), _blocks_for(h)
    res = are_isomorphic(g, h, blocks=(p1, p2))
    assert res.status == ISOMORPHIC

    # one block of six, as the prism's, under another signature
    bad = _blocks_for(complete_graph(6))
    with pytest.raises(ValueError, match="block"):
        are_isomorphic(g, h, blocks=(p1, bad))
    halves = VertexPartition(((0, 1, 2), (3, 4, 5)), ())
    with pytest.raises(ValueError, match="mismatched block sizes"):
        are_isomorphic(g, h, blocks=(p1, halves))


def test_one_block_search_is_exhaustive():
    # no invariant cuts the search: only the full backtracking decides
    rook = FX["rook4"]
    one = VertexPartition((tuple(range(16)),), ())
    res = are_isomorphic(rook, FX["shrikhande"], blocks=(one, one))
    assert res.status == NON_ISOMORPHIC and res.witness is None
    assert res.nodes == 304
    h, _ = random_relabel(rook, 11)
    res = are_isomorphic(rook, h, blocks=(one, one))
    assert res.status == ISOMORPHIC
    assert apply_permutation(rook, res.witness) == h


@pytest.mark.parametrize("seed", range(30))
def test_cross_validation_with_networkx(seed):
    g = er_graph(7, 2000 + seed)
    if seed % 2:
        h, _ = random_relabel(g, 3000 + seed)
    else:
        h = er_graph(7, 4000 + seed)
    if sorted(g.rows[a].bit_count() for a in range(7)) != sorted(
        h.rows[a].bit_count() for a in range(7)
    ):
        return  # oracle precondition: comparable degree sequences
    res = are_isomorphic(g, h)
    want = nx.is_isomorphic(to_nx(g), to_nx(h))
    assert (res.status == ISOMORPHIC) == want


def test_result_truthiness():
    g = FX["c5"]
    h, _ = random_relabel(g, 1)
    assert are_isomorphic(g, h)
    assert not are_isomorphic(FX["rook4"], FX["shrikhande"])


@pytest.mark.parametrize("name", sorted(BLOCK_GRAPHS))
def test_blocks_equal_the_first_sorted_diagonal_stage(name):
    # the oracle's popcounts against the ladder's (degree, sortdiag 3) rows
    g = BLOCK_GRAPHS[name]
    rows = NeighborhoodPowerCache(g).signature_values((3,), InvariantMode.SORTED_DIAG)
    keys = sorted(set(rows), key=row_sort_key)
    blocks = tuple(tuple(a for a, row in enumerate(rows) if row == key) for key in keys)
    assert _blocks_for(g) == VertexPartition(blocks, tuple(keys))


def test_block_graphs_include_padded_neighborhoods():
    degrees = [{g.degree(a) for a in range(g.v)} for g in BLOCK_GRAPHS.values()]
    assert sum(len(d) > 1 for d in degrees) >= 4
    assert any(0 in d for d in degrees)


def package_imports(module) -> set[str]:
    """The package modules that ``module`` imports, relatively or by name."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("srginv")):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("srginv"))
    return names


def test_oracle_depends_on_no_invariant_code():
    # the graph module in turn imports no package module
    assert package_imports(isomorphism) == {"graph"}
    assert package_imports(graph) == set()
