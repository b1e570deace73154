import networkx as nx
import pytest

from srginv.catalog import complete_graph, path_graph, star_graph
from srginv.graph import Graph
from srginv.isomorphism import (
    ISOMORPHIC,
    NON_ISOMORPHIC,
    UNDECIDED,
    apply_permutation,
    are_isomorphic,
    count_closed_walks,
    random_relabel,
)
from srginv.vertexinv import (
    InvariantMode,
    VertexPartition,
    partition_vertices,
    vertex_signatures,
)

from helpers import er_graph, fixture_graphs

FX = fixture_graphs()


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
    powers = (3, 4)
    p1 = partition_vertices(vertex_signatures(g, powers, InvariantMode.SORTED_DIAG))
    p2 = partition_vertices(vertex_signatures(h, powers, InvariantMode.SORTED_DIAG))
    res = are_isomorphic(g, h, blocks=(p1, p2))
    assert res.status == ISOMORPHIC

    bad = partition_vertices(
        vertex_signatures(FX["k33"], powers, InvariantMode.SORTED_DIAG)
    )
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
