import numpy as np
import pytest

from srginv.catalog import complete_graph, cycle_graph, empty_graph, path_graph
from srginv.graph import Graph, SrgParams, check_srg, srg_diagnosis
from srginv.isomorphism import random_relabel

from helpers import er_graph, fixture_graphs, srg_fixtures, trace_power_signature

FX = fixture_graphs()


def test_neighborhood_examples():
    assert complete_graph(3).neighborhood(0) == (1, 2)
    assert complete_graph(2).neighborhood(1) == (0,)
    pet = FX["petersen"]
    for a in range(10):
        nb = pet.neighborhood(a)
        assert len(nb) == 3
        assert list(nb) == sorted(nb)


def test_neighborhood_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        complete_graph(3).neighborhood(3)


def test_induced_subgraph_examples():
    k3 = complete_graph(3)
    assert k3.induced_subgraph([0, 1]) == complete_graph(2)
    pet = FX["petersen"]
    sub = pet.induced_subgraph(pet.neighborhood(0))
    assert sub.v == 3 and sub.edge_count == 0
    assert k3.induced_subgraph([]).v == 0


def test_induced_subgraph_rejects_bad_selection():
    k3 = complete_graph(3)
    with pytest.raises(ValueError, match="strictly increasing"):
        k3.induced_subgraph([1, 0])
    with pytest.raises(ValueError, match="strictly increasing"):
        k3.induced_subgraph([1, 1])
    with pytest.raises(ValueError, match="out of range"):
        k3.induced_subgraph([0, 5])


def test_check_srg_fixtures():
    assert check_srg(FX["petersen"]) == SrgParams(10, 3, 0, 1)
    assert check_srg(cycle_graph(5)) == SrgParams(5, 2, 0, 1)
    assert check_srg(FX["rook4"]) == SrgParams(16, 6, 2, 2)
    assert check_srg(FX["shrikhande"]) == SrgParams(16, 6, 2, 2)
    assert check_srg(FX["paley13"]) == SrgParams(13, 6, 2, 3)
    assert check_srg(FX["paley17"]) == SrgParams(17, 8, 3, 4)
    assert check_srg(FX["t5"]) == SrgParams(10, 6, 3, 4)
    assert check_srg(FX["k33"]) == SrgParams(6, 3, 0, 3)


def test_check_srg_negative():
    assert check_srg(path_graph(3)) is None
    _, reason = srg_diagnosis(path_graph(3))
    assert "not regular" in reason
    # 6-cycle is regular but not strongly regular
    assert check_srg(cycle_graph(6)) is None
    _, reason = srg_diagnosis(cycle_graph(6))
    assert "non-adjacent" in reason


def test_check_srg_degenerate():
    assert check_srg(complete_graph(3)) == SrgParams(3, 2, 1, None)
    assert check_srg(complete_graph(4)) == SrgParams(4, 3, 2, None)
    assert check_srg(empty_graph(4)) == SrgParams(4, 0, None, 0)
    assert check_srg(complete_graph(3)).degenerate


def test_check_srg_needs_two_vertices():
    # a negative answer with a reason, not an error, so a report can reject it
    for v in (0, 1):
        g = Graph.from_edges(v, [])
        assert srg_diagnosis(g) == (None, "fewer than 2 vertices")
        assert check_srg(g) is None


def test_feasibility_identity():
    for name, g in srg_fixtures().items():
        p = check_srg(g)
        assert p is not None, name
        assert p.k * (p.k - p.lam - 1) == (p.v - p.k - 1) * p.mu, name


def test_accepted_params_satisfy_bounds():
    for name, g in srg_fixtures().items():
        p = check_srg(g)
        assert p.k < p.v, name
        assert p.lam < p.k, name
        assert p.mu <= p.k, name


def test_matrix_identity_entrywise():
    # A^2 - (lam-mu)A - (k-mu)I - mu*J = 0, exact integer arithmetic
    for name, g in srg_fixtures().items():
        p = check_srg(g)
        a = g.dense().astype(np.int64)
        j = np.ones((g.v, g.v), dtype=np.int64)
        i = np.eye(g.v, dtype=np.int64)
        resid = a @ a - (p.lam - p.mu) * a - (p.k - p.mu) * i - p.mu * j
        assert not resid.any(), name


def test_trace_power_signature_examples():
    assert trace_power_signature(complete_graph(3), 3) == (0, 6, 6)
    assert trace_power_signature(FX["petersen"], 3)[2] == 0
    assert trace_power_signature(empty_graph(5), 5) == (0, 0, 0, 0, 0)


def test_trace_power_signature_bounds():
    with pytest.raises(ValueError):
        trace_power_signature(complete_graph(3), 0)
    with pytest.raises(ValueError):
        trace_power_signature(complete_graph(3), 4)


@pytest.mark.parametrize("seed", range(20))
def test_trace_power_signature_relabel_invariant(seed):
    g = er_graph(9, seed)
    h, _ = random_relabel(g, seed + 1000)
    assert trace_power_signature(g, 6) == trace_power_signature(h, 6)


def test_params_key():
    assert SrgParams(16, 6, 2, 2).key() == "16-6-2-2"
    assert SrgParams(3, 2, 1, None).key() == "3-2-1-*"


def test_graph_equality_and_hash():
    g = er_graph(8, 3)
    h = Graph(g.v, g.rows)
    assert g == h and hash(g) == hash(h)
    assert g != er_graph(8, 4)


def test_graph_pickles():
    import pickle

    g = FX["rook4"]
    g.dense()  # populate the cache, then make sure it is dropped
    h = pickle.loads(pickle.dumps(g))
    assert h == g
    assert h.dense().shape == (16, 16)
