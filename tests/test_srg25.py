"""Five pairwise non-isomorphic srg(25,12,5,6), built offline by
Godsil-McKay switching of the two Latin-square graphs of order 5, stored
once in ``data/srg25_switched.g6``. Unlike every other fixture family,
they do not all split at the first stage: two pairs survive the vertex
traces 3..9 and fall to the sorted diagonal at power 3.
"""

from itertools import combinations
from pathlib import Path

from srginv import (
    VertexPartition,
    are_isomorphic,
    check_srg,
    distinguish_family,
    random_relabel,
)
from srginv.pipeline import read_graphs

DATA = Path(__file__).resolve().parent / "data" / "srg25_switched.g6"


def switched_graphs():
    return [g for _, _, g in read_graphs(DATA)]


def test_every_graph_is_srg_25_12_5_6():
    graphs = switched_graphs()
    assert len(graphs) == 5
    assert [check_srg(g).key() for g in graphs] == ["25-12-5-6"] * 5


def test_block_free_search_proves_every_pair_non_isomorphic():
    # one-block partitions: the verdict uses no invariant at all
    graphs = switched_graphs()
    for g, h in combinations(graphs, 2):
        one = VertexPartition((tuple(range(g.v)),), ((),))
        result = are_isomorphic(g, h, blocks=(one, one))
        assert result.status == "non-isomorphic"
        assert result.nodes > 0


def test_sortdiag_3_is_the_separating_stage():
    report = distinguish_family(switched_graphs())
    assert [r.classes for r in report.stages] == [3] * 7 + [5]
    assert report.distinguished


def test_relabelings_are_never_separated():
    graphs = switched_graphs()
    family = graphs + [random_relabel(g, 100 + i)[0] for i, g in enumerate(graphs)]
    report = distinguish_family(family)
    assert len(report.stages) == 17
    assert [r.classes for r in report.stages] == [3] * 7 + [5] * 10
    assert report.unresolved_pairs == [(i, i + 5) for i in range(5)]
