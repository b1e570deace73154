"""Vertex and edge invariants distinguishing strongly regular graphs.

The invariants are traces or sorted diagonals of powers of the adjacency
matrix restricted to vertex neighborhoods, and of the directed-edge
matrix with entry A_ab * A_ac * A_bd. An escalation ladder applies them
in order of cost until a pair of graphs is separated.
"""

from .graph import (
    Graph,
    GraphFormatError,
    SrgParams,
    check_srg,
    detect_format,
    parse_adjacency_rows,
    parse_graph6,
    parse_graphs,
    srg_diagnosis,
    write_graph6,
)
from .matpow import DEFAULT_MODULUS, MatrixOverflowError
from .vertexinv import (
    GraphSignature,
    InvariantMode,
    OutblockSignature,
    graph_signature,
    outblock_signature,
)
from .edgeinv import BarMatrix, build_bar_matrix
from .isomorphism import (
    IsoResult,
    VertexPartition,
    apply_permutation,
    are_isomorphic,
    random_relabel,
)
from .pipeline import (
    DatasetError,
    DatasetReport,
    DistinguishReport,
    LadderConfig,
    LadderStage,
    PairVerdict,
    StageKind,
    compare_pair,
    dataset_report,
    default_ladder,
    distinguish_family,
    group_families,
    load_dataset,
)

__version__ = "0.1.0"
