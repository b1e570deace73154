"""Ground-truth isomorphism testing at desk scale, plus fixture helpers.

The search is exhaustive backtracking over vertex assignments, restricted
to mapping each invariant block onto the like-signatured block of the
other graph, with incremental adjacency consistency maintained as whole
bit rows. It is complete (never wrong); when the node budget runs out it
returns an explicit "undecided" rather than guessing.

Without caller-supplied blocks, each vertex ``a`` is keyed by the sorted
values ``2·e(N(a) ∩ N(b))`` over its neighbors ``b``: the sorted diagonal
of ``(A|N_a)^3``, the ladder's first sorted-diagonal stage. They are
counted here from bit rows and popcounts alone, so a non-isomorphism
verdict from differing blocks does not rest on the matrix-power code
whose splits it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .graph import Graph, _bits_of

Permutation = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10**8

ISOMORPHIC = "isomorphic"
NON_ISOMORPHIC = "non-isomorphic"
UNDECIDED = "undecided"


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
class IsoResult:
    status: str
    witness: Permutation | None
    nodes: int

    def __bool__(self) -> bool:
        return self.status == ISOMORPHIC


def apply_permutation(g: Graph, perm) -> Graph:
    """Relabeled copy: vertex a of ``g`` becomes perm[a]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.v)):
        raise ValueError(f"not a permutation of 0..{g.v - 1}: {perm}")
    rows = [0] * g.v
    for a in range(g.v):
        row = 0
        for b in g.neighborhood(a):
            row |= 1 << perm[b]
        rows[perm[a]] = row
    return Graph(g.v, rows, _validated=True)


def random_relabel(g: Graph, seed: int) -> tuple[Graph, Permutation]:
    """Seeded uniformly random relabeling; returns the graph and the witness."""
    rng = random.Random(seed)
    perm = list(range(g.v))
    rng.shuffle(perm)
    perm = tuple(perm)
    return apply_permutation(g, perm), perm


class _BudgetExceeded(Exception):
    pass


def _blocks_for(g: Graph) -> VertexPartition:
    """Vertices grouped by their sorted ``2·e(N(a) ∩ N(b))`` over ``b`` in
    ``N(a)``: each ordered pair of adjacent common neighbors ``c, d`` of
    ``a`` and ``b`` is one closed 3-walk ``b c d b`` inside ``N(a)``."""
    rows = g.rows
    groups: dict[tuple[int, ...], list[int]] = {}
    for a in range(g.v):
        values = []
        for b in _bits_of(rows[a]):
            common = rows[a] & rows[b]
            values.append(sum((rows[c] & common).bit_count() for c in _bits_of(common)))
        groups.setdefault(tuple(sorted(values)), []).append(a)
    ordered = sorted(groups, key=lambda key: (len(key), key))
    return VertexPartition(tuple(tuple(groups[key]) for key in ordered), tuple(ordered))


def are_isomorphic(
    g1: Graph,
    g2: Graph,
    blocks: tuple[VertexPartition, VertexPartition] | None = None,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> IsoResult:
    """Complete blocked backtracking search for an isomorphism g1 -> g2.

    Any returned witness is verified by re-application before being
    handed out. Exceeding the node budget yields status "undecided",
    never a wrong answer.
    """
    if g1.v != g2.v:
        raise ValueError(f"vertex counts differ: {g1.v} vs {g2.v}")
    if sorted(g1.rows[a].bit_count() for a in range(g1.v)) != sorted(
        g2.rows[a].bit_count() for a in range(g2.v)
    ):
        raise ValueError("degree sequences differ")

    if blocks is None:
        p1, p2 = _blocks_for(g1), _blocks_for(g2)
        if p1.signatures != p2.signatures or tuple(map(len, p1.blocks)) != tuple(
            map(len, p2.blocks)
        ):
            # differing invariants already prove non-isomorphism
            return IsoResult(NON_ISOMORPHIC, None, 0)
    else:
        p1, p2 = blocks
        if tuple(map(len, p1.blocks)) != tuple(map(len, p2.blocks)):
            raise ValueError("given partitions have mismatched block sizes")
        if p1.signatures and p2.signatures and p1.signatures != p2.signatures:
            raise ValueError("given partitions have mismatched block signatures")

    v = g1.v
    full = (1 << v) - 1
    block_of = [0] * v
    for bi, block in enumerate(p1.blocks):
        for a in block:
            block_of[a] = bi
    target_mask = [0] * len(p2.blocks)
    for bi, block in enumerate(p2.blocks):
        for w in block:
            target_mask[bi] |= 1 << w
    block_size = [len(b) for b in p1.blocks]

    mapping = [-1] * v
    mapped: list[int] = []
    used = 0
    nodes = 0

    def choose() -> int:
        # most-constrained first: most already-mapped neighbors, then the
        # smallest block, then lowest index for determinism
        best, best_key = -1, None
        for u in range(v):
            if mapping[u] != -1:
                continue
            anchored = sum(1 for w in mapped if (g1.rows[u] >> w) & 1)
            key = (-anchored, block_size[block_of[u]], u)
            if best_key is None or key < best_key:
                best, best_key = u, key
        return best

    def candidates(u: int) -> int:
        mask = target_mask[block_of[u]] & ~used
        for w in mapped:
            if (g1.rows[u] >> w) & 1:
                mask &= g2.rows[mapping[w]]
            else:
                mask &= ~g2.rows[mapping[w]] & full
            if not mask:
                break
        return mask

    def search(depth: int) -> bool:
        nonlocal used, nodes
        if depth == v:
            return True
        u = choose()
        mask = candidates(u)
        while mask:
            low = mask & -mask
            t = low.bit_length() - 1
            mask ^= low
            nodes += 1
            if nodes > node_budget:
                raise _BudgetExceeded
            mapping[u] = t
            mapped.append(u)
            used |= 1 << t
            if search(depth + 1):
                return True
            used &= ~(1 << t)
            mapped.pop()
            mapping[u] = -1
        return False

    try:
        found = search(0)
    except _BudgetExceeded:
        return IsoResult(UNDECIDED, None, nodes)

    if not found:
        return IsoResult(NON_ISOMORPHIC, None, nodes)
    witness = tuple(mapping)
    if apply_permutation(g1, witness) != g2:
        raise AssertionError("isomorphism witness failed verification")
    return IsoResult(ISOMORPHIC, witness, nodes)
