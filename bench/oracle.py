"""Ground truth for a ladder report from the backtracking isomorphism oracle.

The report's final classes are right when every member of a class is
isomorphic to its representative and the representatives are pairwise
non-isomorphic. Members are all checked; representative pairs are all
checked up to a limit, beyond which a seeded sample of that size is. Pairs
known to be isomorphic by construction must share a class.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from srginv import are_isomorphic
from srginv.isomorphism import ISOMORPHIC, NON_ISOMORPHIC

# bounds one oracle call; an undecided verdict counts as a failed check
NODE_BUDGET = 10**6


@dataclass
class OracleResult:
    classes: int
    members_checked: int = 0
    rep_pairs_checked: int = 0
    rep_pairs_total: int = 0
    known_pairs_checked: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        return (
            f"oracle: {self.classes} classes, {self.members_checked} members isomorphic "
            f"to their representative, {self.rep_pairs_checked} of {self.rep_pairs_total} "
            f"representative pairs checked, {self.known_pairs_checked} constructed "
            f"isomorphic pairs, {len(self.problems)} problems"
        )


def report_classes(report: dict) -> list[list[int]]:
    """Final classes of a one-family ``DatasetReport.to_json_obj()``, as
    sorted lists of graph indices in load order."""
    (family,) = report["families"]
    parent = list(range(family["count"]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in family["unresolved_pairs"]:
        parent[find(b)] = find(a)
    classes: dict[int, list[int]] = {}
    for i in range(family["count"]):
        classes.setdefault(find(i), []).append(i)
    if len(classes) != family["classes"]:
        raise ValueError(
            f"report counts {family['classes']} classes but its unresolved pairs "
            f"form {len(classes)}"
        )
    return sorted(classes.values())


def check_classes(
    graphs,
    classes: list[list[int]],
    *,
    known_pairs=(),
    rep_pair_limit: int,
    seed: int,
) -> OracleResult:
    result = OracleResult(classes=len(classes))
    covered = sorted(i for cls in classes for i in cls)
    if covered != list(range(len(graphs))):
        result.problems.append("classes do not partition the graphs")
        return result

    def verdict(a: int, b: int, want: str, what: str) -> None:
        got = are_isomorphic(graphs[a], graphs[b], node_budget=NODE_BUDGET).status
        if got != want:
            result.problems.append(f"{what} ({a}, {b}): oracle says {got}, expected {want}")

    for cls in classes:
        for m in cls[1:]:
            verdict(cls[0], m, ISOMORPHIC, "class member vs representative")
            result.members_checked += 1

    reps = [cls[0] for cls in classes]
    pairs = list(itertools.combinations(reps, 2))
    result.rep_pairs_total = len(pairs)
    if len(pairs) > rep_pair_limit:
        pairs = random.Random(seed).sample(pairs, rep_pair_limit)
    for a, b in pairs:
        verdict(a, b, NON_ISOMORPHIC, "representative pair")
        result.rep_pairs_checked += 1

    class_of = {i: k for k, cls in enumerate(classes) for i in cls}
    for a, b in known_pairs:
        if class_of[a] != class_of[b]:
            result.problems.append(f"isomorphic by construction but split: ({a}, {b})")
        result.known_pairs_checked += 1
    return result
