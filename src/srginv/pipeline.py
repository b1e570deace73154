"""Dataset ingestion, the invariant escalation ladder, and family reports.

Graphs sharing SRG parameters form a family; the ladder applies invariant
stages in order, grouping graphs by their cumulative signature after each
stage. Two graphs stay in the same class only while every stage so far
agrees, so grouping refines stage by stage and the per-stage class counts
are nondecreasing. A stage's work is only spent on graphs still sharing a
class with another graph.
"""

from __future__ import annotations

import enum
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

from .edgeinv import BarPowerDiag, bar_diag_table
from .graph import Graph, GraphFormatError, SrgParams, parse_graphs, srg_diagnosis
from .matpow import DEFAULT_MODULUS, MatrixOverflowError, check_powers
from .vertexinv import (
    GraphSignature,
    InvariantMode,
    NeighborhoodPowerCache,
    outblock_signature,
    row_sort_key,
)


class StageKind(enum.Enum):
    VERTEX = "vertex"
    VERTEX_OUTBLOCK = "vertex-outblock"
    EDGE = "edge"


@dataclass(frozen=True)
class LadderStage:
    kind: StageKind
    mode: InvariantMode
    powers: tuple[int, ...]

    def __post_init__(self):
        floor = 2 if self.kind is StageKind.EDGE else 1
        object.__setattr__(self, "powers", check_powers(self.powers, floor))

    def label(self) -> str:
        hi = self.powers[-1]
        if self.kind is StageKind.EDGE:
            tag = "Etr" if self.mode is InvariantMode.TRACE else "Esd"
            return f"{tag}{hi}"
        if self.kind is StageKind.VERTEX_OUTBLOCK:
            return "outblk"
        tag = "Tr" if self.mode is InvariantMode.TRACE else "sd"
        return f"{tag}{hi}" if len(self.powers) == 1 else f"+{tag}{hi}"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "mode": self.mode.value,
            "powers": list(self.powers),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LadderStage":
        return cls(
            StageKind(obj["kind"]),
            InvariantMode(obj["mode"]),
            tuple(obj["powers"]),
        )


@dataclass(frozen=True)
class LadderConfig:
    stages: tuple[LadderStage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValueError("ladder needs at least one stage")

    def vertex_powers(self) -> tuple[int, ...]:
        """Union of powers over all vertex-kind stages (single-block metric)."""
        powers: set[int] = set()
        for stage in self.stages:
            if stage.kind is not StageKind.EDGE:
                powers.update(stage.powers)
        return tuple(sorted(powers))

    def to_json_obj(self) -> dict:
        return {"stages": [s.to_json_obj() for s in self.stages]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LadderConfig":
        return cls(tuple(LadderStage.from_json_obj(s) for s in obj["stages"]))

    @classmethod
    def from_json(cls, text: str) -> "LadderConfig":
        try:
            return cls.from_json_obj(json.loads(text))
        except (KeyError, TypeError) as e:
            raise ValueError(f"malformed ladder JSON: {e}") from None


def default_ladder() -> LadderConfig:
    """Vertex traces 3..9, then sorted diagonals, one outblock pass, then
    edge traces and sorted diagonals at powers 2..5."""
    stages = []
    for hi in range(3, 10):
        stages.append(LadderStage(StageKind.VERTEX, InvariantMode.TRACE, tuple(range(3, hi + 1))))
    for hi in range(3, 10):
        stages.append(
            LadderStage(StageKind.VERTEX, InvariantMode.SORTED_DIAG, tuple(range(3, hi + 1)))
        )
    stages.append(
        LadderStage(StageKind.VERTEX_OUTBLOCK, InvariantMode.SORTED_DIAG, tuple(range(3, 10)))
    )
    stages.append(LadderStage(StageKind.EDGE, InvariantMode.TRACE, (2, 3, 4, 5)))
    stages.append(LadderStage(StageKind.EDGE, InvariantMode.SORTED_DIAG, (2, 3, 4, 5)))
    return LadderConfig(tuple(stages))


class _GraphState:
    """Per-graph invariant caches reused across ladder stages."""

    __slots__ = ("graph", "modulus", "nbhd", "_edge")

    def __init__(self, g: Graph, modulus: tuple[int, int] | None):
        self.graph = g
        self.modulus = modulus
        self.nbhd = NeighborhoodPowerCache(g, modulus)
        self._edge: dict[int, BarPowerDiag] = {}

    def payload(self, stage: LadderStage) -> tuple:
        """This graph's values under ``stage``: nested tuples of Python ints,
        equal for two graphs exactly when the stage cannot separate them."""
        powers, mode = stage.powers, stage.mode
        if stage.kind is StageKind.VERTEX:
            return tuple(sorted(self.nbhd.signature_values(powers, mode), key=row_sort_key))
        if stage.kind is StageKind.VERTEX_OUTBLOCK:
            ob = outblock_signature(
                self.graph, powers, mode, modulus=self.modulus, nbhd=self.nbhd
            )
            return (ob.refined, ob.base.rows, ob.tail.rows if ob.tail is not None else None)
        missing = tuple(p for p in powers if p not in self._edge)
        if missing:
            self._edge.update(bar_diag_table(self.graph, missing, modulus=self.modulus))
        if mode is InvariantMode.TRACE:
            return tuple(self._edge[p].trace for p in powers)
        return tuple(self._edge[p].sorted_values for p in powers)

    def is_single_block(self, powers: tuple[int, ...]) -> bool:
        """True when the sorted-diagonal invariants cannot split the vertices.

        Adding powers only ever refines the partition, so the check can
        stop at the first power that splits.
        """
        for p in powers:
            diag = self.nbhd.diag(p)
            first = diag[0]
            if any(row != first for row in diag):
                return False
        return True


@dataclass(frozen=True)
class StageResult:
    kind: StageKind
    mode: InvariantMode
    powers: tuple[int, ...]
    classes: int
    unresolved_graphs: int
    unresolved_pairs: int

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "mode": self.mode.value,
            "powers": list(self.powers),
            "classes": self.classes,
            "unresolved_graphs": self.unresolved_graphs,
            "unresolved_pairs": self.unresolved_pairs,
        }


@dataclass
class DistinguishReport:
    family: str
    params: SrgParams | None
    count: int
    stages: list[StageResult]
    final_classes: int
    distinguished: bool
    unresolved_pairs: list[tuple[int, int]]
    pairs_requiring_edge: int
    shared_vertex_invariant_graphs: int
    single_block_graphs: int | None
    # why exact arithmetic gave way to DEFAULT_MODULUS for this family
    fallback: str | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "params": self.family,
            "count": self.count,
            "stages": [s.to_json_obj() for s in self.stages],
            "classes": self.final_classes,
            "distinguished": self.distinguished,
            "unresolved_pairs": [list(p) for p in self.unresolved_pairs],
            "pairs_requiring_edge": self.pairs_requiring_edge,
            "shared_vertex_invariant_graphs": self.shared_vertex_invariant_graphs,
            "single_block_graphs": self.single_block_graphs,
        }
        if self.fallback is not None:
            obj["arithmetic"] = "mod-reduced"
            obj["fallback"] = self.fallback
        return obj


def _vertex_boundary(stages: list[StageResult], count: int) -> tuple[int, int]:
    """(unresolved graphs, unresolved pairs) after the last non-edge stage."""
    last = None
    for res in stages:
        if res.kind is not StageKind.EDGE:
            last = res
    if last is None:
        return count, count * (count - 1) // 2
    return last.unresolved_graphs, last.unresolved_pairs


def distinguish_family(
    graphs,
    ladder: LadderConfig | None = None,
    *,
    modulus: tuple[int, int] | None = None,
    params: SrgParams | None = None,
    family: str | None = None,
) -> DistinguishReport:
    """Run the ladder over one family and count distinguished classes.

    Graphs are grouped by cumulative signature; the run stops once every
    graph sits in its own class, so later stages get no result.
    """
    graphs = list(graphs)
    n = len(graphs)
    if n < 2:
        raise ValueError("a family needs at least 2 graphs to distinguish")
    ladder = ladder or default_ladder()
    if family is None:
        family = params.key() if params is not None else f"{graphs[0].v}-?"

    states: list[_GraphState | None] = [_GraphState(g, modulus) for g in graphs]
    vertex_powers = ladder.vertex_powers()
    single_flags = [False] * n

    def finalize(i: int) -> None:
        # a graph in its own class never computes another payload; grab the
        # single-block flag while its power caches are warm, then free them
        if vertex_powers:
            single_flags[i] = states[i].is_single_block(vertex_powers)
        states[i] = None

    groups: list[list[int]] = [list(range(n))]
    singletons = 0
    results: list[StageResult] = []

    for stage in ladder.stages:
        if not groups:
            break
        new_groups: list[list[int]] = []
        for grp in groups:
            # payloads are the keys: hashed, then compared in full
            seen: dict[tuple, list[int]] = {}
            for i in grp:
                seen.setdefault(states[i].payload(stage), []).append(i)
            for members in seen.values():
                if len(members) == 1:
                    singletons += 1
                    finalize(members[0])
                else:
                    new_groups.append(members)
        groups = new_groups
        classes = singletons + len(groups)
        unresolved_graphs = sum(len(grp) for grp in groups)
        unresolved_pairs = sum(len(grp) * (len(grp) - 1) // 2 for grp in groups)
        results.append(
            StageResult(stage.kind, stage.mode, stage.powers, classes, unresolved_graphs, unresolved_pairs)
        )

    final_pairs = [
        (grp[i], grp[j])
        for grp in groups
        for i in range(len(grp))
        for j in range(i + 1, len(grp))
    ]
    final_classes = singletons + len(groups)
    shared_graphs, edge_pairs = _vertex_boundary(results, n)

    for i in range(n):
        if states[i] is not None:
            finalize(i)
    single_block = sum(single_flags) if vertex_powers else None

    return DistinguishReport(
        family=family,
        params=params,
        count=n,
        stages=results,
        final_classes=final_classes,
        distinguished=final_classes == n,
        unresolved_pairs=sorted(final_pairs),
        pairs_requiring_edge=edge_pairs,
        shared_vertex_invariant_graphs=shared_graphs,
        single_block_graphs=single_block,
    )


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of comparing two graphs through the ladder.

    ``stage`` is the 1-based ladder position that separated the pair.
    Distinguished means provably non-isomorphic; indistinguishable is not
    a proof of isomorphism.
    """

    distinguished: bool
    stage: int | None
    stage_config: LadderStage | None
    # why exact arithmetic gave way to DEFAULT_MODULUS for this pair
    fallback: str | None = None

    def describe(self) -> str:
        if not self.distinguished:
            text = "indistinguishable by ladder"
        else:
            s = self.stage_config
            powers = ",".join(map(str, s.powers))
            text = (
                f"distinguished: stage {self.stage} "
                f"({s.kind.value}/{s.mode.value} powers {powers})"
            )
        if self.fallback is not None:
            text += "; exact arithmetic overflowed, values mod-reduced"
        return text


def compare_pair(
    g1: Graph,
    g2: Graph,
    ladder: LadderConfig | None = None,
    *,
    modulus: tuple[int, int] | None = None,
) -> PairVerdict:
    """First ladder stage whose signatures differ, if any. An exact run that
    overflows is re-run under DEFAULT_MODULUS, and the verdict records why."""
    if g1.v != g2.v:
        raise ValueError(f"vertex counts differ: {g1.v} vs {g2.v}")
    ladder = ladder or default_ladder()

    def run(modulus) -> PairVerdict:
        s1, s2 = _GraphState(g1, modulus), _GraphState(g2, modulus)
        for i, stage in enumerate(ladder.stages, start=1):
            if s1.payload(stage) != s2.payload(stage):
                return PairVerdict(True, i, stage)
        return PairVerdict(False, None, None)

    verdict, fallback = _exact_or_fallback(run, modulus)
    return replace(verdict, fallback=fallback)


def _exact_or_fallback(run, modulus):
    """``(run(modulus), None)``; when an exact run overflows, the whole run
    again under DEFAULT_MODULUS, so its values stay comparable with each
    other, and the overflow message."""
    try:
        return run(modulus), None
    except MatrixOverflowError as e:
        if modulus is not None:
            raise
        return run(DEFAULT_MODULUS), str(e)


# ---------------------------------------------------------------------------
# dataset loading and the full report


class DatasetError(ValueError):
    """A dataset file failed parsing or the SRG check."""


def _iter_sources(paths) -> list[Path]:
    if isinstance(paths, (str, Path)):
        paths = [paths]
    files: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files.extend(sorted(q for q in p.iterdir() if q.is_file()))
        else:
            files.append(p)
    return files


def load_dataset(
    paths, fmt: str = "auto", *, allow_non_srg: bool = False
) -> list[tuple[Graph, SrgParams | None]]:
    """Parse dataset files into (graph, params) entries.

    Every graph must pass the SRG check unless allow_non_srg is set;
    rejections name the file, the graph index within it, and the failed
    condition.
    """
    entries: list[tuple[Graph, SrgParams | None]] = []
    for path in _iter_sources(paths):
        try:
            text = path.read_text()
        except OSError as e:
            raise DatasetError(f"{path}: {e}") from None
        entries.extend(
            load_dataset_text(text, fmt, allow_non_srg=allow_non_srg, source=str(path))
        )
    return entries


def load_dataset_text(
    text: str,
    fmt: str = "auto",
    *,
    allow_non_srg: bool = False,
    source: str = "<input>",
) -> list[tuple[Graph, SrgParams | None]]:
    try:
        graphs = parse_graphs(text, fmt)
    except GraphFormatError as e:
        raise DatasetError(f"{source}: {e}") from None
    entries = []
    for idx, g in enumerate(graphs):
        params, reason = srg_diagnosis(g)
        if reason is not None and not allow_non_srg:
            raise DatasetError(f"{source}: graph {idx}: {reason}")
        entries.append((g, params))
    return entries


@dataclass
class Family:
    key: str
    params: SrgParams | None
    graphs: list[Graph] = field(default_factory=list)


def group_families(entries) -> list[Family]:
    """Group entries by identical parameters, ordered by (v, k, lam, mu)."""
    by_key: dict[str, Family] = {}
    for g, params in entries:
        key = params.key() if params is not None else f"{g.v}-nonsrg"
        fam = by_key.get(key)
        if fam is None:
            fam = by_key[key] = Family(key, params)
        fam.graphs.append(g)
    def order(fam: Family):
        if fam.params is not None:
            return fam.params.sort_key()
        return (fam.graphs[0].v, -2, -2, -2)
    return sorted(by_key.values(), key=order)


def _family_report(fam: Family, ladder: LadderConfig, modulus) -> DistinguishReport:
    if len(fam.graphs) >= 2:
        return distinguish_family(
            fam.graphs,
            ladder,
            modulus=modulus,
            params=fam.params,
            family=fam.key,
        )
    state = _GraphState(fam.graphs[0], modulus)
    vertex_powers = ladder.vertex_powers()
    single = (
        int(state.is_single_block(vertex_powers)) if vertex_powers else None
    )
    return DistinguishReport(
        family=fam.key,
        params=fam.params,
        count=1,
        stages=[],
        final_classes=1,
        distinguished=True,
        unresolved_pairs=[],
        pairs_requiring_edge=0,
        shared_vertex_invariant_graphs=0,
        single_block_graphs=single,
    )


def _family_job(payload) -> DistinguishReport:
    """One family's report; an exact run that overflows is re-run whole
    under DEFAULT_MODULUS, and the report records why."""
    fam, ladder, modulus = payload
    report, fallback = _exact_or_fallback(lambda m: _family_report(fam, ladder, m), modulus)
    report.fallback = fallback
    return report


@dataclass
class DatasetReport:
    families: list[DistinguishReport]
    ladder: LadderConfig
    modulus: tuple[int, int] | None

    @property
    def totals(self) -> dict:
        fams = self.families
        single_known = [f.single_block_graphs for f in fams if f.single_block_graphs is not None]
        return {
            "graphs": sum(f.count for f in fams),
            "families": len(fams),
            "classes": sum(f.final_classes for f in fams),
            "unresolved_pairs": sum(len(f.unresolved_pairs) for f in fams),
            "pairs_requiring_edge_stages": sum(f.pairs_requiring_edge for f in fams),
            "shared_vertex_invariant_graphs": sum(
                f.shared_vertex_invariant_graphs for f in fams
            ),
            "single_block_graphs": sum(single_known) if single_known else None,
            "distinguished_all": all(f.distinguished for f in fams),
        }

    def to_json_obj(self) -> dict:
        return {
            "families": [f.to_json_obj() for f in self.families],
            "totals": self.totals,
            "ladder": self.ladder.to_json_obj(),
            "arithmetic": "mod-reduced" if self.modulus else "exact",
            "modulus": list(self.modulus) if self.modulus else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def to_text(self, show_all: bool = False) -> str:
        labels = [s.label() for s in self.ladder.stages]
        head = ["params", "graphs", *labels, "single", "shared", "edge-pairs"]
        rows = [head]
        for f in self.families:
            cells = [f.family, str(f.count)]
            prev = None
            by_stage = {i: r for i, r in enumerate(f.stages)}
            for i in range(len(self.ladder.stages)):
                res = by_stage.get(i)
                if res is None:
                    cells.append("")
                    continue
                mark = "*" if res.classes == f.count else ""
                if show_all or res.classes != prev:
                    cells.append(f"{res.classes}{mark}")
                else:
                    cells.append("")
                prev = res.classes
            single = "?" if f.single_block_graphs is None else str(f.single_block_graphs)
            cells.extend([single, str(f.shared_vertex_invariant_graphs), str(f.pairs_requiring_edge)])
            rows.append(cells)
        totals = self.totals
        widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
        lines = [
            "  ".join(cell.rjust(w) if i else cell.ljust(w) for i, (cell, w) in enumerate(zip(r, widths)))
            for r in rows
        ]
        lines.append("")
        lines.append(
            f"graphs: {totals['graphs']}  families: {totals['families']}  "
            f"classes: {totals['classes']}  unresolved pairs: {totals['unresolved_pairs']}  "
            f"single-block graphs: {totals['single_block_graphs']}  "
            f"pairs requiring edge stages: {totals['pairs_requiring_edge_stages']}"
        )
        if self.modulus:
            lines.append(f"values are mod-reduced (primes {self.modulus[0]}, {self.modulus[1]})")
        fell_back = [f.family for f in self.families if f.fallback is not None]
        if fell_back:
            lines.append(f"exact arithmetic overflowed, values mod-reduced: {', '.join(fell_back)}")
        return "\n".join(lines)


def dataset_report(
    entries,
    ladder: LadderConfig | None = None,
    *,
    modulus: tuple[int, int] | None = None,
    jobs: int = 1,
) -> DatasetReport:
    """Per-family distinguish reports plus global totals.

    Families are independent; with jobs > 1 they run in a process pool.
    Output is deterministic regardless of parallelism (results keep the
    family order).
    """
    ladder = ladder or default_ladder()
    families = group_families(entries)
    payloads = [(fam, ladder, modulus) for fam in families]
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_family_job, payloads))
    else:
        reports = [_family_job(p) for p in payloads]
    return DatasetReport(reports, ladder, modulus)
