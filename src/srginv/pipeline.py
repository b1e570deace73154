"""Input reading, the invariant escalation ladder, and family reports.

``read_graphs`` is the one reader of inputs: files, the files of a
directory in name order, and ``-`` for stdin, each in the format
``detect_format`` reads from its text. Every subcommand reads through it,
and it names the source in every read, decode or parse error.
``load_dataset`` is ``read_graphs`` plus the SRG check.

Graphs sharing SRG parameters form a family; the ladder applies invariant
stages in order, grouping graphs by their cumulative signature after each
stage. Two graphs stay in the same class only while every stage so far
agrees, so grouping refines stage by stage and the per-stage class counts
are nondecreasing. A stage's work is only spent on graphs still sharing a
class with another graph.

``distinguish_family`` is the one runner of the ladder. A family of one
graph gets no stage, only its single-block flag; ``compare_pair`` runs its
pair as a two-graph family, and ``dataset_report`` runs each family. Exact
values past int64 are held as Python ints; an exact run in which a value
leaves the unsigned 64-bit range is re-run whole under DEFAULT_MODULUS by
``distinguish_family`` itself, which marks the report.

A graph's ladder state keeps only what a later stage reads: its vertex
powers, and per edge power one table of |E| values. Its release step,
after the last vertex stage or once the graph is alone in its class,
takes the single-block flag from the powers, frees them, and for a graph
alone frees the edge tables too. With jobs > 1 and more than one family,
``dataset_report`` runs families in a process pool, imported only then.
"""

from __future__ import annotations

import enum
import itertools
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .edgeinv import BarPowerDiag, bar_diag_table
from .graph import Graph, GraphFormatError, SrgParams, parse_graphs, srg_diagnosis
from .matpow import DEFAULT_MODULUS, MatrixOverflowError, check_powers, sorted_values
from .vertexinv import InvariantMode, NeighborhoodPowerCache, outblock_signature


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
    def from_json(cls, text: str) -> "LadderConfig":
        """Read back what ``to_json_obj`` writes; a malformed ladder raises
        ValueError("malformed ladder JSON: ..."), naming the bad value."""
        def listed(value, what: str, of=object):
            if not isinstance(value, list) or not all(isinstance(x, of) for x in value):
                raise ValueError(f"{what}, got {value!r}")
            return value

        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ValueError(f"ladder must be an object, got {obj!r}")
            return cls(tuple(
                LadderStage(
                    StageKind(s["kind"]),
                    InvariantMode(s["mode"]),
                    tuple(listed(s["powers"], "powers must be a list")),
                )
                for s in listed(obj["stages"], "stages must be a list of objects", dict)
            ))
        except KeyError as e:
            raise ValueError(f"malformed ladder JSON: missing key {e}") from None
        except (TypeError, ValueError) as e:
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
    """One graph's invariant caches over its whole life in the ladder.

    ``nbhd`` holds the vertex powers' diagonals and traces, ``_edge`` each
    edge power's table: |E| values and the trace. ``release`` sets
    ``single_block`` from ``nbhd.single_block`` and drops ``nbhd``; for a
    graph in its own class it drops ``_edge`` too.
    """

    __slots__ = ("graph", "modulus", "vertex_powers", "nbhd", "_edge", "single_block")

    def __init__(self, g: Graph, modulus: tuple[int, int] | None, vertex_powers: tuple[int, ...]):
        self.graph = g
        self.modulus = modulus
        self.vertex_powers = vertex_powers
        self.nbhd = NeighborhoodPowerCache(g, modulus)
        self._edge: dict[int, BarPowerDiag] = {}
        self.single_block = False

    def release(self, alone: bool) -> None:
        """Free the vertex powers once the single-block flag is taken from
        them, and the edge tables of a graph ``alone`` in its class."""
        if self.nbhd is not None:
            if self.vertex_powers:
                self.single_block = self.nbhd.single_block(self.vertex_powers)
            self.nbhd = None
        if alone:
            self._edge = {}

    def payload(self, stage: LadderStage):
        """This graph's values under ``stage``, hashable and equal for two
        graphs exactly when the stage cannot separate them."""
        powers, mode = stage.powers, stage.mode
        if stage.kind is StageKind.EDGE:
            missing = tuple(p for p in powers if p not in self._edge)
            if missing:
                self._edge.update(bar_diag_table(self.graph, missing, modulus=self.modulus))
            if mode is InvariantMode.TRACE:
                return tuple(self._edge[p].trace for p in powers)
            # both orientations of an edge share its value, so the sorted
            # |E| values are equal exactly when the sorted 2|E| ones are
            return tuple(sorted_values(self._edge[p].values) for p in powers)
        # the first vertex stage computes its own powers; a graph that
        # survives it gets every other vertex power of the ladder in one pass
        self.nbhd.ensure(self.vertex_powers if self.nbhd.powers else powers)
        if stage.kind is StageKind.VERTEX:
            return self.nbhd.signature(powers, mode)
        return outblock_signature(self.graph, powers, mode, modulus=self.modulus, nbhd=self.nbhd)


@dataclass(frozen=True)
class StageResult:
    stage: LadderStage
    classes: int
    unresolved_graphs: int
    unresolved_pairs: int

    def to_json_obj(self) -> dict:
        return {
            **self.stage.to_json_obj(),
            "classes": self.classes,
            "unresolved_graphs": self.unresolved_graphs,
            "unresolved_pairs": self.unresolved_pairs,
        }


@dataclass
class DistinguishReport:
    family: str
    count: int
    stages: list[StageResult]
    final_classes: int
    distinguished: bool
    unresolved_pairs: list[tuple[int, int]]
    # None when an edge stage ran before the ladder's last vertex stage
    pairs_requiring_edge: int | None
    shared_vertex_invariant_graphs: int | None
    # None when the ladder has no vertex stage
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


def distinguish_family(
    graphs,
    ladder: LadderConfig | None = None,
    *,
    modulus: tuple[int, int] | None = None,
    family: str | None = None,
) -> DistinguishReport:
    """Run the ladder over one family and count distinguished classes.

    Graphs are grouped by cumulative signature; the run stops once every
    graph sits in its own class, so later stages get no result (a single
    graph gets none at all). An exact run that overflows is re-run whole
    under DEFAULT_MODULUS, so its values stay comparable with each other,
    and the report records why.
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("a family needs at least 1 graph")
    ladder = ladder or default_ladder()
    if family is None:
        family = f"{graphs[0].v}-?"
    try:
        return _walk_ladder(graphs, ladder, modulus, family)
    except MatrixOverflowError as e:
        if modulus is not None:
            raise
        report = _walk_ladder(graphs, ladder, DEFAULT_MODULUS, family)
        report.fallback = str(e)
        return report


def _walk_ladder(
    graphs: list[Graph],
    ladder: LadderConfig,
    modulus: tuple[int, int] | None,
    family: str,
) -> DistinguishReport:
    n = len(graphs)
    vertex_powers = ladder.vertex_powers()
    states = [_GraphState(g, modulus, vertex_powers) for g in graphs]
    last_vertex = max(
        (k for k, stage in enumerate(ladder.stages) if stage.kind is not StageKind.EDGE),
        default=-1,
    )
    # a lone graph is its own class before any stage runs
    groups: list[list[int]] = [list(range(n))] if n > 1 else []
    # unresolved graphs and pairs after the last non-edge stage so far
    shared_graphs, edge_pairs = sum(map(len, groups)), n * (n - 1) // 2
    results: list[StageResult] = []

    for k, stage in enumerate(ladder.stages):
        if not groups:
            break
        new_groups: list[list[int]] = []
        for grp in groups:
            # payloads are the keys: hashed, then compared in full
            seen: dict[object, list[int]] = {}
            for i in grp:
                seen.setdefault(states[i].payload(stage), []).append(i)
            for members in seen.values():
                if len(members) == 1:
                    states[members[0]].release(alone=True)
                else:
                    new_groups.append(members)
        groups = new_groups
        unresolved_graphs = sum(map(len, groups))
        unresolved_pairs = sum(len(grp) * (len(grp) - 1) // 2 for grp in groups)
        classes = n - unresolved_graphs + len(groups)
        results.append(StageResult(stage, classes, unresolved_graphs, unresolved_pairs))
        if stage.kind is not StageKind.EDGE:
            shared_graphs, edge_pairs = unresolved_graphs, unresolved_pairs
        if k == last_vertex:
            for grp in groups:
                for i in grp:
                    states[i].release(alone=False)

    final_pairs = sorted(pair for grp in groups for pair in itertools.combinations(grp, 2))
    final_classes = n - sum(map(len, groups)) + len(groups)
    # the graphs still sharing a class, and a lone graph, release last
    for state in states:
        state.release(alone=False)
    single_block = sum(state.single_block for state in states) if vertex_powers else None
    # an edge stage run before the last vertex stage may have split pairs
    # that a vertex stage would have split: both figures are then unknown
    if any(r.stage.kind is StageKind.EDGE for r in results[: last_vertex + 1]):
        shared_graphs = edge_pairs = None

    return DistinguishReport(
        family=family,
        count=n,
        stages=results,
        final_classes=final_classes,
        distinguished=final_classes == n,
        unresolved_pairs=final_pairs,
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
    """The pair run as a two-graph family: the stage that separated it, if
    any, and the family's fallback note."""
    if g1.v != g2.v:
        raise ValueError(f"vertex counts differ: {g1.v} vs {g2.v}")
    report = distinguish_family([g1, g2], ladder, modulus=modulus)
    if not report.distinguished:
        return PairVerdict(False, None, None, report.fallback)
    return PairVerdict(True, len(report.stages), report.stages[-1].stage, report.fallback)


# ---------------------------------------------------------------------------
# dataset loading and the full report


class DatasetError(ValueError):
    """An input failed reading, parsing or the SRG check."""


def read_graphs(paths) -> list[tuple[str, int, Graph]]:
    """Every graph of the inputs as (source, index in source, graph).

    A path is a file, a directory (its files in name order) or ``-`` for
    stdin, named ``<stdin>``. This is the one place that opens an input; a
    read, decode or parse error raises a DatasetError naming its source.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    entries: list[tuple[str, int, Graph]] = []
    for p in paths:
        if p == "-":
            readers = [("<stdin>", sys.stdin.read)]
        elif Path(p).is_dir():
            readers = [(str(q), q.read_text) for q in sorted(Path(p).iterdir()) if q.is_file()]
        else:
            readers = [(str(p), Path(p).read_text)]
        for source, read in readers:
            try:
                text = read()
            except (OSError, UnicodeDecodeError) as e:
                raise DatasetError(f"{source}: {e}") from None
            try:
                graphs = parse_graphs(text)
            except GraphFormatError as e:
                raise DatasetError(f"{source}: {e}") from None
            entries.extend((source, idx, g) for idx, g in enumerate(graphs))
    return entries


def load_dataset(paths, *, allow_non_srg: bool = False) -> list[tuple[Graph, SrgParams | None]]:
    """Read inputs with ``read_graphs`` into (graph, params) entries.

    Every graph must pass the SRG check unless allow_non_srg is set;
    rejections name the source, the graph index within it, and the failed
    condition.
    """
    entries = []
    for source, idx, g in read_graphs(paths):
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


def _family_job(payload) -> DistinguishReport:
    """One family's report; module-level, so a process pool can pickle it."""
    fam, ladder, modulus = payload
    return distinguish_family(fam.graphs, ladder, modulus=modulus, family=fam.key)


@dataclass
class DatasetReport:
    families: list[DistinguishReport]
    ladder: LadderConfig
    modulus: tuple[int, int] | None

    @property
    def totals(self) -> dict:
        fams = self.families

        def known_sum(values) -> int | None:
            # the figure over the families that know it; None when none does
            known = [x for x in values if x is not None]
            return sum(known) if known else None

        return {
            "graphs": sum(f.count for f in fams),
            "families": len(fams),
            "classes": sum(f.final_classes for f in fams),
            "unresolved_pairs": sum(len(f.unresolved_pairs) for f in fams),
            "pairs_requiring_edge_stages": known_sum(f.pairs_requiring_edge for f in fams),
            "shared_vertex_invariant_graphs": known_sum(
                f.shared_vertex_invariant_graphs for f in fams
            ),
            "single_block_graphs": known_sum(f.single_block_graphs for f in fams),
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
            for res in f.stages:
                mark = "*" if res.classes == f.count else ""
                cells.append(f"{res.classes}{mark}" if show_all or res.classes != prev else "")
                prev = res.classes
            # the stages after the family split run no more
            cells.extend([""] * (len(labels) - len(f.stages)))
            figures = (f.single_block_graphs, f.shared_vertex_invariant_graphs, f.pairs_requiring_edge)
            cells.extend(_figure(x) for x in figures)
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
            f"single-block graphs: {_figure(totals['single_block_graphs'])}  "
            f"pairs requiring edge stages: {_figure(totals['pairs_requiring_edge_stages'])}"
        )
        if self.modulus:
            lines.append(f"values are mod-reduced (primes {self.modulus[0]}, {self.modulus[1]})")
        fell_back = [f.family for f in self.families if f.fallback is not None]
        if fell_back:
            lines.append(f"exact arithmetic overflowed, values mod-reduced: {', '.join(fell_back)}")
        return "\n".join(lines)


def _figure(x: int | None) -> str:
    """A count as the text report prints it, ``?`` when it is unknown."""
    return "?" if x is None else str(x)


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
        # imported only here, so that ``import srginv`` and jobs=1 runs load
        # neither concurrent.futures nor multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # a forked pool starts all its workers at the first submit
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            reports = list(pool.map(_family_job, payloads))
    else:
        reports = [_family_job(p) for p in payloads]
    return DatasetReport(reports, ladder, modulus)
