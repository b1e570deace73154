"""Command-line interface.

Subcommands: check-srg, vertex-inv, edge-inv, compare, report. Input files
are graph6 (one record per line) or raw 0/1 adjacency rows (blank-line
separated blocks), auto-detected by default. Graphs are read from stdin
when no file is given.

Exit codes: 0 = success / all distinguished, 2 = negative verdict
(non-SRG input, indistinguishable pair, unresolved pairs), 1 = usage or
data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .edgeinv import bar_diag_table, partition_edges
from .graph import Graph, GraphFormatError, parse_graphs, srg_diagnosis
from .matpow import DEFAULT_MODULUS, MatrixOverflowError, check_powers
from .pipeline import (
    DatasetError,
    LadderConfig,
    compare_pair,
    dataset_report,
    default_ladder,
    load_dataset,
    load_dataset_text,
)
from .vertexinv import (
    InvariantMode,
    partition_vertices,
    row_sort_key,
    vertex_signatures,
)

_MODES = {"trace": InvariantMode.TRACE, "sortdiag": InvariantMode.SORTED_DIAG}


def _parse_powers(text: str, minimum: int) -> tuple[int, ...]:
    try:
        powers = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad power list {text!r} (expected e.g. 3,4)") from None
    return check_powers(powers, minimum)


def _load_ladder(choice: str) -> LadderConfig:
    if choice == "default":
        return default_ladder()
    return LadderConfig.from_json(Path(choice).read_text())


def _read_named_inputs(paths) -> list[tuple[str, str]]:
    if not paths:
        return [("<stdin>", sys.stdin.read())]
    out = []
    for p in paths:
        if p == "-":
            out.append(("<stdin>", sys.stdin.read()))
        else:
            out.append((p, Path(p).read_text()))
    return out


def _read_graphs(paths, fmt: str) -> list[tuple[str, int, Graph]]:
    named = []
    for name, text in _read_named_inputs(paths):
        try:
            graphs = parse_graphs(text, fmt)
        except GraphFormatError as e:
            raise DatasetError(f"{name}: {e}") from None
        named.extend((name, i, g) for i, g in enumerate(graphs))
    return named


def _read_single_graph(path: str, fmt: str) -> Graph:
    entries = _read_graphs([path] if path else [], fmt)
    if len(entries) != 1:
        raise DatasetError(
            f"{path or '<stdin>'}: expected exactly one graph, found {len(entries)}"
        )
    return entries[0][2]


def _modulus(args) -> tuple[int, int] | None:
    return DEFAULT_MODULUS if args.modulus else None


def cmd_check_srg(args) -> int:
    all_srg = True
    for name, idx, g in _read_graphs(args.files, args.format):
        params, reason = srg_diagnosis(g)
        if params is not None:
            note = ""
            if params.degenerate:
                which = "mu" if params.mu is None else "lambda"
                note = f"  ({which} undefined)"
            print(f"{name}:{idx}: {params.key()}{note}")
        else:
            all_srg = False
            print(f"{name}:{idx}: not an SRG: {reason}")
    return 0 if all_srg else 2


def cmd_vertex_inv(args) -> int:
    mode = _MODES[args.mode]
    powers = _parse_powers(args.powers, 1)
    modulus = _modulus(args)
    out = []
    for name, idx, g in _read_graphs(args.files, args.format):
        sigs = vertex_signatures(g, powers, mode, modulus=modulus)
        part = partition_vertices(sigs)
        rows = sorted((s.values for s in sigs), key=row_sort_key)
        params, _ = srg_diagnosis(g) if g.v >= 2 else (None, None)
        out.append(
            {
                "source": name,
                "index": idx,
                "params": params.key() if params else None,
                "vertex_signatures": [list(s.values) for s in sigs],
                "graph_signature": [list(r) for r in rows],
                "partition": [list(b) for b in part.blocks],
                "blocks": len(part.blocks),
            }
        )
    payload = {
        "mode": args.mode,
        "powers": list(powers),
        "arithmetic": "mod-reduced" if modulus else "exact",
        "graphs": out,
    }
    if args.out == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for g in out:
            print(f"{g['source']}:{g['index']}  params={g['params']}  blocks={g['blocks']}")
            for row in g["graph_signature"]:
                print("  " + " ".join(map(str, row)))
    return 0


def cmd_edge_inv(args) -> int:
    mode = _MODES[args.mode]
    powers = _parse_powers(args.powers, 2)
    modulus = _modulus(args)
    out = []
    for name, idx, g in _read_graphs(args.files, args.format):
        table = bar_diag_table(g, powers, modulus=modulus)
        part = partition_edges(g, table[powers[-1]])
        values = {
            str(p): (
                [table[p].trace]
                if mode is InvariantMode.TRACE
                else list(table[p].sorted_values)
            )
            for p in powers
        }
        out.append(
            {
                "source": name,
                "index": idx,
                "directed_edges": 2 * g.edge_count,
                "values": values,
                "partition": part.undirected_triples(),
                "partition_power": powers[-1],
            }
        )
    payload = {
        "mode": args.mode,
        "powers": list(powers),
        "arithmetic": "mod-reduced" if modulus else "exact",
        "graphs": out,
    }
    if args.out == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for g in out:
            print(f"{g['source']}:{g['index']}  directed edges={g['directed_edges']}")
            for p, vals in g["values"].items():
                print(f"  p={p}: {' '.join(map(str, vals))}")
    return 0


def cmd_compare(args) -> int:
    g1 = _read_single_graph(args.file_a, args.format)
    g2 = _read_single_graph(args.file_b, args.format)
    verdict = compare_pair(g1, g2, _load_ladder(args.ladder), modulus=_modulus(args))
    print(verdict.describe())
    return 0 if verdict.distinguished else 2


def cmd_report(args) -> int:
    ladder = _load_ladder(args.ladder)
    modulus = _modulus(args)
    if args.paths:
        entries = load_dataset(args.paths, args.format, allow_non_srg=args.allow_non_srg)
    else:
        entries = load_dataset_text(
            sys.stdin.read(), args.format, allow_non_srg=args.allow_non_srg
        )
    report = dataset_report(entries, ladder, modulus=modulus, jobs=args.jobs)
    if args.out == "json":
        print(report.to_json())
    else:
        print(report.to_text(show_all=args.show_all))
    return 0 if report.totals["unresolved_pairs"] == 0 else 2


def _add_common(p, powers_default: str, powers_help: str):
    p.add_argument("--format", choices=["auto", "graph6", "rows"], default="auto")
    p.add_argument("--mode", choices=["trace", "sortdiag"], default="sortdiag")
    p.add_argument("--powers", default=powers_default, help=powers_help)
    p.add_argument("--out", choices=["json", "table"], default="json")
    p.add_argument("--modulus", action="store_true",
                   help="dual-prime modular arithmetic (values become mod-reduced)")


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for negative verdicts; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="srginv",
        description="Vertex and edge invariants distinguishing strongly regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-srg", help="verify strong regularity, print v-k-lambda-mu")
    p.add_argument("files", nargs="*", help="graph files (stdin when omitted)")
    p.add_argument("--format", choices=["auto", "graph6", "rows"], default="auto")
    p.set_defaults(func=cmd_check_srg)

    p = sub.add_parser("vertex-inv", help="neighborhood power invariants per vertex")
    p.add_argument("files", nargs="*")
    _add_common(p, "3", "comma-separated powers, e.g. 3,4")
    p.set_defaults(func=cmd_vertex_inv)

    p = sub.add_parser("edge-inv", help="bar-matrix power invariants per edge")
    p.add_argument("files", nargs="*")
    _add_common(p, "2,3,4,5", "comma-separated powers >= 2")
    p.set_defaults(func=cmd_edge_inv)

    p = sub.add_parser("compare", help="run the ladder on a pair of graphs")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--format", choices=["auto", "graph6", "rows"], default="auto")
    p.add_argument("--ladder", default="default", help="'default' or a ladder JSON file")
    p.add_argument("--modulus", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="family class counts over a dataset")
    p.add_argument("paths", nargs="*", help="dataset files or directories (stdin when omitted)")
    p.add_argument("--format", choices=["auto", "graph6", "rows"], default="auto")
    p.add_argument("--ladder", default="default")
    p.add_argument("--out", choices=["json", "table"], default="table")
    p.add_argument("--jobs", type=int, default=1, help="families processed in parallel")
    p.add_argument("--allow-non-srg", action="store_true",
                   help="process graphs failing the SRG check instead of rejecting")
    p.add_argument("--show-all", action="store_true",
                   help="print every stage count, not only changes")
    p.add_argument("--modulus", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MatrixOverflowError, DatasetError, GraphFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
