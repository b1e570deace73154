"""Command-line interface.

Subcommands: check-srg, vertex-inv, edge-inv, compare, report. Input files
are graph6 (one record per line) or raw 0/1 adjacency rows (blank-line
separated blocks), told apart by their first non-blank character; there is
no format option. Every subcommand reads its inputs through
``pipeline.read_graphs``: a file, a directory (its files in name order) or
``-`` for stdin, and stdin when no path is given; ``compare - -`` reads
its two graphs from stdin at once.

Exit codes: 0 = success / all distinguished, 2 = negative verdict
(non-SRG input, indistinguishable pair, unresolved pairs), 1 = usage or
data error, 141 = stdout closed by its reader (128 + SIGPIPE, as a shell
reports for ``cat`` there), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .edgeinv import bar_diag_table
from .graph import Graph, GraphFormatError, srg_diagnosis
from .matpow import DEFAULT_MODULUS, MatrixOverflowError, check_powers
from .pipeline import (
    DatasetError,
    LadderConfig,
    compare_pair,
    dataset_report,
    default_ladder,
    load_dataset,
    read_graphs,
)
from .vertexinv import InvariantMode, NeighborhoodPowerCache

def _parse_powers(text: str, minimum: int) -> tuple[int, ...]:
    try:
        powers = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"bad power list {text!r} (expected e.g. 3,4)") from None
    return check_powers(powers, minimum)


def _load_ladder(choice: str) -> LadderConfig:
    if choice == "default":
        return default_ladder()
    text = Path(choice).read_text()
    try:
        return LadderConfig.from_json(text)
    except ValueError as e:
        raise ValueError(f"{choice}: {e}") from None


def _read_graphs_exactly(path: str, count: int) -> list[Graph]:
    """The ``count`` graphs of one input; stdin is named ``<stdin>``."""
    entries = read_graphs([path])
    if len(entries) != count:
        name = "<stdin>" if path == "-" else path
        want = "one graph" if count == 1 else f"{count} graphs"
        raise DatasetError(f"{name}: expected exactly {want}, found {len(entries)}")
    return [g for _, _, g in entries]


def positive_int(text: str) -> int:
    """An integer of at least 1, as an argparse type."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _modulus(args) -> tuple[int, int] | None:
    return DEFAULT_MODULUS if args.modulus else None


def cmd_check_srg(args) -> int:
    all_srg = True
    for name, idx, g in read_graphs(args.files or ["-"]):
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


def _print_graphs(args, powers: tuple[int, ...], out: list[dict], lines) -> int:
    """Print the per-graph results ``out`` of vertex-inv or edge-inv as one
    JSON object, or as the table lines ``lines`` gives for each graph."""
    if args.out == "json":
        payload = {
            "mode": args.mode,
            "powers": list(powers),
            "arithmetic": "mod-reduced" if args.modulus else "exact",
            "graphs": out,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for g in out:
            print("\n".join(lines(g)))
    return 0


def cmd_vertex_inv(args) -> int:
    mode = InvariantMode(args.mode)
    powers = _parse_powers(args.powers, 1)
    modulus = _modulus(args)
    out = []
    for name, idx, g in read_graphs(args.files or ["-"]):
        nbhd = NeighborhoodPowerCache(g, modulus)
        values = nbhd.signature_values(powers, mode)
        rows = nbhd.signature(powers, mode).rows
        # one block per distinct row, in the sorted order of the rows
        blocks: dict[tuple[int, ...], list[int]] = {row: [] for row in rows}
        for a, row in enumerate(values):
            blocks[row].append(a)
        params, _ = srg_diagnosis(g)
        out.append(
            {
                "source": name,
                "index": idx,
                "params": params.key() if params else None,
                "vertex_signatures": [list(row) for row in values],
                "graph_signature": [list(row) for row in rows],
                "partition": list(blocks.values()),
                "blocks": len(blocks),
            }
        )

    def lines(g: dict) -> list[str]:
        head = f"{g['source']}:{g['index']}  params={g['params']}  blocks={g['blocks']}"
        return [head, *("  " + " ".join(map(str, row)) for row in g["graph_signature"])]

    return _print_graphs(args, powers, out, lines)


def cmd_edge_inv(args) -> int:
    mode = InvariantMode(args.mode)
    powers = _parse_powers(args.powers, 2)
    modulus = _modulus(args)
    out = []
    for name, idx, g in read_graphs(args.files or ["-"]):
        table = bar_diag_table(g, powers, modulus=modulus)
        # both orientations of an edge share its value
        values = {
            str(p): (
                [table[p].trace]
                if mode is InvariantMode.TRACE
                else np.repeat(np.sort(table[p].values), 2).tolist()
            )
            for p in powers
        }
        heads, tails = np.nonzero(np.triu(g.dense()))
        triples = zip(heads.tolist(), tails.tolist(), table[powers[-1]].values.tolist())
        out.append(
            {
                "source": name,
                "index": idx,
                "directed_edges": 2 * g.edge_count,
                "values": values,
                "partition": [list(t) for t in triples],
                "partition_power": powers[-1],
            }
        )

    def lines(g: dict) -> list[str]:
        head = f"{g['source']}:{g['index']}  directed edges={g['directed_edges']}"
        return [head, *(f"  p={p}: {' '.join(map(str, vals))}" for p, vals in g["values"].items())]

    return _print_graphs(args, powers, out, lines)


def cmd_compare(args) -> int:
    if args.file_a == args.file_b == "-":  # stdin can be read only once
        g1, g2 = _read_graphs_exactly("-", 2)
    else:
        (g1,) = _read_graphs_exactly(args.file_a, 1)
        (g2,) = _read_graphs_exactly(args.file_b, 1)
    verdict = compare_pair(g1, g2, _load_ladder(args.ladder), modulus=_modulus(args))
    print(verdict.describe())
    return 0 if verdict.distinguished else 2


def cmd_report(args) -> int:
    ladder = _load_ladder(args.ladder)
    modulus = _modulus(args)
    entries = load_dataset(args.paths or ["-"], allow_non_srg=args.allow_non_srg)
    report = dataset_report(entries, ladder, modulus=modulus, jobs=args.jobs)
    if args.out == "json":
        print(report.to_json())
    else:
        print(report.to_text(show_all=args.show_all))
    return 0 if report.totals["unresolved_pairs"] == 0 else 2


def _add_modulus(p):
    p.add_argument("--modulus", action="store_true",
                   help="dual-prime modular arithmetic (values become mod-reduced)")


def _add_common(p, powers_default: str, powers_help: str):
    p.add_argument("--mode", choices=[m.value for m in InvariantMode],
                   default=InvariantMode.SORTED_DIAG.value)
    p.add_argument("--powers", default=powers_default, help=powers_help)
    p.add_argument("--out", choices=["json", "table"], default="json")
    _add_modulus(p)


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for negative verdicts; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")

    def exit(self, status=0, message=None):
        sys.stdout.flush()  # --help into a closed stdout raises here, in main's try
        super().exit(status, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="srginv",
        description="Vertex and edge invariants distinguishing strongly regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-srg", help="verify strong regularity, print v-k-lambda-mu")
    p.add_argument("files", nargs="*", help="graph files (stdin when omitted)")
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
    p.add_argument("--ladder", default="default", help="'default' or a ladder JSON file")
    _add_modulus(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="family class counts over a dataset")
    p.add_argument("paths", nargs="*", help="dataset files or directories (stdin when omitted)")
    p.add_argument("--ladder", default="default")
    p.add_argument("--out", choices=["json", "table"], default="table")
    p.add_argument("--jobs", type=positive_int, default=1,
                   help="families processed in parallel")
    p.add_argument("--allow-non-srg", action="store_true",
                   help="process graphs failing the SRG check instead of rejecting")
    p.add_argument("--show-all", action="store_true",
                   help="print every stage count, not only changes")
    _add_modulus(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at shutdown
        return code
    except BrokenPipeError:
        # the reader of stdout is gone; the shutdown flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (MatrixOverflowError, DatasetError, GraphFormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
