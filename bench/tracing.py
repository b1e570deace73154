"""Spans and counts around the public entry points of each srginv module.

Each wrapper is installed where the name is looked up: ``pipeline``
from-imports ``outblock_signature``, ``bar_diag_table``, ``parse_graphs``
and ``srg_diagnosis``, so those are patched on ``pipeline``. The
recursive ``PowerCache.power`` is not wrapped; its products are timed at
``matpow.checked_matmul``. Spans (name, start, end, parent) stay in memory
until ``metrics()`` turns them into per-layer totals, self times and
counts. A span's self time is its duration minus that of its children.
Span times are CPU seconds of the process, like the worker's untraced
``report_s``.
"""

from __future__ import annotations

import collections
import functools
import importlib
from time import process_time

import numpy as np

# per-layer metric -> unit; every traced run reports all of them
UNITS = {
    "graph.parse_s": "s",
    "graph.srg_check_s": "s",
    "graph.graphs": "count",
    "vertexinv.ensure_s": "s",
    "vertexinv.ensure_calls": "count",
    "vertexinv.self_s": "s",
    "vertexinv.outblock_s": "s",
    "vertexinv.outblock_calls": "count",
    "matpow.matmul_s": "s",
    "matpow.matmul_calls.float64": "count",
    "matpow.matmul_calls.int64": "count",
    "matpow.matmul_calls.object": "count",
    "matpow.flops": "flop_computed",
    "matpow.bytes": "B_computed",
    "matpow.modular_s": "s",
    "matpow.modular_products": "count",
    "matpow.self_s": "s",
    "edgeinv.bar_table_s": "s",
    "edgeinv.bar_table_calls": "count",
    "edgeinv.bar_build_s": "s",
    "edgeinv.self_s": "s",
    "edgeinv.bar_edges": "count",
    "pipeline.family_s": "s",
    "pipeline.self_s": "s",
    "pipeline.evals.vertex": "count",
    "pipeline.json_s": "s",
    "trace.report_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}

MODULES = ("vertexinv", "matpow", "edgeinv", "pipeline")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, process_time(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = process_time()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, path: str, name: str, on_return=None, outermost: bool = False):
        """Replace ``srginv.<path>`` by a wrapper recording span ``name``.

        ``on_return(counts, args, result)`` updates counts after the call.
        With ``outermost``, calls made inside a span of the same name run
        unrecorded, so a recursive function is timed once. A path that no
        longer resolves is listed in ``missing`` and left alone.
        """
        module, *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(f"srginv.{module}")
        except ImportError:
            owner = None
        for part in owners:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(path)
            return
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if outermost and tracer.current() == name:
                return orig(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if on_return is not None:
                on_return(tracer.counts, args, result)
            return result

        setattr(owner, attr, wrapper)

    def install(self) -> "Tracer":
        self.wrap("pipeline.parse_graphs", "graph.parse",
                  lambda c, a, r: c.update({"graph.graphs": len(r)}))
        self.wrap("pipeline.srg_diagnosis", "graph.srg_check")
        self.wrap("pipeline.distinguish_family", "pipeline.family")
        self.wrap("pipeline.DatasetReport.to_json", "pipeline.json")
        self.wrap("vertexinv.NeighborhoodPowerCache.ensure", "vertexinv.ensure")
        self.wrap("vertexinv.NeighborhoodPowerCache.signature_values", "vertexinv.signature_values")
        self.wrap("pipeline.outblock_signature", "vertexinv.outblock")
        self.wrap("vertexinv.power_cache", "matpow.engine")
        self.wrap("edgeinv.power_cache", "matpow.engine")
        self.wrap("matpow.checked_matmul", "matpow.matmul", _count_matmul)
        self.wrap("matpow.ModularPowerCache.power", "matpow.modular", outermost=True)
        self.wrap("pipeline.bar_diag_table", "edgeinv.bar_table")
        self.wrap("edgeinv.build_bar_matrix", "edgeinv.bar_build",
                  lambda c, a, r: c.update({"edgeinv.bar_edges": r.n}))
        return self

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over all recorded spans (see UNITS)."""
        n = len(self.spans)
        child_time = [0.0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                children[parent].append(i)
        total: collections.Counter = collections.Counter()
        calls: collections.Counter = collections.Counter()
        self_time: collections.Counter = collections.Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_time[name.split(".")[0]] += end - start - child_time[i]
        computing_ensures = sum(
            1
            for i, span in enumerate(self.spans)
            if span[0] == "vertexinv.ensure"
            and any(self.spans[c][0] == "matpow.engine" for c in children[i])
        )
        vertex_evals = sum(
            1
            for name, _, _, parent in self.spans
            if name == "vertexinv.signature_values"
            and parent >= 0
            and self.spans[parent][0] == "pipeline.family"
        )
        out = {
            "graph.parse_s": total["graph.parse"],
            "graph.srg_check_s": total["graph.srg_check"],
            "graph.graphs": self.counts["graph.graphs"],
            "vertexinv.ensure_s": total["vertexinv.ensure"],
            "vertexinv.ensure_calls": computing_ensures,
            "vertexinv.outblock_s": total["vertexinv.outblock"],
            "vertexinv.outblock_calls": calls["vertexinv.outblock"],
            "matpow.matmul_s": total["matpow.matmul"],
            "matpow.modular_s": total["matpow.modular"],
            "matpow.modular_products": calls["matpow.modular"],
            "edgeinv.bar_table_s": total["edgeinv.bar_table"],
            "edgeinv.bar_table_calls": calls["edgeinv.bar_table"],
            "edgeinv.bar_build_s": total["edgeinv.bar_build"],
            "edgeinv.bar_edges": self.counts["edgeinv.bar_edges"],
            "pipeline.family_s": total["pipeline.family"],
            "pipeline.evals.vertex": vertex_evals,
            "pipeline.json_s": total["pipeline.json"],
            "trace.report_s": total["report"],
            "trace.remainder_s": self_time["report"],
        }
        for dtype in ("float64", "int64", "object"):
            out[f"matpow.matmul_calls.{dtype}"] = self.counts[f"matmul.{dtype}"]
        out["matpow.flops"] = self.counts["matmul.flops"]
        out["matpow.bytes"] = self.counts["matmul.bytes"]
        for module in MODULES:
            out[f"{module}.self_s"] = self_time[module]
        return out


def _count_matmul(counts, args, result) -> None:
    a, b = args
    counts[f"matmul.{result.dtype}"] += 1
    # computed from shapes, not measured: 2*m*i*j*l flops for (m,i,j)@(m,j,l)
    counts["matmul.flops"] += 2 * int(np.prod(result.shape)) * a.shape[-1]
    counts["matmul.bytes"] += a.nbytes + b.nbytes + result.nbytes


def median_run(runs: list[dict[str, float]]) -> dict[str, float]:
    """The traced run with the median ``trace.report_s`` (the lower middle
    one for an even count), so its self times still add up."""
    ordered = sorted(runs, key=lambda r: r["trace.report_s"])
    return dict(ordered[(len(ordered) - 1) // 2])
