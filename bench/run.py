"""Ladder benchmark on seeded Latin-square SRG families.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; srginv is imported from its ``src/``
directory. The seed fixes the generated graphs. Generation and the
isomorphism-oracle ground truth run once, untimed; then, for about S
seconds, fresh worker processes each load the workload and run
``dataset_report`` with jobs=1 and ``to_json``. With --trace 0 the result
holds the end-to-end metrics, medians over the runs; with --trace 1 it
holds the per-layer metrics of traced runs, alternated with untraced runs
to measure the tracing overhead. Times are CPU seconds of the worker
process (see worker.py); the wall times are printed beside them. BLAS is
pinned to one thread. The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pinned before numpy loads, here and in every worker this process starts
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_RUNS = 3
WORKER_TIMEOUT_S = 150
# representative pairs the oracle checks; beyond this a seeded sample
REP_PAIR_LIMIT = 150

END_TO_END_UNITS = {
    "report_s": "s",
    "graphs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    order: int  # Latin-square order n: srg(n^2, 3(n-1), n, 6)
    squares: int
    paratopes: bool  # add a random paratope of every square
    distinct: bool  # skip squares repeating a triangle profile
    modular: bool  # run under modulus=DEFAULT_MODULUS
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "latin6-full", 6, 24, True, False, False,
            "srg(36,15,6,6), every graph with an isomorphic partner: all 17 stages, "
            "edge and matpow bound",
        ),
        Workload(
            "latin8-vertex", 8, 600, False, True, False,
            "srg(64,21,8,6), separated by the first stage: per-graph Python work in "
            "vertexinv, no edge stages",
        ),
        Workload(
            "latin8-modular", 8, 40, False, True, True,
            "srg(64,21,8,6) under the dual-prime modulus: the object-dtype modular "
            "matpow path",
        ),
    )
}


@dataclass
class Prepared:
    graphs: list
    known_pairs: list[tuple[int, int]]
    data: Path


def prepare(workload: Workload, seed: int, workdir: Path) -> Prepared:
    from latin import latin_graphs, write_workload

    graphs, pairs = latin_graphs(
        workload.order,
        workload.squares,
        seed,
        paratopes=workload.paratopes,
        distinct=workload.distinct,
    )
    data = write_workload(graphs, workdir / f"{workload.name}.g6")
    return Prepared(graphs, pairs, data)


def run_worker(data: Path, modular: bool, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC), "--data", str(data)]
    if modular:
        cmd.append("--modular")
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def environment(worker: dict) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} blas={blas.get('name')} {blas.get('version')} "
        f"blas_threads={worker.get('blas_threads')} worker_threads={worker.get('threads')}"
    )


def measure(workload: Workload, seed: int, seconds: float, trace: bool, say=print) -> dict:
    """Generate, check and time one workload; returns the result object."""
    from oracle import check_classes, report_classes

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=WORK))
    try:
        prep = prepare(workload, seed, workdir)
        n = len(prep.graphs)
        say(f"workload {workload.name} seed {seed}: {n} graphs of order {workload.order}, "
            f"modulus {'DEFAULT_MODULUS' if workload.modular else 'none'}")

        # untraced and traced runs alternate under --trace 1
        plan = (False, True) if trace else (False,)
        runs: list[tuple[bool, dict]] = []
        start = perf_counter()
        while True:
            for traced in plan:
                runs.append((traced, run_worker(prep.data, workload.modular, traced)))
            elapsed = perf_counter() - start
            per_round = elapsed / (len(runs) // len(plan))
            if len(runs) >= MIN_RUNS * len(plan) and elapsed + per_round > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    good = [r for _, r in runs if "error" not in r]
    reference = good[0]["report"] if good else None
    if reference is not None:
        oracle = check_classes(
            prep.graphs,
            report_classes(json.loads(reference)),
            known_pairs=prep.known_pairs,
            rep_pair_limit=REP_PAIR_LIMIT,
            seed=seed,
        )
        say(oracle.summary())
        for problem in oracle.problems[:10]:
            say(f"  {problem}")
        correct_report = oracle.ok
    else:
        correct_report = False

    failed = 0
    for _, r in runs:
        if "error" in r:
            say(f"run failed: {r['error']}")
            failed += 1
        elif not correct_report or r["report"] != reference:
            failed += 1
    digest = hashlib.sha256(reference.encode()).hexdigest()[:16] if reference else None
    say(f"report sha256 {digest}; failed_ratio {failed / len(runs):.4f} "
        f"({failed} of {len(runs)} runs)")
    say(environment(good[0] if good else {}))

    untraced = [r for traced, r in runs if not traced and "error" not in r]
    if trace:
        traced_runs = [r for traced, r in runs if traced and "error" not in r]
        for name in traced_runs[0]["trace_missing"] if traced_runs else ():
            say(f"not traced, no such name: {name}")
        layers = [r["layers"] for r in traced_runs]
        metrics = _layer_metrics(layers, untraced, say)
    else:
        metrics = _end_to_end_metrics(untraced, n, say)
    return {
        "correct": failed == 0 and correct_report,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def _end_to_end_metrics(runs: list[dict], n: int, say) -> dict:
    if not runs:
        return {}
    values = {
        "report_s": [r["report_s"] for r in runs],
        "graphs_per_s": [n / r["report_s"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    metrics = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        unit = END_TO_END_UNITS[name]
        say(f"{name:>14} median {med:.6g} {unit}  min {min(vals):.6g}  max {max(vals):.6g}  "
            f"n={len(vals)}")
        metrics[name] = {"value": med, "unit": unit}
    for name in ("report_wall_s", "setup_wall_s"):
        vals = [r[name] for r in runs]
        say(f"{name:>14} median {statistics.median(vals):.6g} s  min {min(vals):.6g}  "
            f"max {max(vals):.6g}  (wall time, not a metric)")
    return metrics


def _layer_metrics(layers: list[dict], untraced: list[dict], say) -> dict:
    from tracing import UNITS, median_run

    if not layers or not untraced:
        return {}
    values = median_run(layers)
    values["trace.overhead_s"] = values["trace.report_s"] - statistics.median(
        r["report_s"] for r in untraced
    )
    report = values["trace.report_s"]
    say(f"traced report_s {report:.4f} s (median of {len(layers)} traced runs); self time:")
    for key in ("vertexinv.self_s", "matpow.self_s", "edgeinv.self_s", "pipeline.self_s",
                "trace.remainder_s"):
        say(f"  {key:<20} {values[key]:9.4f} s  {values[key] / report:6.1%}")
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "srginv" / "__init__.py").is_file():
        print(f"error: no srginv sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
