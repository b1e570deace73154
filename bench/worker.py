"""One measured repetition in a fresh interpreter.

    python3 bench/worker.py --src SRC --data FILE [--modular] [--trace]

Imports srginv from SRC, loads FILE and runs the ladder report with
jobs=1. Prints one JSON object: ``setup_s`` (import srginv plus
``load_dataset``) and ``report_s`` (``dataset_report`` plus ``to_json``)
as CPU seconds of this process, the same two as wall seconds
(``setup_wall_s``, ``report_wall_s``), ``peak_rss_mb``, ``blas_threads``,
``threads``, the report text, ``error`` when a step raised, and with
--trace the per-layer metrics of tracing.py.

CPU time leaves out the time the process waited for a CPU, whether the
scheduler of this machine or the hypervisor under it (steal time) took
it away. The work is single-threaded (jobs=1, one BLAS thread; the
process reports its thread count), so on an idle machine it equals the
wall time.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def blas_threads() -> int | None:
    """Thread count reported by the BLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _BLAS_THREAD_QUERIES:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def thread_count() -> int | None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--data", required=True)
    ap.add_argument("--modular", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    out: dict = {}
    tracer = None
    t0, c0 = perf_counter(), process_time()
    try:
        import srginv

        if not Path(srginv.__file__).resolve().is_relative_to(Path(args.src).resolve()):
            raise ImportError(f"srginv imported from {srginv.__file__}, not from {args.src}")
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
            t0, c0 = perf_counter(), process_time()
            root = tracer.open("setup")
        entries = srginv.load_dataset(args.data)
        if tracer is not None:
            tracer.close(root)
        t1, c1 = perf_counter(), process_time()
        out["setup_s"], out["setup_wall_s"] = c1 - c0, t1 - t0
        modulus = srginv.DEFAULT_MODULUS if args.modular else None
        if tracer is not None:
            root = tracer.open("report")
        text = srginv.dataset_report(entries, modulus=modulus, jobs=1).to_json()
        if tracer is not None:
            tracer.close(root)
        out["report_s"], out["report_wall_s"] = process_time() - c1, perf_counter() - t1
        out["report"] = text
    except Exception as e:  # reported to the parent as a failed run
        out["error"] = f"{type(e).__name__}: {e}"
    if tracer is not None and "error" not in out:
        out["layers"] = tracer.metrics()
        out["trace_missing"] = tracer.missing
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["blas_threads"] = blas_threads()
    out["threads"] = thread_count()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
