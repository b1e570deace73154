"""The benchmark tracer must still see the bar matrix being built.

A traced helper that is no longer called reads 0 without failing
``test_traced_names.py``, so run the tracer over a family that reaches the
edge stages and check the edge count it records.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Petersen and a relabeling of it: isomorphic, so every stage runs
CODE = """
import json, tracing
from srginv import distinguish_family, random_relabel
from srginv.catalog import petersen_graph
tracer = tracing.Tracer().install()
g = petersen_graph()
h, _ = random_relabel(g, 5)
report = distinguish_family([g, h])
print(json.dumps({"metrics": tracer.metrics(), "classes": report.final_classes,
                  "directed_edges": 2 * g.edge_count}))
"""


def test_tracer_counts_the_bar_edges():
    # a fresh interpreter, so the installed wrappers stay out of this process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", CODE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics = out["metrics"]
    assert out["classes"] == 1
    assert metrics["edgeinv.bar_table_calls"] == 2  # one edge table per graph
    assert metrics["edgeinv.bar_edges"] > 0
    assert metrics["edgeinv.bar_edges"] == out["directed_edges"] * metrics["edgeinv.bar_table_calls"]
