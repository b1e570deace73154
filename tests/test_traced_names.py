"""The benchmark tracer must find every name it wraps.

``bench/tracing.py`` patches srginv functions where they are looked up and
skips, without failing, any name that no longer resolves; a renamed
function would then silently read 0 in the per-layer metrics.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_name():
    # a fresh interpreter, so the installed wrappers stay out of this process
    code = "import json, tracing; print(json.dumps(tracing.Tracer().install().missing))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
