"""The traced benchmark launcher still finds every name it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_launcher_runs_and_reads_gaussian_cache(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "perfbench" / "traced.py"), str(out)]
    argv += ["rankgen", "--m", "3", "--n", "3", "--k", "4"]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(out.read_text())["layers"]
    assert "cache_size" in layers["qpoly.gaussian"]
