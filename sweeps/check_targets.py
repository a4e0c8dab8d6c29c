"""Run the target grids and compare their outputs with sweeps/digests.json.

Each entry of sweeps/targets.json runs as ``kyoung sweep --config`` on a
file that holds that entry alone, so that each grid gets a wall time and a
peak RSS of its own; ``kyoung ideal --m 7 --n 60 --k 18`` is the export
target.  Every run is a ``python -m kyoung`` child in one temporary
directory, on the package under ``src/`` of this checkout.  A report is
digested by report_digest, which the tests share for sweeps/goldens.json;
the ideal's JSON byte for byte.

    python3 sweeps/check_targets.py            # check every target
    python3 sweeps/check_targets.py --record   # write sweeps/digests.json

Exit 0 when every digest matches, 1 on a mismatch or a failed run.  A run
that exits non-zero or writes no report reads FAILED, and then --record
writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
IDEAL = ["ideal", "--m", "7", "--n", "60", "--k", "18"]


def targets() -> dict[str, dict | list[str]]:
    """Target name -> its sweep entry, or the argv of the ideal export."""
    entries = json.loads((HERE / "targets.json").read_text())["sweeps"]
    return {**{entry["check"]: entry for entry in entries}, "ideal": IDEAL}


def run(argv: list[str], cwd: str) -> tuple[int, float, float, str]:
    """Run kyoung with argv in cwd: its exit code, wall seconds, peak RSS in
    MiB, and the sha256 of what it wrote on stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "kyoung", *argv]
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE) as proc:
        for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
            digest.update(chunk)
        # wait4 reaps the child and gives its own rusage; Popen is told the status
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    return proc.returncode, wall, usage.ru_maxrss / 1024, digest.hexdigest()


def report_digest(reports: dict | list[dict]) -> str:
    """The one report digest outside perfbench/, in the form of its own
    workloads.canonical: the sha256 of json.dumps(reports, sort_keys=True)
    over the reports as a list, each without elapsed_ms."""
    reports = [dict(rep) for rep in (reports if isinstance(reports, list) else [reports])]
    for rep in reports:
        del rep["elapsed_ms"]
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--record", action="store_true", help="write the digests found")
    args = parser.parse_args(argv)
    recorded_path = HERE / "digests.json"
    recorded = json.loads(recorded_path.read_text()) if recorded_path.exists() else {}
    found, ok = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        for name, target in targets().items():
            if isinstance(target, list):
                code, wall, rss, digest = run(target, tmp)
            else:
                config = Path(tmp, "config.json")
                config.write_text(json.dumps({"sweeps": [target]}))
                code, wall, rss, _ = run(["sweep", "--config", str(config)], tmp)
                out = Path(tmp, target["out"])
                digest = report_digest(json.loads(out.read_text())) if out.exists() else None
            found[name] = digest
            if code != 0 or digest is None:
                verdict = "FAILED"
            elif args.record:
                verdict = f"digest {digest[:12]}"
            else:
                verdict = "match" if digest == recorded.get(name) else "MISMATCH"
            ok = ok and verdict not in ("FAILED", "MISMATCH")
            print(f"{name}: exit {code}, {wall:.1f} s, peak RSS {rss:.0f} MiB, {verdict}")
    if args.record:
        if ok:
            recorded_path.write_text(json.dumps(found, indent=1) + "\n")
        print(f"recorded {recorded_path.name}" if ok else "recorded nothing: a run failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
