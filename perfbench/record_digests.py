"""Record the output digests that run.py checks every output against.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are the reference, such as the
commit that introduced the benchmark.  Runs each invocation any seed can
produce once, checks it, and rewrites perfbench/digests.json.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time

sys.dont_write_bytecode = True
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    root = os.getcwd()
    workdir = os.path.join(root, ".perfbench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = run.Runner(root, workdir, deadline=time.monotonic() + 3600)
    digests = {}
    try:
        for inv in workloads.every_invocation():
            child, data = runner.invoke(inv)
            if child.exit_code != 0 or data is None:
                print(f"error: {inv.key} exited {child.exit_code}", file=sys.stderr)
                return 1
            body, _, problems = workloads.canonical(inv, data)
            if problems:
                print(f"error: {inv.key}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            digests[inv.key] = hashlib.sha256(body).hexdigest()
            print(f"{digests[inv.key][:12]}  {child.wall_s:6.2f} s  {inv.key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
