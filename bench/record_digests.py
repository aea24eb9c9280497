"""Record the report digests that the benchmark's correctness gate compares.

    python3 bench/record_digests.py

Runs every command any seed of any workload can produce, checks its exit
code and report schema, and writes the SHA-256 of each report to
``digests.json``.  Run it only on a commit whose reports are known to be
right: a later change that alters any report byte then fails the gate.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run


def main() -> int:
    problems = run.load_checker(digests=False)
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=run.ROOT))
    reports, failed = {}, 0
    try:
        runner = run.Runner(work, time.perf_counter() + 3600)
        for workload in run.WORKLOADS:
            for argv in run.reachable(workload):
                cmd = runner.command(argv, traced=False)
                bad = problems(cmd)
                failed += bool(bad)
                reports[run.command_key(argv)] = hashlib.sha256(cmd.report).hexdigest()
                print(f"{cmd.wall_s:7.2f} s  {run.command_key(argv)}  {'; '.join(bad)}",
                      flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if failed:
        print(f"{failed} command(s) failed; digests not written", file=sys.stderr)
        return 1
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip()
    run.DIGESTS.write_text(json.dumps({"recorded_from": commit or None, "reports": reports},
                                      indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
