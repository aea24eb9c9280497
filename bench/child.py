"""Run ``python -m qhlab.cli`` and record the process's peak RSS at exit.

    PYTHONPATH=src python3 bench/child.py PEAK_FILE [qhlab arguments...]

The peak written to ``PEAK_FILE`` is ``VmHWM`` from ``/proc/self/status``
in KiB, which covers this program image only.  ``ru_maxrss`` from ``wait4``
would also count the benchmark's own pages that the child held between
``fork`` and ``exec``.
"""

import atexit
import runpy
import sys


def _record_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(kib + "\n")


if __name__ == "__main__":
    atexit.register(_record_peak, sys.argv[1])
    del sys.argv[1]
    runpy.run_module("qhlab.cli", run_name="__main__", alter_sys=True)
