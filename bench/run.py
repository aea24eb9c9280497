"""qhlab benchmark: workloads of cold ``qhlab`` CLI commands.

    python3 bench/run.py --workload riemann_sweep --seed 1 --seconds 58 --trace 0

Each workload is a list of CLI commands made from ``--seed``.  One client
runs the commands in turn, over and over, each in a fresh interpreter,
because a CLI user pays the per-process set-up on every invocation.  The
next command starts while it still fits in ``--seconds`` (every command
runs at least once).

``--trace 0`` reports the end-to-end metrics: each command's median over its
runs, summed over the workload's commands.
``--trace 1`` runs each command untraced and then traced (``tracer.py``)
and reports per-layer self times and counters from the traced pass.

Every command is checked: exit code, schema-valid JSON report, and report
bytes equal to the digest recorded in ``digests.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCHEMA = SRC / "qhlab" / "data" / "report.schema.json"
DIGESTS = BENCH / "digests.json"

RUN_LIMIT_S = 170  # a run ends within 180 s; children still running are killed
# Imports timed at the start of a run and again after every command, so that
# ``setup_s`` samples the machine over the whole run, not only its first second.
SETUP_REPEATS = 2

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402

# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------
# The seed varies the inputs only among values of about equal cost (measured
# cold on a 2-CPU x86-64 VM, CPython 3.11), because the benchmark's spread is
# taken across seeds.  Every command a seed can produce is listed by
# ``reachable`` and has a recorded report digest.

JSON = ["--format", "json"]
# prop12 --n 2 takes about 20 s at each of these, with identical trace counts;
# beta = 0 or 2 costs ~8% more.
RIEMANN_BETAS = ("1/2", "-3/2", "3/2", "3", "-2")
# model-report at n=3 on one point takes 2.0-3.0 s for each of these specs and points.
REPORT_SPECS = ("H3:beta=1", "H3:beta=2", "H5:beta=1", "H5:beta=2")
REPORT_POINTS = ("1,2", "3,1/2", "2,3")


def _prop12(beta: str) -> list[str]:
    return JSON + ["reproduce", "prop12", "--n", "2", f"--beta={beta}"]


def _report(spec: str, point: str) -> list[str]:
    return JSON + ["model-report", "--spec", f"{spec}:n=3", "--grid", point]


# table4 (symbolic forms/poly), invariant-dims (equivariant solver), maxmodel
# (semidirect Jacobi checks); the seeded model-report adds forms at a rational point.
ALGEBRA = [JSON + ["reproduce", "table4", "--n", "3"],
           JSON + ["reproduce", "table4", "--n", "4"],
           JSON + ["invariant-dims", "--n", "3"],
           JSON + ["reproduce", "maxmodel"]]

WORKLOADS = {
    "riemann_sweep": lambda rng: [_prop12(rng.choice(RIEMANN_BETAS))],
    "algebra": lambda rng: ALGEBRA + [_report(rng.choice(REPORT_SPECS),
                                              rng.choice(REPORT_POINTS))],
}


def reachable(workload: str) -> list[list[str]]:
    """Every command the workload can run, whatever the seed."""
    if workload == "riemann_sweep":
        return [_prop12(b) for b in RIEMANN_BETAS]
    return ALGEBRA + [_report(s, p) for s in REPORT_SPECS for p in REPORT_POINTS]


def expected_exit(argv: list[str]) -> int:
    """``reproduce table4`` exits 1: its mismatch is a documented finding."""
    return 1 if "table4" in argv else 0


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


# --------------------------------------------------------------------------
# running commands
# --------------------------------------------------------------------------

@dataclass
class Command:
    """One finished child process: its argv, measurements and report."""

    argv: list[str]
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    report: bytes
    spans_path: Path | None


def child_env() -> dict:
    """The parent's environment with ``src`` on the path and bytecode caching on,
    so children import from ``__pycache__`` as an installed package does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], work: Path, tag: str, deadline: float) -> tuple:
    """Run ``python3 *args`` to completion; return (wall, rusage, code, stdout)."""
    out_path = work / f"{tag}.out"
    with open(out_path, "wb") as out, open(work / f"{tag}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(1.0, deadline - t0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage, proc.returncode, out_path.read_bytes()


class Runner:
    """Runs children one at a time in ``work``; kills any still running at ``deadline``."""

    def __init__(self, work: Path, deadline: float):
        self.work, self.deadline, self.count = work, deadline, 0

    def command(self, argv: list[str], traced: bool) -> Command:
        """Run one qhlab command, traced by ``tracer.py`` or untraced by ``child.py``."""
        self.count += 1
        tag = f"c{self.count}"
        aux = self.work / f"{tag}.{'spans.json' if traced else 'peak'}"
        launcher = "tracer.py" if traced else "child.py"
        wall, usage, code, report = spawn([str(BENCH / launcher), str(aux), *argv],
                                          self.work, tag, self.deadline)
        rss_mb = 0.0
        if not traced and aux.exists():
            rss_mb = int(aux.read_text(encoding="ascii")) / 1024
        return Command(argv, wall, usage.ru_utime + usage.ru_stime, rss_mb, code, report,
                       aux if traced else None)

    def import_times(self, n: int = SETUP_REPEATS) -> list[float]:
        """Spawn-to-exit times of ``n`` runs of ``python3 -c 'import qhlab.cli'``."""
        self.count += 1
        return [spawn(["-c", "import qhlab.cli"], self.work, f"i{self.count}.{k}",
                      self.deadline)[0] for k in range(n)]


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------

def load_checker(digests: bool = True):
    """Return ``problems(cmd)``: why a command's result is wrong, empty if right.

    It checks the exit code, the report against the report schema and, with
    ``digests``, the report bytes against the recorded digest.
    """
    import jsonschema
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))["reports"] if digests else {}

    def problems(cmd: Command) -> list[str]:
        out = []
        if cmd.code != expected_exit(cmd.argv):
            out.append(f"exit code {cmd.code}, expected {expected_exit(cmd.argv)}")
        try:
            jsonschema.validate(json.loads(cmd.report), schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            out.append(f"report is not a valid JSON report: {str(exc)[:200]}")
        digest = hashlib.sha256(cmd.report).hexdigest()
        if digests and recorded.get(command_key(cmd.argv)) != digest:
            out.append(f"report digest {digest[:16]} differs from the recorded one")
        return out

    return problems


# --------------------------------------------------------------------------
# span accounting
# --------------------------------------------------------------------------

def layer_metric_names() -> list[str]:
    """Names of the ``--trace 1`` metrics, in the order ``BENCHMARK.json`` lists them."""
    names = []
    for span in tracer.SPANS:
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{c}" for c in tracer.COUNTERS.get(span, {})]
    return names + ["trace.overhead_s", "trace.unspanned_s"]


def layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def account(cmd: Command, totals: dict) -> list[str]:
    """Add the command's span self times and counters to ``totals``.

    A span's self time is its duration minus its children's.  Returns the
    accounting errors: a child outside its parent, or spans covering more
    than the command's wall time.
    """
    if not cmd.spans_path.exists():
        return ["the traced command wrote no spans"]
    data = json.loads(cmd.spans_path.read_text(encoding="utf-8"))
    spans = data["spans"]
    child = [0.0] * len(spans)
    errors = []
    top = 0.0
    for i, (name, parent, start, end) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            if not (parent < i and p[2] <= start <= end <= p[3]):
                errors.append(f"span {i} ({name}) is not inside its parent {parent}")
            child[parent] += end - start
        else:
            top += end - start
    self_total = 0.0
    for (name, _, start, end), inner in zip(spans, child):
        own = (end - start) - inner
        self_total += own
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += own
    for name, counts in data["counters"].items():
        for key, amount in counts.items():
            totals[f"{name}.{key}"] += amount
    unspanned = cmd.wall_s - self_total
    totals["trace.unspanned_s"] += unspanned
    if abs(self_total - top) > 1e-6 * max(1, len(spans)) or unspanned < 0:
        errors.append(f"self times {self_total:.6f} s do not add up to the spanned "
                      f"{top:.6f} s within the wall time {cmd.wall_s:.6f} s")
    return errors


# --------------------------------------------------------------------------
# environment and result
# --------------------------------------------------------------------------

def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "qhlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu, "git_commit": commit, "src_sha256": src.hexdigest()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runs: list[list[Command]], setup_s: float) -> dict:
    """The ``--trace 0`` metrics from ``runs[i]``, the runs of command ``i``:
    each command's median, summed (times) or maximised (peak RSS) over the
    commands, and the set-up time."""
    def med(per_run):
        return [statistics.median(per_run(c) for c in rs) for rs in runs]

    return {
        "wall_s": metric(sum(med(lambda c: c.wall_s)), "s"),
        "cpu_s": metric(sum(med(lambda c: c.cpu_s)), "s"),
        "peak_rss_mb": metric(max(med(lambda c: c.rss_mb)), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(plain: list[Command], traced: list[Command], problems) -> tuple[dict, list]:
    """The ``--trace 1`` metrics from a traced pass, and its failures by command.

    A traced command fails the gate like an untraced one, and also when its
    report differs from the untraced report or its spans do not add up.
    """
    totals = dict.fromkeys(layer_metric_names(), 0)
    failures = []
    for before, cmd in zip(plain, traced):
        bad = problems(cmd)
        if cmd.report != before.report:
            bad.append("traced report bytes differ from the untraced report")
        failures.append(bad + account(cmd, totals))
    totals["trace.overhead_s"] = sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain)
    return {k: metric(v, layer_unit(k)) for k, v in totals.items()}, failures


def measure(runner: Runner, cmds: list[list[str]], seconds: float,
            imports: list[float]) -> list[list[Command]]:
    """Closed loop over the commands in turn; returns the runs of each command.

    Every command runs once; after that a command starts only while its
    last run says it will end within ``seconds``, and the loop ends when no
    command does.  Taking the commands one by one, not in whole passes, leaves
    less of the run unmeasured.  After each command, more import times are
    added to ``imports``.
    """
    runs: list[list[Command]] = [[] for _ in cmds]
    t0 = time.perf_counter()
    while True:
        started = 0
        for argv, done in zip(cmds, runs):
            if done and time.perf_counter() - t0 + done[-1].wall_s > seconds:
                continue
            done.append(runner.command(argv, traced=False))
            imports += runner.import_times()
            started += 1
        if not started:
            return runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=58)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "qhlab" / "cli.py").is_file():
        print(f"qhlab sources not found under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    problems = load_checker()
    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        runner = Runner(work, t0 + RUN_LIMIT_S)
        runner.import_times(1)  # writes bytecode caches
        imports = runner.import_times()
        g0 = time.perf_counter()
        cmds = WORKLOADS[ns.workload](random.Random(ns.seed))
        generate_s = time.perf_counter() - g0

        if ns.trace:  # each traced command right after its untraced twin
            pairs = [(runner.command(a, traced=False), runner.command(a, traced=True))
                     for a in cmds]
            runs, traced = [[p] for p, _ in pairs], [t for _, t in pairs]
            metrics, traced_failures = per_layer([p for p, _ in pairs], traced, problems)
        else:
            runs, traced, traced_failures = measure(runner, cmds, ns.seconds, imports), [], []
            metrics = end_to_end(runs, statistics.median(imports) + generate_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [c for rs in runs for c in rs] + traced
    failures = [problems(c) for rs in runs for c in rs] + traced_failures
    for cmd, bad in zip(done, failures):
        kind = "traced " if cmd.spans_path else ""
        for b in bad:
            print(f"FAIL {kind}{command_key(cmd.argv)}: {b}", file=sys.stderr)
    failed = sum(1 for bad in failures if bad)

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {ns.workload} seed {ns.seed}: {len(cmds)} command(s) run "
          f"{'/'.join(str(len(rs)) for rs in runs)} time(s) untraced and "
          f"{1 if traced else 0} time(s) traced in {time.perf_counter() - t0:.1f} s")
    for name, m in metrics.items():
        n = len(imports) if name == "setup_s" else min(map(len, runs)) if not ns.trace else 1
        print(f"  {name:36s} {m['value']:14.6f} {m['unit']:6s} (n={n})")
    print(f"  {'failed_frac':36s} {failed / len(done):14.6f} {'ratio':6s} (n={len(done)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(done), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
