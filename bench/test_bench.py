"""Checks of the benchmark's tracer, span accounting and correctness gate.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracer  # noqa: E402


def _qhlab_bindings():
    """(owner, attribute, value) for every attribute of every qhlab module and class."""
    import qhlab.cli  # noqa: F401
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qhlab" or mod_name.startswith("qhlab."):
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__ == mod_name]
            out += [(o, k, v) for o in owners for k, v in vars(o).items()]
    return out


def test_every_traced_function_exists():
    for targets in tracer.SPANS.values():
        for module, path in targets:
            assert callable(tracer.resolve(module, path)), (module, path)


def test_missing_function_fails_loudly():
    with pytest.raises(AttributeError, match="does not exist"):
        tracer.install(tracer.Recorder(), {"models.build_model": [("qhlab.models", "build_modle")]})


def test_wrappers_replace_every_binding_and_uninstall_restores():
    import qhlab
    from qhlab import cli, forms, lie, models, poly
    originals = {id(tracer.resolve(m, p))
                 for targets in tracer.SPANS.values() for m, p in targets}
    before = _qhlab_bindings()
    undo = tracer.install(tracer.Recorder())
    try:
        left = [f"{getattr(o, '__name__', o)}.{k}" for o, k, v in _qhlab_bindings()
                if id(v) in originals]
        assert left == []
        assert forms.isotropy_rep is models.isotropy_rep
        assert forms.ambient_rep is models.ambient_rep
        assert forms.common_kernel is lie.common_kernel
        assert qhlab.build_model is models.build_model
        assert poly.Poly.__dict__["__radd__"] is poly.Poly.__dict__["__add__"]
        for argv in (["invariant-dims"], ["reproduce", "prop12"], ["model-report", "--spec", "H4"],
                     ["classify-bracket", "1", "2", "1", "0", "0"]):
            func = cli.build_parser().parse_args(argv).func
            assert getattr(func, "__wrapped_span__", None) == "cli.command", argv
    finally:
        undo()
    assert all(vars(o).get(k) is v for o, k, v in before)
    assert not hasattr(models.build_model, "__wrapped_span__")


def test_traced_report_is_byte_identical_and_spans_add_up(tmp_path):
    runner = run.Runner(tmp_path, time.perf_counter() + 600)
    argv = ["--format", "json", "invariant-dims", "--n", "2"]
    plain, traced = runner.command(argv, traced=False), runner.command(argv, traced=True)
    assert plain.code == traced.code == 0
    assert traced.report == plain.report
    totals = dict.fromkeys(run.layer_metric_names(), 0)
    assert run.account(traced, totals) == []
    assert totals["cli.command.calls"] == 1
    assert totals["cli.render.calls"] == 1
    assert totals["lie.common_kernel.calls"] > 0
    assert 0 < totals["lie.common_kernel.kernel_dim"] <= totals["lie.common_kernel.cols"]
    assert totals["models.isotropy_rep.distinct_n"] == 1
    assert 0 <= totals["trace.unspanned_s"] <= traced.wall_s


def test_accounting_rejects_a_child_outside_its_parent(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({"spans": [["cli.command", -1, 0.0, 1.0],
                                           ["models.build_model", 0, 0.5, 1.5]],
                                 "counters": {}}))
    cmd = run.Command([], 2.0, 0, 0, 0, b"", spans)
    totals = dict.fromkeys(run.layer_metric_names(), 0)
    assert run.account(cmd, totals)


def test_self_time_excludes_children(tmp_path):
    spans = tmp_path / "spans.json"
    spans.write_text(json.dumps({"spans": [["cli.command", -1, 0.0, 1.0],
                                           ["models.build_model", 0, 0.25, 0.75],
                                           ["geometry.curvature", 0, 0.75, 1.0]],
                                 "counters": {"geometry.curvature": {"r4_nnz": 7}}}))
    totals = dict.fromkeys(run.layer_metric_names(), 0)
    assert run.account(run.Command([], 2.0, 0, 0, 0, b"", spans), totals) == []
    assert totals["cli.command.self_s"] == pytest.approx(0.25)
    assert totals["models.build_model.self_s"] == pytest.approx(0.5)
    assert totals["geometry.curvature.r4_nnz"] == 7
    assert totals["trace.unspanned_s"] == pytest.approx(1.0)


def test_measure_runs_each_command_while_it_fits(monkeypatch):
    clock, took = [0.0], {"a": 10.0, "b": 25.0}
    monkeypatch.setattr(run.time, "perf_counter", lambda: clock[0])

    class Runner:
        def command(self, argv, traced):
            clock[0] += took[argv[0]]
            return run.Command(argv, took[argv[0]], 0, 0, 0, b"", None)

        def import_times(self):
            return [0.1] * run.SETUP_REPEATS

    imports = []
    runs = run.measure(Runner(), [["a"], ["b"]], 60, imports)
    assert [[c.argv[0] for c in rs] for rs in runs] == [["a", "a", "a"], ["b"]]
    assert len(imports) == 4 * run.SETUP_REPEATS


def test_end_to_end_sums_each_commands_median():
    def cmd(wall):
        return run.Command([], wall, wall / 2, wall * 10, 0, b"", None)

    metrics = run.end_to_end([[cmd(1.0), cmd(3.0), cmd(2.0)], [cmd(5.0)]], 0.5)
    assert {k: m["value"] for k, m in metrics.items()} == {
        "wall_s": 7.0, "cpu_s": 3.5, "peak_rss_mb": 50.0, "setup_s": 0.5}


def test_every_seeded_command_has_a_recorded_digest():
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))["reports"]
    for workload in run.WORKLOADS:
        keys = {run.command_key(a) for a in run.reachable(workload)}
        assert keys <= set(digests), workload
        for seed in range(50):
            cmds = run.WORKLOADS[workload](random.Random(seed))
            assert {run.command_key(a) for a in cmds} <= keys, (workload, seed)


def test_benchmark_json_names_every_metric_and_workload():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.layer_metric_names()]
    fake = run.Command([], 1.0, 1.0, 1.0, 0, b"", None)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, m["unit"]) for name, m in run.end_to_end([[fake]], 1.0).items()]
