"""Prop 12 from one symbolic curvature per case: the c1, c2 metric is a pair
of Poly variables, and the flags are read at the sample points.  Checked
against the per-point Fraction-metric reference in ``oracles``."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from qhlab.cli import _reproduce_prop12
from qhlab.geometry import GroupData, curvature
from qhlab.models import ModelSpec, build_model
from qhlab.poly import Poly

from oracles import prop12_by_points

F = Fraction
RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench_riemann_betas() -> list[Fraction]:
    """The betas of the benchmark's riemann_sweep commands (bench/run.py, only read)."""
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    node = next(stmt for stmt in tree.body if isinstance(stmt, ast.Assign)
                and [t.id for t in stmt.targets if isinstance(t, ast.Name)] == ["RIEMANN_BETAS"])
    return [F(b) for b in ast.literal_eval(node.value)]


@pytest.mark.parametrize("betas", [None, "bench"])
def test_symbolic_sweep_equals_the_per_point_sweep(betas):
    # None: the default betas -1, 0, 1, 2.  "bench": every beta the benchmark
    # runs, one H3 and one H5 case each, next to the four beta-free cases
    if betas == "bench":
        betas = _bench_riemann_betas()
    checks = _reproduce_prop12(2, betas)
    assert checks == prop12_by_points(2, betas)
    assert all(ok for _, ok, _ in checks)


def _read(x, point):
    return x.eval(point) if isinstance(x, Poly) else x


@pytest.mark.parametrize("kind, beta, n", [
    ("H1+", None, 2), ("H1-", None, 2), ("H2", None, 2), ("H3", F(3, 2), 2),
    ("H4", None, 2), ("H5", F(-2), 2), ("H1-", None, 3), ("H3", F(2), 3)])
def test_symbolic_curvature_read_at_a_point_is_the_fraction_curvature(kind, beta, n):
    skeleton = build_model(ModelSpec(kind, n, beta=beta))
    sym = curvature(GroupData.from_model(skeleton.with_metric(Poly.var("c1"), Poly.var("c2"))))
    for c1, c2 in ((F(1), F(1)), (F(2), F(1)), (F(1, 2), F(3))):
        point = {"c1": c1, "c2": c2}
        exact = curvature(GroupData.from_model(skeleton.with_metric(c1, c2)))
        for field in ("r4", "weyl", "nabla_r"):
            read = {key: _read(v, point) for key, v in getattr(sym, field).items()}
            assert {key: v for key, v in read.items() if v} == getattr(exact, field), field
        assert [[_read(x, point) for x in row] for row in sym.ricci] == exact.ricci
        assert _read(sym.scalar, point) == exact.scalar
