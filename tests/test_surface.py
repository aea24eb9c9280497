"""Every function, class and method of qhlab is used by qhlab itself or is
exported: a definition that nothing in the package references and that
``qhlab.__all__`` does not list is dead code (or a test helper living in the
library), and fails here."""

import ast
import inspect
from pathlib import Path

import pytest

import qhlab
from qhlab import lie, linalg, models

SRC = Path(qhlab.__file__).parent


def _unreferenced() -> list[str]:
    defined: dict[str, list[str]] = {}  # name -> "module:line" of each definition
    referenced: set[str] = set()

    def visit(node, module, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(child.name, []).append(f"{module}:{child.lineno}")
                visit(child, module, inside | {child.name})  # its own body does not count
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name is not None and name not in inside:
                referenced.add(name)
            visit(child, module, inside)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, frozenset())
    return sorted(f"{name} ({', '.join(where)})" for name, where in defined.items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in referenced and name not in qhlab.__all__)


def test_every_definition_is_referenced_or_exported():
    assert _unreferenced() == []


@pytest.mark.parametrize("func, params", [(lie.common_kernel, {"dim"}),
                                          (linalg.sparse_nullspace, {"rows", "ncols"}),
                                          (models.isotropy_rep, {"n"}),
                                          (models.ambient_rep, {"n"})])
def test_parameters_the_span_tracer_reads_by_name(func, params):
    # bench/tracer.py binds these arguments by name for its per-layer counters
    # (lie.common_kernel.cols, linalg.sparse_nullspace.rows/cols, *.distinct_n)
    assert params <= set(inspect.signature(func).parameters)


def test_models_are_constructed_only_by_assemble():
    # one model-assembly path: every HomogeneousModel(...) call in the package
    # sits in models._assemble (with_metric copies one through dataclasses.replace)
    calls = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                if name == "HomogeneousModel":
                    calls.append(f"{module}:{function}")
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert calls == ["models.py:_assemble"]
