"""Every function, class and method of qhlab is used by qhlab itself or is
exported: a definition that nothing in the package references and that
``qhlab.__all__`` does not list is dead code (or a test helper living in the
library), and fails here.  A reference by name can be a false positive (a
dead method sharing a live one's name), so a second guard runs a fixed set
of CLI commands under a profile hook and requires every function to be
entered."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhlab
from qhlab import forms, lie, linalg, models

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


def _sites(match) -> list[str]:
    """Every node of the package that match accepts, as "module:qualified function"."""
    sites = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if match(child):
                sites.append(f"{module}:{scope}")
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    return sites


def _defined_functions() -> set[str]:
    """The name of every function and method the package defines."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _call_sites(callee: str) -> list[str]:
    """Every call of callee(...) in the package, as "module:qualified function"."""
    def is_call(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return callee == (func.id if isinstance(func, ast.Name)
                          else func.attr if isinstance(func, ast.Attribute) else None)
    return _sites(is_call)


def test_models_are_constructed_only_by_assemble():
    # one model-assembly path: every HomogeneousModel(...) call in the package
    # sits in models._assemble (with_metric copies one through the record's _replace)
    assert _call_sites("HomogeneousModel") == ["models.py:_assemble"]


def test_structure_constants_come_only_from_the_matrix_reader():
    # one source of Lie brackets: matrix_algebra reads them off matrices, and
    # only subalgebra and semidirect derive new ones from a verified algebra,
    # so no hand-written structure-constant table can enter the package
    assert sorted(_call_sites("LieAlgebra")) == [
        "lie.py:LieAlgebra.subalgebra", "lie.py:matrix_algebra", "lie.py:semidirect"]


def test_jacobi_passes_run_only_in_the_model_certificates():
    # each object is certified where it is made: an assembled model's Jacobi
    # identity in verify_model, QHP and QHH's rows once per n in certified_row,
    # and the twisted bracket's failure over all of h in its builder;
    # semidirect only assembles, and its check knob stays deleted
    assert sorted(_call_sites("verify_jacobi")) == [
        "models.py:_build_twisted_model", "models.py:certified_row", "models.py:verify_model"]
    assert "check" not in inspect.signature(lie.semidirect).parameters


def test_jacobiators_are_taken_only_by_the_pass_and_the_one_reader():
    # a jacobiator is either a Jacobi pass on an assembled algebra or the one
    # parameter-space reader, through which Table 3, the H kinds and the
    # maximal model get their Jacobi equations; semidirect only assembles
    assert sorted(_call_sites("jacobiator")) == [
        "lie.py:LieAlgebra.verify_jacobi", "models.py:_jacobi_equations"]
    assert "check" not in inspect.signature(lie.semidirect).parameters


def test_bracket_tables_are_built_only_by_the_quaternion_realifier():
    # every bracket on H^n is a quaternion rule turned into a table by
    # models._bilinear; the other BilinearMap(...) calls only derive a table
    # from existing ones (a sum of basis tables, a twist by I) or wrap
    # structure constants, so no hand-indexed table can enter the package
    assert sorted(set(_call_sites("BilinearMap"))) == [
        "lie.py:BilinearMap.zero", "lie.py:LieAlgebra.__init__",
        "models.py:_bilinear", "models.py:_table_sum", "models.py:twisted_theta"]


def test_symbolic_models_are_built_only_for_prop12():
    # the class layer reads every kind's dOmega off the five bracket columns,
    # so the one symbolic-metric build left is prop12's curvature per case
    assert _call_sites("symbolic_model") == ["cli.py:_reproduce_prop12"]


_FORM_OPERATORS = ("one_form_differentials", "ce_differential", "fundamental_forms",
                   "codifferential", "hodge_star", "contract_pair", "pullback_all_slots")


def test_form_operators_take_tables_not_models():
    # each operator is defined once and reads a bracket table, a triple or a
    # metric; only first_order_tests unpacks a model
    definitions = [node.name for node in ast.walk(ast.parse((SRC / "forms.py").read_text(
        encoding="utf-8"))) if isinstance(node, ast.FunctionDef)]
    for name in _FORM_OPERATORS:
        assert definitions.count(name) == 1, name
        assert "model" not in inspect.signature(getattr(forms, name)).parameters, name
    assert list(inspect.signature(forms.ce_differential).parameters) == ["form", "d1"]
    assert not {"_triple_forms", "_bracket_differentials"} & _defined_functions()


def test_no_component_split_in_the_solvers():
    # one RREF already eliminates independent blocks independently, so the
    # union-find serves only classify's grouping of curvature blocks
    assert _call_sites("connected_components") == ["geometry.py:_block_partition"]


def test_brackets_are_read_only_by_the_two_model_readers():
    # one read per algebra, of the isotropy and the ambient sp(1) + sp(m),
    # once per (n, m); QHP and QHH are rows of the bracket table on h + m,
    # and the read of H + sp(p, q) lives on only as a test oracle
    assert _call_sites("matrix_algebra") == ["models.py:_sp_pair_rep"]
    assert not {"_complement", "_build_reductive_model", "horizontal_params"} & _defined_functions()


def test_the_form_layer_builds_no_model():
    # forms reads every Table-4 kind's parameters off its certified row, so it
    # binds no model builder; bench/test_bench.py pins the bindings it keeps
    assert not {"build_model", "ModelSpec"} & set(vars(forms))
    assert forms.isotropy_rep is models.isotropy_rep
    assert forms.ambient_rep is models.ambient_rep
    assert forms.common_kernel is lie.common_kernel


def test_one_reader_of_matrices_in_an_algebra():
    # the vertical rules and the maximal bracket read their values in h and in
    # k through the same function
    assert sorted(_call_sites("_algebra_reader")) == [
        "models.py:maximal_vertical_bracket", "models.py:vertical_brackets"]


def test_quaternion_components_enter_vectors_only_as_fractions():
    # the units have int components; _quat_to_slot, the one reader of them,
    # takes each through Fraction and codes it as every table is coded (an
    # int when integral), so a component enters a vector in one place and form
    assert sorted(_call_sites("components")) == [
        "models.py:_quat_to_slot", "quaternion.py:Quaternion.__repr__"]


def test_metric_skewness_is_checked_only_where_it_is_certified():
    # the triple is proved Hermitian, and the isotropy matrices skew, for every
    # g_{c1,c2} once per n; any other matrix is certified skew where a metric
    # is attached; nomizu checks its output
    assert sorted(_call_sites("op_is_skew")) == [
        "geometry.py:nomizu", "models.py:HomogeneousModel.with_metric",
        "models.py:_certified_triple", "models.py:_certify_isotropy_metric"]


def test_tables_are_int_coded_only_where_they_are_made():
    # the coding rule is applied where a scalar is made: in the engine, in
    # Poly, where a quaternion's components enter a matrix and where a bracket
    # table is built, so no consumer keeps an int-coded copy of a table
    outside = {site for site in _call_sites("icode")
               if not site.startswith(("linalg.py:", "poly.py:"))}
    assert outside == {"lie.py:BilinearMap.__init__", "models.py:_quat_to_slot"}
    assert "_icoded" not in _defined_functions()


def test_one_int_coder():
    # an integral rational becomes an int only in linalg.icode (format_rat
    # prints one as an int), so the package has one int-coder
    def is_integral_test(node) -> bool:  # x.denominator == 1
        return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
                and node.left.attr == "denominator" and isinstance(node.ops[0], ast.Eq)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value == 1)
    assert sorted(_sites(is_integral_test)) == ["linalg.py:icode", "quaternion.py:format_rat"]


def test_no_dataclasses_import():
    # the records are namedtuples: nothing is generated per class at import,
    # and dataclasses would pull in inspect, dis, ast and tokenize
    def imports_dataclasses(node) -> bool:
        if isinstance(node, ast.Import):
            return any(alias.name == "dataclasses" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    assert _sites(imports_dataclasses) == []


def test_cli_start_up_imports_no_heavy_stdlib_module():
    # every command pays the import of qhlab.cli; in a clean interpreter (-S,
    # so no site hook preloads anything) it must not load these
    heavy = ["dataclasses", "inspect", "typing", "importlib.resources"]
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import qhlab.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                           text=True, check=True, timeout=60)
    assert child.stdout.strip() == "[]"


def test_no_second_sp_coordinate_reader():
    # sp(n) values are read by the engine off matrices; the hand-written
    # reader lives on only as a test oracle
    assert "sp_coordinates" not in _defined_functions()


# Functions that only an error path reaches, which no command below takes.
_ERROR_ONLY = {"cli._usage_error", "quaternion.Quaternion.__repr__"}

# Cheap commands that between them reach every model kind, every reproduce
# target, every output format and both verdict exit codes.
_PROFILED_COMMANDS = [
    (["invariant-dims", "--n", "2"], 0),
    (["--format", "csv", "invariant-dims", "--n", "3"], 0),
    (["classify-bracket", "4", "8", "4", "0", "0"], 0),
    (["--format", "csv", "classify-bracket", "0", "0", "0", "0", "0"], 0),
    (["classify-bracket", "1", "1", "1", "0", "0"], 1),
    (["reproduce", "table3"], 0),
    (["--format", "csv", "reproduce", "table4", "--n", "3"], 1),
    (["reproduce", "prop12", "--n", "2", "--beta=3"], 0),
    (["reproduce", "maxmodel"], 0),
    (["--format", "json", "model-report", "--spec", "H3:beta=1:n=3", "--grid", "1,2"], 0),
    (["model-report", "--spec", "QHP:n=3"], 0),
    (["model-report", "--spec", "TwistedTheta:n=3"], 0),
    (["model-report", "--spec", "FlatMax:n=2"], 0),
    (["model-report", "--spec", "MaxCurved:c=1:n=2"], 0),
]

# Run in a fresh interpreter, so that import-time calls count and no cache
# filled by an earlier test hides a function: argv[1] is the JSON command
# list; prints the exit codes and the functions never entered.
_PROFILE_CHILD = """
import contextlib, inspect, io, json, sys, types
from pathlib import Path
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(hook)
import qhlab
from qhlab.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)

missed = []
def walk(code, module):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_flags & inspect.CO_OPTIMIZED and const.co_name not in (
                    "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>") and (
                    const.co_filename, const.co_firstlineno) not in entered:
                missed.append(f"{module}.{const.co_qualname}")
            walk(const, module)

for path in sorted(Path(qhlab.__file__).parent.glob("*.py")):
    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), path.stem)
print(json.dumps({"codes": codes, "missed": sorted(missed)}))
"""


def test_every_function_is_entered_by_the_profiled_commands():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    argvs = [argv for argv, _ in _PROFILED_COMMANDS]
    child = subprocess.run([sys.executable, "-c", _PROFILE_CHILD, json.dumps(argvs)],
                           capture_output=True, text=True, env=env, check=True, timeout=300)
    result = json.loads(child.stdout)
    assert result["codes"] == [code for _, code in _PROFILED_COMMANDS]
    assert set(result["missed"]) == _ERROR_ONLY
