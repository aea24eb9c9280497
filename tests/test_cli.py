import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from qhlab.cli import _load_data, main

from oracles import swapped_complement


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_invariant_dims_text(capsys):
    code, out = run(["invariant-dims", "--n", "2"], capsys)
    assert code == 0
    assert "horizontal: 5" in out and "vertical: 4" in out


def test_classify_bracket_examples(capsys):
    code, out = run(["classify-bracket", "4", "8", "4", "0", "0"], capsys)
    assert code == 0
    assert "H1+" in out and "s=1/4" in out
    code, out = run(["classify-bracket", "0", "0", "0", "0", "0"], capsys)
    assert code == 0
    assert "flat" in out
    code, out = run(["classify-bracket", "1", "1", "1", "0", "0"], capsys)
    assert code == 1
    assert "alpha*beta1 - 2*alpha*beta2" in out


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify-bracket", "1", "2"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["model-report", "--spec", "NOPE:n=3"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["classify-bracket", "1", "2", "x", "0", "0"],
    ["classify-bracket", "1", "2", "1/0", "0", "0"],
    ["model-report", "--spec", "H4", "--grid", "a,b"],
    ["model-report", "--spec", "H4", "--grid", "0,1"],
    ["reproduce", "prop12", "--n", "2", "--beta", "zz"],
    ["reproduce", "prop12", "--n", "1"],
    ["reproduce", "table4", "--n", "2"],
    ["invariant-dims", "--n", "9"],
    ["reproduce", "prop12", "--n", "2", "--beta=,"],
    ["model-report", "--spec", "FlatMax:n=2:c1=2:c2=1"],
    ["model-report", "--spec", "MaxCurved:c=1:n=2:c1=2:c2=1"],
    ["reproduce", "table4", "--n", "3", "--beta=5"],
    ["reproduce", "maxmodel", "--beta=1"],
    # table3 and maxmodel run fixed inputs, so an --n would only be echoed
    ["reproduce", "table3", "--n", "3"],
    ["--format", "json", "reproduce", "maxmodel", "--n", "-5"],
    # classify-bracket's equations and normal forms do not depend on n either
    ["--format", "json", "classify-bracket", "4", "8", "4", "0", "0", "--n", "-5"],
    ["classify-bracket", "4", "8", "4", "0", "0", "--n", "3"],
    # c = 0 is the FlatMax bracket, not a curved one
    ["model-report", "--spec", "MaxCurved:n=2:c=0"],
    ["model-report", "--spec", "H4:n=3:c1=1:c1=2"],
    # --grid where the report reads no metric point
    ["model-report", "--spec", "FlatMax:n=2", "--grid", "2,1;3,1"],
    ["model-report", "--spec", "TwistedTheta:n=3", "--grid", "2,1"],
    ["model-report", "--spec", "MaxCurved:c=1:n=2", "--grid", "1,1"],
    ["model-report", "--spec", "QHP:n=2", "--grid", "2,1;3,1"],
])
def test_bad_input_exits_2_with_one_line_message(argv):
    import qhlab
    src = str(Path(qhlab.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "qhlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("qhlab: ")


def test_internal_check_failure_exits_3(monkeypatch, capsys):
    from qhlab import models

    def failing_check(model):
        raise AssertionError("metric is not Hermitian for the triple")

    monkeypatch.setattr(models, "verify_model", failing_check)
    code = main(["model-report", "--spec", "H4:n=2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "qhlab: internal check failed: metric is not Hermitian for the triple\n"


def test_failed_assembly_jacobi_certificate_exits_3(monkeypatch, capsys):
    # the semidirect sum's Jacobi check is a certificate of the model build;
    # its failure is an internal error, not a verification mismatch (exit 1)
    from qhlab.lie import LieAlgebra
    verify = LieAlgebra.verify_jacobi
    monkeypatch.setattr(LieAlgebra, "verify_jacobi",  # dim g of FlatMax at n=3
                        lambda alg, **kw: alg.dim != 36 and verify(alg, **kw))
    code = main(["model-report", "--spec", "FlatMax:n=3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("qhlab: internal check failed: "
                            "assembled algebra fails the Jacobi identity\n")


def test_a_non_jacobi_h_tuple_fails_the_build_certificate_exits_3(monkeypatch, capsys):
    # an H-kind build takes its Jacobi certificate from models.h_kind_tuples:
    # H4 read as (1, 1, 1, 0, 0), off every Jacobi family, fails it, an
    # internal error; the certificate's cache is cleared before and after
    from qhlab import models
    table3_tuple = models.table3_tuple
    monkeypatch.setattr(models, "table3_tuple", lambda name, beta=None: (
        (Fraction(1), Fraction(1), Fraction(1), Fraction(0), Fraction(0)) if name == "H4"
        else table3_tuple(name, beta)))
    models.h_kind_tuples.cache_clear()
    try:
        code = main(["model-report", "--spec", "H4:n=3"])
    finally:
        models.h_kind_tuples.cache_clear()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("qhlab: internal check failed: "
                            "the H4 bracket fails the Jacobi identity at n=3\n")


def test_failed_reader_certificate_exits_3(monkeypatch, capsys):
    # sp(1) + sp(1) without its last sp(1) generator is not closed under the
    # commutator, which lie.matrix_algebra reports as a failed certificate;
    # the shared sp(1) + sp(m) cache is cleared before and after
    from qhlab import models
    sp_basis = models.sp_basis
    monkeypatch.setattr(models, "sp_basis", lambda p, q: sp_basis(p, q)[:-1])
    models._sp_pair_rep.cache_clear()
    try:
        code = main(["invariant-dims", "--n", "2"])
    finally:
        models._sp_pair_rep.cache_clear()
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("qhlab: internal check failed: ")
    assert "not closed under the commutator" in captured.err
    assert len(captured.err.splitlines()) == 1


def test_nonstandard_reductive_basis_exits_3(monkeypatch, capsys):
    # a complement on which h does not act by the standard isotropy
    # representation fails the bracket-table certificate of the QHP build
    from qhlab import models
    monkeypatch.setattr(models, "_complement", swapped_complement)
    code = main(["model-report", "--spec", "QHP:n=3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("qhlab: internal check failed: "
                            "isotropy action on m is not the standard one\n")


def test_json_report_schema_and_determinism(capsys):
    code, out1 = run(["--format", "json", "classify-bracket", "0", "0", "5", "3", "0"],
                     capsys)
    assert code == 0
    code, out2 = run(["--format", "json", "classify-bracket", "0", "0", "5", "3", "0"],
                     capsys)
    assert out1 == out2  # byte-identical reports
    report = json.loads(out1)
    schema = _load_data("report.schema.json")
    jsonschema.validate(report, schema)
    model = report["models"][0]
    assert model["canonical"]["name"] == "H5"
    assert model["canonical"]["tuple"] == ["0", "0", "5/3", "1", "0"]
    assert model["canonical"]["s"] == "1/3"


def test_model_report_json_schema(capsys):
    code, out = run(["--format", "json", "model-report",
                     "--spec", "H1-:n=3:c1=2:c2=1"], capsys)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, _load_data("report.schema.json"))
    entry = report["models"][0]
    assert entry["dims"]["dim_g"] == 25
    assert entry["class_points"][0]["class"] == "QK"
    riem = entry["riemannian"][0]
    assert riem["einstein"] is not None and riem["locally_symmetric"]


def test_model_report_twisted(capsys):
    code, out = run(["model-report", "--spec", "TwistedTheta:n=3"], capsys)
    assert code == 0
    assert "d_n - 2" in out and "centralizer" in out


def test_model_report_grid_csv(capsys):
    code, out = run(["--format", "csv", "model-report",
                     "--spec", "H4:n=3:c1=1:c2=1", "--grid", "1,1;2,1"], capsys)
    assert code == 0
    assert out.startswith("kind,name,ok,detail")
    assert "class-point" in out


@pytest.mark.parametrize("grid", [";;", " ", ""])
def test_grid_without_points_is_a_usage_error(grid, capsys):
    # no metric point evaluated is no report, not "1 passed"
    with pytest.raises(SystemExit) as err:
        main(["model-report", "--spec", "H4:n=2", "--grid", grid])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err == "qhlab: --grid has no points\n"


@pytest.mark.parametrize("beta", [",", " , ", ""])
def test_beta_without_values_is_a_usage_error(beta, capsys):
    # no beta case run is not "4 passed" over the beta-free cases alone
    with pytest.raises(SystemExit) as err:
        main(["reproduce", "prop12", "--n", "2", f"--beta={beta}"])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err == "qhlab: --beta has no values\n"


@pytest.mark.parametrize("target", ["table3", "table4", "maxmodel"])
def test_beta_outside_prop12_is_a_usage_error(target, capsys):
    # only prop12 has beta families; elsewhere the flag would be ignored
    with pytest.raises(SystemExit) as err:
        main(["reproduce", target, "--beta=1"])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err == f"qhlab: --beta applies only to reproduce prop12, not {target}\n"


def test_repeated_spec_field_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["model-report", "--spec", "H4:n=3:c1=1:c1=2"])
    captured = capsys.readouterr()
    assert err.value.code == 2
    assert captured.out == ""
    assert captured.err == "qhlab: invalid model spec: duplicate spec field 'c1'\n"


def test_reproduce_maxmodel(capsys):
    code, out = run(["reproduce", "maxmodel"], capsys)
    assert code == 0
    assert "PASS" in out


def test_reproduce_table3(capsys):
    code, out = run(["reproduce", "table3"], capsys)
    assert code == 0


def test_reproduce_table4_reports_diff(capsys):
    code, out = run(["reproduce", "table4"], capsys)
    # the embedded reference rows for the alpha-channel and bundle models
    # differ from the exact recomputation; the command must surface the diff
    assert code == 1
    assert "H4 f_EH (n=3)" in out and "[PASS] H4" in out
    assert "[FAIL] H2 f_EH" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["--format", "json", "--out", str(path),
                 "classify-bracket", "1", "2", "1", "0", "0"])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["models"][0]["canonical"]["name"] == "H1+"


@pytest.mark.parametrize("target", ["missing/report.json", "."])
def test_unwritable_out_path_exits_2(tmp_path, capsys, target):
    # a missing parent directory, or a directory: one usage-error line, no report
    path = tmp_path / target
    code = main(["--out", str(path), "invariant-dims", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"qhlab: cannot write report to {path}: ")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []
