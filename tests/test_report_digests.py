"""Report bytes of ten benchmark commands, run in-process, against the
SHA-256 digests that the benchmark's correctness gate compares
(``bench/digests.json``, only read here), and of two QHP/QHH model reports
and five class-layer commands against digests recorded in this module.  A
change that alters a single report byte of these commands fails here, before
the benchmark runs."""

import hashlib
import json
from pathlib import Path

import pytest

from qhlab.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "bench" / "digests.json"


@pytest.mark.parametrize("argv, exit_code", [
    (["--format", "json", "reproduce", "table4", "--n", "3"], 1),  # the documented mismatch
    (["--format", "json", "invariant-dims", "--n", "3"], 0),
    (["--format", "json", "reproduce", "maxmodel"], 0),
    (["--format", "json", "model-report", "--spec", "H5:beta=1:n=3", "--grid", "2,3"], 0),
] + [(["--format", "json", "reproduce", "prop12", "--n", "2", f"--beta={beta}"], 0)
     for beta in ("1/2", "-3/2", "3/2", "3", "-2")]
  + [(["--format", "json", "reproduce", "table4", "--n", "4"], 1)])
def test_report_bytes_match_the_recorded_digest(argv, exit_code, capsys):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))["reports"][" ".join(argv)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


# SHA-256 of the QHP/QHH model reports, which no benchmark command covers;
# recorded from the per-pair reductive reader that preceded the single read
# of g = h + m, so a change of either model's bytes fails here
MODEL_REPORT_DIGESTS = {
    "--format json model-report --spec QHP:n=3":
        "b9a8868e55d0813f748853059b236cee6f49ceef0313271178f7c92cca70f71f",
    "--format json model-report --spec QHH:n=4:c1=1:c2=3/2 --grid 1,1;2,1":
        "e28aba7fbb0fe66b85f7fd53653c59878d83d125bdd170ff5fafbbc065433254",
}


@pytest.mark.parametrize("command", MODEL_REPORT_DIGESTS)
def test_reductive_model_report_bytes_match_the_recorded_digest(command, capsys):
    code = main(command.split(" "))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MODEL_REPORT_DIGESTS[command]


# SHA-256 and exit code of class-layer reports that no benchmark command
# covers: Table 4 at larger n, the CSV rendering, an n = 4 H report and
# classify-bracket (whose report keeps "n": 3).  Recorded from the per-kind
# symbolic builds that preceded the bracket-column read of Table 4.
CLASS_REPORT_DIGESTS = {
    "--format json reproduce table4 --n 5":
        (1, "4c0e34f81328b347d2bdcbf08e7b947cdf81a7d65fad4a2044086479d886fb14"),
    "--format json reproduce table4 --n 6":
        (1, "43ee48b931ea494077c02869e6dab66d06f0e94376efd132f1230f30af26d477"),
    "--format csv reproduce table4 --n 3":
        (1, "210fe3d099a624e407964be9f174c6753f104c05b96ba57a2c0166a5c0bd8c9d"),
    "--format json model-report --spec H1-:n=4 --grid 2,1":
        (0, "65ed41837d5d7c12aa522d68a74aca4656c19179dabdb46bee536c74b0a20d5c"),
    "--format json classify-bracket 4 8 4 0 0":
        (0, "395c001904793e6b86df7785efd885292e1caf1855bd80fed23d05c99adc6226"),
}


@pytest.mark.parametrize("command", CLASS_REPORT_DIGESTS)
def test_class_report_bytes_match_the_recorded_digest(command, capsys):
    code = main(command.split(" "))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == CLASS_REPORT_DIGESTS[command]
