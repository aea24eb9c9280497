"""Report bytes of ten benchmark commands, run in-process, against the
SHA-256 digests that the benchmark's correctness gate compares
(``bench/digests.json``, only read here), and of QHP/QHH model reports and
five class-layer commands against digests recorded in this module.  A
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


# SHA-256 and exit code of the text and CSV QHP/QHH model reports: n = 2 (exit
# 1, the open d_2 question), n = 3 and n = 5, and a QHP grid on its EH ray
# c1 = 4 c2, its KH ray c2 = 2 c1 and the generic unit point.  Recorded from
# the build that read g = h + m off H + sp(p, q), before the two models became
# fixed points of the bracket table.
QH_REPORT_DIGESTS = {
    "--format text model-report --spec QHP:n=2":
        (1, "5d5f0110dd22d151ef16582aa0487f7525952a02073510b54471965c55fd1e62"),
    "--format csv model-report --spec QHP:n=2":
        (1, "a870c9a52039064c02cfc366f78f73b7118abadfe9ec7d57112339faf54d88fe"),
    "--format text model-report --spec QHP:n=3":
        (0, "6d7bcf61f619a58ceeda43be7d39cfe120c667d613e3a3d7bf233cd53b0335e2"),
    "--format csv model-report --spec QHP:n=3":
        (0, "d014379ec154fa27efe55a0278129e4d5075d3fd306df0f1e31dfdb7d8ad1c4e"),
    "--format text model-report --spec QHP:n=5":
        (0, "bbc7c09aa71dd769c8632be02094d5556b53c6a3b20cc3c10861a31b26d918d4"),
    "--format csv model-report --spec QHP:n=5":
        (0, "e98b1e8d200e5d93de5d702fe2cf2637d2286b19a94bcbd84c82330157b4d3dc"),
    "--format text model-report --spec QHH:n=2":
        (1, "54bf9e7a7920319e0898bb95ec6d04d46da2828aa73fd20ac2170b3b14fadfec"),
    "--format csv model-report --spec QHH:n=2":
        (1, "a870c9a52039064c02cfc366f78f73b7118abadfe9ec7d57112339faf54d88fe"),
    "--format text model-report --spec QHH:n=3":
        (0, "2c427d9d0e3d897c57751890d8e3714d8ae1abae1353cc4e174def779e4c3682"),
    "--format csv model-report --spec QHH:n=3":
        (0, "de3ec9e2bcffdd5d75fe3ae4df85951adca4d12905250f777e36e22ca594c7ef"),
    "--format text model-report --spec QHH:n=5":
        (0, "ce8c057d02efa81b38cff5e32164024d203f74ded6391ddcf1a41a2f49504102"),
    "--format csv model-report --spec QHH:n=5":
        (0, "00a953de74389c4842b4f88d09a87ea91dbe92875983c73c0b7bb0d44f770c5e"),
    "--format text model-report --spec QHP:n=3 --grid 4,1;1,2;1,1":
        (0, "f23c5c1bdb908d8cd3520e2436e82c07dd5b0c77e80cb3f2a21b183d9d589c78"),
    "--format csv model-report --spec QHP:n=3 --grid 4,1;1,2;1,1":
        (0, "928002e4b46128b95fd16e2a4e705b90be3d3b4ef64cf0b97b183463e8b713d5"),
}


@pytest.mark.parametrize("command", QH_REPORT_DIGESTS)
def test_qh_model_report_bytes_match_the_recorded_digest(command, capsys):
    code = main(command.split(" "))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == QH_REPORT_DIGESTS[command]
