"""Report bytes of nine benchmark commands, run in-process, against the
SHA-256 digests that the benchmark's correctness gate compares
(``bench/digests.json``, only read here), and of two QHP/QHH model reports
against digests recorded in this module.  A change that alters a single
report byte of these commands fails here, before the benchmark runs."""

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
     for beta in ("1/2", "-3/2", "3/2", "3", "-2")])
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
