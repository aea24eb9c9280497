"""Report bytes of nine benchmark commands, run in-process, against the
SHA-256 digests that the benchmark's correctness gate compares
(``bench/digests.json``, only read here).  A change that alters a single
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
