"""Byte-for-byte regression of study output against a recorded corpus.

``tests/golden/cases.json`` maps each case name to its CLI arguments and exit
code. Next to it, ``<name>.stdout``, ``<name>.hist.csv`` (the ``--out`` file)
and, for refused runs, ``<name>.stderr`` hold the bytes the CLI produced
when the corpus was recorded. Every case runs through ``cli.main`` in
process and must reproduce them exactly.
"""

import json
from pathlib import Path

import pytest

from elimgame.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_study_bytes_match_golden(name, tmp_path, capsys):
    case = CASES[name]
    hist = tmp_path / "hist.csv"
    code = main(case["argv"] + ["--out", str(hist)])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out.encode() == (GOLDEN / f"{name}.stdout").read_bytes()
    stderr = GOLDEN / f"{name}.stderr"
    assert captured.err.encode() == (stderr.read_bytes() if stderr.exists() else b"")
    expected_hist = GOLDEN / f"{name}.hist.csv"
    if expected_hist.exists():
        assert hist.read_bytes() == expected_hist.read_bytes()
    else:
        assert not hist.exists()
