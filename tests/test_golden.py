"""Successful CLI output, byte for byte.

``golden/cli_outputs.json`` holds, for every README CLI example and a
seeded ``approx``/``verify`` on diagonal, shift, matrix and l1 documents,
the argv, the stdin text and the exact stdout and exit code that
``ballapprox`` produced when the file was recorded.  A refactor that
changes any of these bytes shows up here.
"""

import io
import json
from pathlib import Path

import pytest

from ballapprox.cli import main

CASES = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][:2]))
def test_cli_output_is_unchanged(case, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]
