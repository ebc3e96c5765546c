"""Successful CLI output, byte for byte.

``golden/cli_outputs.json`` holds, for every README CLI example and a
seeded ``approx``/``verify`` on diagonal, shift, matrix and l1 documents,
the argv, the stdin text and the exact stdout and exit code that
``ballapprox`` produced when the file was recorded.  A refactor that
changes any of these bytes shows up here.  The recorded values for matrix
documents are also checked against ``numpy.linalg.svd``, so that a
re-recorded file cannot carry a wrong number.
"""

import io
import json
from pathlib import Path

import numpy as np
import pytest

from ballapprox.cli import main
from ballapprox.models import IDENTITY_TOL

CASES = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"][:2]))
def test_cli_output_is_unchanged(case, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(case["stdin"] or ""))
    code = main(case["argv"])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def _matrix_document(case):
    doc = json.loads(case["stdin"] or "null")
    return doc if isinstance(doc, dict) and doc.get("model") == "matrix" else None


MATRIX_CASES = [case for case in CASES if _matrix_document(case) is not None]


@pytest.mark.parametrize("case", MATRIX_CASES, ids=lambda c: " ".join(c["argv"][:2]))
def test_recorded_matrix_value_matches_numpy(case):
    sigma = np.linalg.svd(np.array(_matrix_document(case)["entries"], dtype=float),
                          compute_uv=False)[0]
    expected = {"norm": sigma, "essnorm": 0.0}.get(case["argv"][0], max(sigma - 1.0, 0.0))
    value = json.loads(case["stdout"])["value"]
    assert value == pytest.approx(expected, rel=IDENTITY_TOL, abs=0.0)


def test_every_matrix_command_is_checked():
    assert len(MATRIX_CASES) >= 8
    assert {"norm", "approx", "verify"} <= {case["argv"][0] for case in MATRIX_CASES}
