"""Successful CLI output, byte for byte.

``golden/cli_outputs.json`` holds, for every README CLI example and a
seeded ``approx``/``verify`` on diagonal, shift, matrix and l1 documents,
the argv, the stdin text and the exact stdout and exit code that
``ballapprox`` produced when the file was recorded.  A refactor that
changes any of these bytes shows up here.  The recorded values for matrix
documents are also checked against ``numpy.linalg.svd``, so that a
re-recorded file cannot carry a wrong number; the l1 approximants are
checked with ``math.fsum`` masses in the same way.
"""

import io
import json
import math
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


def _l1_approx_document(case):
    doc = json.loads(case["stdin"] or "null")
    is_l1 = isinstance(doc, dict) and doc.get("space") == "l1"
    return doc if is_l1 and case["argv"][0] == "approx" else None


L1_APPROX_CASES = [case for case in CASES if _l1_approx_document(case) is not None]


@pytest.mark.parametrize("case", L1_APPROX_CASES, ids=lambda c: " ".join(c["argv"][:2]))
def test_recorded_l1_approximant_attains_the_value(case):
    # fsum masses, apart from the program: every approximant column and weight
    # lies in the unit ball, and the residual columns' largest mass is the value
    doc, out = _l1_approx_document(case), json.loads(case["stdout"])
    k, value = out["approximant"], out["value"]
    assert k["tail"] == {"kind": "const", "value": 0.0}
    kept = [math.fsum(abs(v) for v in col) for col in k["columns"]]
    kept += [abs(w) for w in k["tail_weights"]]
    assert all(m <= 1.0 + 1e-12 for m in kept)
    residuals = [math.fsum(abs(a - b) for a, b in zip(col, kcol))
                 for col, kcol in zip(doc["columns"], k["columns"], strict=True)]
    residuals += [abs(a - b) for a, b in
                  zip(doc.get("tail_weights", []), k["tail_weights"], strict=True)]
    residuals.append(abs(doc["tail"]["value"]))
    assert all(r <= value * (1.0 + IDENTITY_TOL) for r in residuals)
    assert max(residuals) == pytest.approx(value, rel=IDENTITY_TOL, abs=0.0)


def test_every_l1_approx_is_checked():
    assert len(L1_APPROX_CASES) == 4
