"""Successful CLI output, byte for byte.

``golden/cli_outputs.json`` holds, for every README CLI example and a
seeded ``approx``/``verify`` on diagonal, shift, matrix and l1 documents,
the argv, the stdin text and the exact stdout and exit code that
``ballapprox`` produced when the file was recorded.  A refactor that
changes any of these bytes shows up here.  The recorded values for matrix
documents are also checked against ``numpy.linalg.svd``, so that a
re-recorded file cannot carry a wrong number; the l1 approximants are
checked with ``math.fsum`` masses in the same way.

``golden/search_reports.json`` holds seeded ``competitor_search`` reports,
every field, with the operator document and arguments that produced them:
a change to the search that moves a report by one bit shows up there.
"""

import io
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ballapprox import competitor_search, oracles
from ballapprox.cli import main
from ballapprox.models import IDENTITY_TOL
from ballapprox.serialize import operator_from_doc, operator_to_doc

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


# Seeded competitor_search reports, every field, on each model class and
# search path: the fixed candidates on and off the floor of their class,
# matrices with and without trials that survive the first-column bound, and
# random winners with the zero operator as the only fixed candidate.  Floats
# are compared by repr, the candidate through operator_to_doc.
SEARCH_CASES = json.loads((Path(__file__).parent / "golden" / "search_reports.json").read_text())


def report_to_doc(report) -> dict:
    """Every field of a ``SearchReport``, floats by ``repr``."""
    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    doc.update({key: repr(doc[key]) for key in ("claimed", "best_found", "tol", "lower_bound")})
    doc["best_candidate"] = operator_to_doc(report.best_candidate)
    return doc


def _zero_only(monkeypatch):
    """The zero operator as the only fixed candidate of every search."""
    search_of = oracles._search_of

    def zero_only(t):
        search = search_of(t)

        def fixed(t, construction):
            return ["zero"], np.zeros_like(search.fixed(t, construction)[1][:1])

        return search._replace(fixed=fixed)

    monkeypatch.setattr(oracles, "_search_of", zero_only)


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c["name"])
def test_search_report_is_unchanged(case, monkeypatch):
    if case["zero_only"]:
        _zero_only(monkeypatch)
    t = operator_from_doc(case["operator"])
    report = competitor_search(t, trials=case["trials"], seed=case["seed"])
    got = json.dumps(report_to_doc(report), sort_keys=True)
    assert got == json.dumps(case["report"], sort_keys=True)


def test_search_cases_cover_every_class_and_path():
    kinds = {(case["operator"]["model"], case["report"]["best_kind"]) for case in SEARCH_CASES}
    assert {"diagonal", "shift", "matrix", "columns"} == {model for model, _ in kinds}
    assert {("matrix", "random"), ("diagonal", "random"), ("shift", "random"),
            ("columns", "random"), ("columns", "column_scaling"), ("matrix", "sv_clip"),
            ("matrix", "soft_threshold"), ("diagonal", "entry_clip")} <= kinds


def test_zero_only_cases_draw_trials_off_the_bound():
    # a zero-only search whose zero candidate scores above the class's lower
    # bound still draws its trials, and a trial wins it; the others sit on
    # the bound, where no trial could score strictly lower
    for case in (case for case in SEARCH_CASES if case["zero_only"]):
        report = case["report"]
        on_bound = float(report["best_found"]) <= float(report["lower_bound"])
        assert report["best_kind"] == "random" or (report["best_kind"] == "zero" and on_bound)
