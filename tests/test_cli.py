import dataclasses
import io
import json

import numpy as np
import pytest

from ballapprox import HilbertOperator, L1Operator, TailRule, best_ball_approx_h
from ballapprox.cli import main
from ballapprox.serialize import operator_from_doc, operator_to_doc

DIAG_DOC = '{"space":"l2","model":"diagonal","explicit":[3,2,0.5],"tail":{"kind":"const","value":1}}'
L1_DOC = '{"space":"l1","model":"columns","columns":[[0.6,0.9,0.9]],"tail":{"kind":"const","value":1}}'


def refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run(argv, stdin_text=None, monkeypatch=None, capsys=None):
    """Run the CLI; its stdout must be strict JSON (no NaN or Infinity)."""
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=refuse_constant)


class TestReadingInput:
    def test_from_stdin(self, monkeypatch, capsys):
        code, doc = run(["distball"], DIAG_DOC, monkeypatch, capsys)
        assert code == 0
        assert doc == {"command": "distball", "value": 2.0, "pass": True}

    def test_from_file(self, tmp_path, capsys):
        p = tmp_path / "op.json"
        p.write_text(DIAG_DOC)
        code, doc = run(["norm", str(p)], capsys=capsys)
        assert code == 0 and doc["value"] == 3.0

    def test_missing_file(self, capsys):
        code, doc = run(["norm", "/nonexistent/op.json"], capsys=capsys)
        assert code == 1 and "error" in doc

    def test_invalid_json(self, monkeypatch, capsys):
        code, doc = run(["norm"], "{not json", monkeypatch, capsys)
        assert code == 1 and "invalid JSON" in doc["error"]

    @pytest.mark.parametrize(
        "payload,fragment",
        [
            ('{"space":"l3"}', "unknown space"),
            ('{"space":"l2","model":"banana"}', "unknown l2 model"),
            (
                '{"space":"l2","model":"diagonal","explicit":[1],"tail":{"kind":"geometric","limit":2,"ratio":1.5}}',
                "ratio",
            ),
            (
                '{"space":"l2","model":"diagonal","explicit":["x"],"tail":{"kind":"const","value":0}}',
                "explicit[0]",
            ),
            ('{"space":"l2","model":"diagonal","explicit":[1]}', "tail"),
            (
                '{"space":"l2","model":"diagonal","explicit":[true],"tail":{"kind":"const","value":0}}',
                "explicit[0]",
            ),
            (
                '{"space":"l2","model":"diagonal","explicit":[NaN],"tail":{"kind":"const","value":0}}',
                "explicit[0]",
            ),
            (
                '{"space":"l2","model":"diagonal","explicit":5,"tail":{"kind":"const","value":0}}',
                "explicit",
            ),
            (
                '{"space":"l2","model":"diagonal","explicit":[1],"tail":{"kind":"const","value":true}}',
                "tail",
            ),
            ('{"space":"l2","model":"matrix","entries":[[1, "2"], [3, 4]]}', "entries[0][1]"),
            ('{"space":"l2","model":"matrix","entries":[5]}', "entries[0]"),
            ('{"space":"l1","model":"columns","columns":[5]}', "columns[0]"),
            ('{"space":"l1","model":"columns","columns":[[1, Infinity]]}', "columns[0][1]"),
            ('{"space":"l1","model":"columns","columns":[],"tail_weights":"ab"}', "tail_weights"),
            ('{"space":"l1","model":"columns","columns":[],"tail_weights":[false]}', "tail_weights[0]"),
            # a const tail's number is named by its document field, not the model's
            ('{"space":"l2","model":"shift","explicit":[],"tail":{"kind":"const","value":true}}',
             "tail.value must be a real number"),
            ('{"space":"l2","model":"diagonal","explicit":[],"tail":{"kind":"const","value":"abc"}}',
             "tail.value must be a real number"),
            ('{"space":"l1","model":"columns","columns":[],"tail":{"kind":"const","value":true}}',
             "tail.value must be a real number"),
        ],
    )
    def test_validation_diagnostics(self, payload, fragment, monkeypatch, capsys):
        code, doc = run(["norm"], payload, monkeypatch, capsys)
        assert code == 1
        assert fragment in doc["error"]


class TestCommands:
    def test_norm_essnorm_distball(self, monkeypatch, capsys):
        for cmd, expected in [("norm", 3.0), ("essnorm", 1.0), ("distball", 2.0)]:
            code, doc = run([cmd], DIAG_DOC, monkeypatch, capsys)
            assert code == 0 and doc["value"] == expected

    def test_approx_round_trip(self, monkeypatch, capsys):
        code, doc = run(["approx"], DIAG_DOC, monkeypatch, capsys)
        assert code == 0
        assert doc["value"] == 2.0
        assert doc["branch"] == "infinite_series"
        approx = operator_from_doc(doc["approximant"])
        assert approx == HilbertOperator.diagonal([1.0, 1.0, 0.0], TailRule.const(0.0))
        assert doc["certificate"]["op_norm"] == 3.0
        assert doc["certificate"]["residual_norm"] == 2.0

    def test_approx_positive_flag_rejects_negative(self, monkeypatch, capsys):
        payload = '{"space":"l2","model":"diagonal","explicit":[-1],"tail":{"kind":"const","value":0}}'
        code, doc = run(["approx", "--positive"], payload, monkeypatch, capsys)
        assert code == 1 and "nonnegative" in doc["error"]

    @pytest.mark.parametrize(
        "payload,message",
        [
            ('{"space":"l2","model":"diagonal","explicit":[-0.1],"tail":{"kind":"const","value":0}}',
             "positive approximation requires nonnegative entries"),
            ('{"space":"l2","model":"diagonal","explicit":[0.5],"tail":{"kind":"const","value":-0.2}}',
             "positive approximation requires nonnegative entries"),
            ('{"space":"l2","model":"shift","explicit":[1.0],"tail":{"kind":"const","value":0}}',
             "positive approximation is defined for diagonal models"),
            (L1_DOC, "--positive applies to diagonal l2 operators"),
        ],
        ids=["negative_entry", "negative_tail", "shift", "l1"],
    )
    def test_approx_positive_rejects(self, payload, message, monkeypatch, capsys):
        code, doc = run(["approx", "--positive"], payload, monkeypatch, capsys)
        assert code == 1 and doc == {"command": "approx", "error": message}

    def test_approx_positive_certifies_the_output_sign(self, monkeypatch, capsys):
        negative = HilbertOperator.diagonal([-0.5], TailRule.const(0.0))
        monkeypatch.setattr(
            "ballapprox.cli.best_ball_approx_h",
            lambda t: dataclasses.replace(best_ball_approx_h(t), approximant=negative),
        )
        payload = '{"space":"l2","model":"diagonal","explicit":[2],"tail":{"kind":"const","value":0}}'
        code, doc = run(["approx", "--positive"], payload, monkeypatch, capsys)
        assert code == 1 and doc["error"] == "construction produced a negative entry"

    def test_approx_positive_worked_example(self, monkeypatch, capsys):
        payload = '{"space":"l2","model":"diagonal","explicit":[2,1.2],"tail":{"kind":"const","value":0.8}}'
        code, doc = run(["approx", "--positive"], payload, monkeypatch, capsys)
        assert code == 0
        got = doc["approximant"]["explicit"]
        assert got[0] == pytest.approx(1.0, abs=1e-12)
        assert got[1] == pytest.approx(0.4, abs=1e-12)

    def test_l1_approx(self, monkeypatch, capsys):
        code, doc = run(["approx"], L1_DOC, monkeypatch, capsys)
        assert code == 0
        assert doc["value"] == pytest.approx(1.4, abs=1e-12)
        assert doc["branch"] == "l1_truncation"

    def test_verify_passes(self, monkeypatch, capsys):
        code, doc = run(
            ["verify", "--samples", "2000", "--seed", "7"], L1_DOC, monkeypatch, capsys
        )
        assert code == 0
        assert doc["pass"] is True
        assert doc["best_found"] == pytest.approx(1.4, abs=1e-10)

    def test_verify_deterministic_output(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(DIAG_DOC))
        main(["verify", "--samples", "500", "--seed", "3"])
        first = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(DIAG_DOC))
        main(["verify", "--samples", "500", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_project_extreme(self, capsys):
        code, doc = run(
            ["project-extreme", "--space", "linf", "--alpha", "2", "--point", "[1,-1]"],
            capsys=capsys,
        )
        assert code == 0
        assert doc["value"] == 1.0
        assert doc["approximant"]["coords"] == [1.0, -1.0]

    def test_project_extreme_negative_alpha(self, capsys):
        code, doc = run(
            ["project-extreme", "--space", "l1", "--alpha", "-2", "--point", "[0,1]"],
            capsys=capsys,
        )
        assert code == 0
        assert doc["approximant"]["coords"] == [0.0, -1.0]

    def test_project_extreme_verification_pass(self, capsys):
        code, doc = run(
            [
                "project-extreme", "--space", "l2", "--alpha", "3",
                "--point", "[0.6,0.8]", "--samples", "3000", "--seed", "5",
            ],
            capsys=capsys,
        )
        assert code == 0 and doc["pass"] is True
        assert doc["report"]["min_distance"] >= 2.0 - 1e-12

    def test_project_extreme_face_demo_exits_2(self, capsys):
        code, doc = run(
            [
                "project-extreme", "--space", "linf", "--alpha", "2",
                "--point", "[1,0]", "--samples", "3000",
            ],
            capsys=capsys,
        )
        assert code == 2
        assert doc["pass"] is False
        assert doc["report"]["spread"] > 0.1

    def test_project_extreme_large_alpha_passes(self, capsys):
        argv = ["project-extreme", "--space", "l2", "--alpha", "56234.13251903491",
                "--point", "[0.6,0.8]", "--samples", "1000"]
        code, doc = run(argv, capsys=capsys)
        assert code == 0 and doc["pass"] is True

    def test_project_extreme_huge_alpha_rejected_quietly(self, capsys):
        # the l2 squares would overflow; the band check rejects |alpha| first
        argv = ["project-extreme", "--space", "l2", "--alpha", "1e200",
                "--point", "[0.6,0.8]", "--samples", "1000"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "too large" in json.loads(out)["error"] and err == ""

    def test_project_extreme_rejects_non_extreme_without_samples(self, capsys):
        code, doc = run(
            ["project-extreme", "--space", "linf", "--alpha", "2", "--point", "[1,0]"],
            capsys=capsys,
        )
        assert code == 1 and "extreme" in doc["error"]

    def test_project_extreme_bad_point(self, capsys):
        code, doc = run(
            ["project-extreme", "--space", "l2", "--alpha", "2", "--point", "oops"],
            capsys=capsys,
        )
        assert code == 1 and "JSON array" in doc["error"]

    @pytest.mark.parametrize("point", ['["abc"]', "[[1]]", "[true, 0]", '["1"]', "5", "[]"])
    def test_project_extreme_bad_coordinates(self, point, capsys):
        argv = ["project-extreme", "--space", "l2", "--alpha", "2", "--point", point]
        code, doc = run(argv, capsys=capsys)
        assert code == 1 and "coord" in doc["error"]


class TestRoundTrip:
    def test_operator_documents_round_trip_exactly(self):
        ops = [
            HilbertOperator.diagonal([3, 2, 0.5], TailRule.const(1)),
            HilbertOperator.weighted_shift([0.1], TailRule.geometric(-2.0, 0.5)),
            HilbertOperator.finite_matrix([[1.0, 2.0], [3.0, 4.0]]),
            L1Operator(((0.6, 0.9, 0.9),), (0.5,), TailRule.const(1)),
        ]
        for t in ops:
            doc = json.loads(json.dumps(operator_to_doc(t)))
            assert operator_from_doc(doc) == t


class TestFailClosed:
    OVERFLOW = '{"space":"l2","model":"matrix","entries":[[1e200, 0], [0, 1]]}'
    L1_OVERFLOW = '{"space":"l1","model":"columns","columns":[[1e308, 1e308]]}'

    @pytest.mark.parametrize(
        "argv,payload,exit_code",
        [
            (["norm"], L1_OVERFLOW, 1),
            (["distball"], L1_OVERFLOW, 1),
            (["approx"], OVERFLOW, 2),
            (["norm"], OVERFLOW, 2),
            (["distball"], OVERFLOW, 2),
            (["verify", "--samples", "10"], OVERFLOW, 2),
            (["verify", "--tol", "inf"], DIAG_DOC, 1),
            (["verify", "--tol", "nan"], DIAG_DOC, 1),
            (["verify", "--tol", "-1"], DIAG_DOC, 1),
            (["project-extreme", "--space", "l2", "--alpha", "inf", "--point", "[1, 0]"], "", 1),
        ],
    )
    def test_nonfinite_fails_with_strict_json(self, argv, payload, exit_code, monkeypatch, capsys):
        code, doc = run(argv, payload, monkeypatch, capsys)
        assert code == exit_code and "error" in doc and "pass" not in doc

    @pytest.mark.parametrize(
        "argv,command,message",
        [
            (["verify", "--seed", "-1"], "verify", "seed must be >= 0, got -1"),
            (["project-extreme", "--space", "l2", "--alpha", "2", "--point", "[1, 0]",
              "--samples", "10", "--seed", "-1"], "project-extreme", "seed must be >= 0, got -1"),
            (["verify", "--samples", "abc"], None,
             "ballapprox verify: argument --samples: invalid int value: 'abc'"),
            (["project-extreme", "--space", "l2", "--alpha", "2"], None,
             "ballapprox project-extreme: the following arguments are required: --point"),
            (["nonsense"], None, "ballapprox: argument command: invalid choice: 'nonsense'"),
        ],
        ids=["verify_seed", "project_seed", "samples_not_int", "missing_point", "no_command"],
    )
    def test_bad_arguments_fail_with_json(self, argv, command, message, monkeypatch, capsys):
        code, doc = run(argv, DIAG_DOC, monkeypatch, capsys)
        assert code == 1 and doc["command"] == command and "pass" not in doc
        assert doc["error"].startswith(message)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: ballapprox verify")

    @pytest.mark.parametrize("command", ["norm", "distball", "approx", "verify"])
    def test_overflowing_l1_mass_is_invalid_input(self, command, monkeypatch, capsys):
        code, doc = run([command], self.L1_OVERFLOW, monkeypatch, capsys)
        assert code == 1
        assert doc == {"command": command, "error": "columns[0] must have a finite mass, got inf"}


class TestParserReuse:
    def test_no_parsed_state_leaks_between_calls(self, monkeypatch, capsys):
        code, doc = run(["verify", "--samples", "5"], DIAG_DOC, monkeypatch, capsys)
        assert code == 0 and doc["trials"] == 5
        code, doc = run(["verify"], DIAG_DOC, monkeypatch, capsys)
        assert code == 0 and doc["trials"] == 1000


def norm_below_one_matrix(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    return a * (rng.uniform(0.3, 0.95) / np.linalg.norm(a, 2))


class TestRankDeficientResiduals:
    """Rebuilding T from its SVD leaves a rounding-error residual with
    rank-deficient columns; Jacobi must treat those as zero and converge."""

    @staticmethod
    def verify(mat, monkeypatch, capsys):
        payload = json.dumps({"space": "l2", "model": "matrix", "entries": mat.tolist()})
        return run(["verify", "--samples", "50"], payload, monkeypatch, capsys)

    def test_seed_49_matrix(self, monkeypatch, capsys):
        code, doc = self.verify(norm_below_one_matrix(49, 3), monkeypatch, capsys)
        assert code == 0 and doc["pass"] is True

    def test_seeded_sweep_of_small_norm_matrices(self, monkeypatch, capsys):
        # before the zero-column test, seeds 201, 249, 261, 296 (dim 3) and
        # 278 (dim 4) of this sweep exited 2 on non-convergence
        for seed in range(200, 300):
            for dim in (3, 4):
                code, doc = self.verify(norm_below_one_matrix(seed, dim), monkeypatch, capsys)
                assert code == 0 and doc["pass"] is True, (seed, dim, doc)


class TestTruncationCut:
    def test_tail_equal_to_the_bottom_up_mass_is_certified(self, monkeypatch, capsys):
        # a seeded column whose mass summed from the top exceeds the same
        # mass summed from the bottom, the order the truncation cuts in
        col = np.random.default_rng(0).uniform(-0.05, 0.05, 25).tolist()
        top = below = 0.0
        for v in col:
            top += abs(v)
        for v in reversed(col):
            below += abs(v)
        assert top > below
        doc = {"space": "l1", "model": "columns", "columns": [col],
               "tail": {"kind": "const", "value": below}}
        code, out = run(["approx"], json.dumps(doc), monkeypatch, capsys)
        assert code == 0 and out["pass"] is True
        assert out["certificate"]["formula_distance"] == below
        assert out["value"] == pytest.approx(below, abs=1e-12)
        assert out["approximant"]["columns"] == [[0.0] * 25]
