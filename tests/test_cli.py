import dataclasses
import io
import json
import math
import re

import numpy as np
import pytest

from ballapprox import (
    CertificationError,
    HilbertOperator,
    L1Operator,
    NumericError,
    TailRule,
    ValidationError,
    best_ball_approx_h,
    models,
    svd_clip_oracle,
)
from ballapprox import cli
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
            ('[1, 2]', "operator document must be an object"),
            ('{"space":"l1","model":"rows"}', "unknown l1 model 'rows'"),
            ('{"space":"l1","model":"columns"}', "columns must be an array of arrays"),
            ('{"space":"l2","model":"shift","explicit":[1],"tail":5}', "tail must be an object"),
            ('{"space":"l2","model":"shift","explicit":[1],"tail":{"kind":"linear"}}',
             "unknown tail kind 'linear'"),
            # a matrix document's entries are checked by the model alone
            ('{"space":"l2","model":"matrix"}', "finite matrices require rows of entries, got None"),
            ('{"space":"l2","model":"matrix","entries":[]}',
             "finite matrices require rows of entries, got []"),
            ('{"space":"l2","model":"matrix","entries":"ab"}',
             "finite matrices require rows of entries, got 'ab'"),
            ('{"space":"l2","model":"matrix","entries":3}',
             "finite matrices require rows of entries, got 3"),
            ('{"space":"l2","model":"matrix","entries":{"0":[1]}}',
             "finite matrices require rows of entries, got {'0': [1]}"),
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

    @pytest.mark.parametrize("space,point", [("l2", "[0.6,0.79999999999995]"),
                                             ("l1", "[0.9999999999995,0]")])
    def test_project_extreme_point_extreme_to_tolerance_passes(self, space, point, capsys):
        # the projection's distance lies |alpha| (1 - ||e||) = 5e-7 below |alpha| - 1;
        # the lower check compares with that distance, not with |alpha| - 1
        argv = ["project-extreme", "--space", space, "--alpha", "1e6", "--point", point,
                "--samples", "1000"]
        code, doc = run(argv, capsys=capsys)
        assert code == 0 and doc["pass"] is True and doc["report"]["extreme_input"] is True

    @pytest.mark.parametrize("space,point", [("linf", "[1,0]"), ("l1", "[0.5,0.5]"),
                                             ("l2", "[0.6,0.7]")])
    def test_project_extreme_non_extreme_demo_fails_at_large_alpha(self, space, point, capsys):
        argv = ["project-extreme", "--space", space, "--alpha", "1e6", "--point", point,
                "--samples", "3000"]
        code, doc = run(argv, capsys=capsys)
        assert code == 2 and doc["pass"] is False and doc["report"]["spread"] > 0.1

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

    def test_matrices_over_the_magnitude_range_are_certified(self, monkeypatch, capsys):
        # magnitudes where T's Gram matrix neither underflows nor overflows:
        # every answer is certified and equals LAPACK's max(sigma_1 - 1, 0)
        rng = np.random.default_rng(19)
        for i in range(300):
            n = int(rng.integers(2, 17))
            m = rng.standard_normal((n, n))
            m *= 10.0 ** rng.uniform(-140, 150) / np.abs(m).max()
            distance = max(np.linalg.svd(m, compute_uv=False)[0] - 1.0, 0.0)
            payload = json.dumps({"space": "l2", "model": "matrix", "entries": m.tolist()})
            for argv in (["approx"], ["verify", "--samples", "20"]):
                code, doc = run(argv, payload, monkeypatch, capsys)
                assert code == 0 and doc["pass"] is True, (i, argv, doc)
                assert abs(doc["value"] - distance) <= 1e-10 * max(1.0, distance), (i, argv)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_nonfinite_result_prints_strict_json(self, value, monkeypatch, capsys):
        # no valid input reaches this fallback: a result that json cannot
        # write strictly still prints one strict JSON line and exits 2
        monkeypatch.setattr(cli, "op_norm", lambda t: value)
        monkeypatch.setattr("sys.stdin", io.StringIO(DIAG_DOC))
        assert main(["norm"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0], parse_constant=refuse_constant)
        assert doc["command"] == "norm" and "pass" not in doc
        assert doc["error"].startswith("non-finite result")

    @pytest.mark.parametrize(
        "target,argv,payload",
        [
            ("ballapprox.extreme._ball_samples",
             ["project-extreme", "--space", "l2", "--alpha", "2", "--point", "[1, 0]",
              "--samples", "100"], None),
            ("ballapprox.oracles._trial_chunks",
             ["verify", "--samples", "100"], L1_DOC),
        ],
        ids=["project_extreme", "verify_l1"],
    )
    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB for an array", ""])
    def test_memory_error_fails_with_strict_json(self, target, argv, payload, message,
                                                 monkeypatch, capsys):
        # the patched step raises what numpy raises for an array it cannot
        # allocate (--samples 100000000000 does), without allocating one
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(target, out_of_memory)
        code, doc = run(argv, payload, monkeypatch, capsys)
        expected = f"out of memory: {message}" if message else "out of memory"
        assert (code, doc) == (1, {"command": argv[0], "error": expected})

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
        # mass summed from the bottom: the cut keeps the difference at the top
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
        assert out["approximant"]["columns"] == [[math.copysign(top - below, col[0])] + [0.0] * 24]


class TestLargeMagnitudes:
    """Inputs whose rounding exceeds the absolute tolerances: each is
    certified and verified at the resolution ``make_result`` certifies."""

    COLUMN = {"space": "l1", "model": "columns", "tail": {"kind": "const", "value": 0},
              "columns": [[-587.72015880958, -162.24640304241598, -537.8035394780557,
                           -879.5771203486308, 306.6500286800822, -926.0833963342138,
                           829.3512592090988]]}
    MATRIX = {"space": "l2", "model": "matrix", "entries": [
        [200123118.18026617, -30520792.36753877, -53976285.79464583],
        [141363079.410976, -70570064.40785898, 171988947.5677248],
        [-19419780.62119582, 7383951.804426881, 73362828.11408713]]}

    @pytest.mark.parametrize("argv", [["approx"], ["verify", "--samples", "200"]])
    def test_seven_entry_column(self, argv, monkeypatch, capsys):
        # its mass summed bottom up lies 1.8e-12 above the mass summed top down
        code, doc = run(argv, json.dumps(self.COLUMN), monkeypatch, capsys)
        assert code == 0 and doc["pass"] is True

    def test_matrix_of_norm_3e8_verifies(self, monkeypatch, capsys):
        code, doc = run(["verify", "--samples", "200"], json.dumps(self.MATRIX), monkeypatch,
                        capsys)
        assert code == 0 and doc["pass"] is True and doc["attained"] is True
        assert doc["tol"] == 1e-10  # the report keeps the tolerance as given


class TestVerifyScoresApartFromTheLibrary:
    # Jacobi on a rounding-error residual T - u f(s) v^T need not converge;
    # the candidates used to be scored that way
    TINY = [
        [8.321108511296944e-143, 1.1334639388528051e-142, -1.840537984875089e-142,
         -9.874809467375065e-143],
        [1.428977674432502e-143, -1.2999626879288784e-142, 1.1137291596882995e-143,
         -2.9415334964984324e-143],
        [3.3816436932439676e-143, -2.0162181741302263e-142, 1.1539849388350143e-142,
         1.0344021827323738e-142],
        [4.0081229732535424e-144, -3.0325577507145187e-144, 5.896475364449248e-143,
         4.957773245397118e-143],
    ]

    @staticmethod
    def run_matrix(argv, mat, monkeypatch, capsys):
        payload = json.dumps({"space": "l2", "model": "matrix", "entries": np.asarray(mat).tolist()})
        return run(argv, payload, monkeypatch, capsys)

    def test_tiny_matrix_verifies(self, monkeypatch, capsys):
        assert self.run_matrix(["approx"], self.TINY, monkeypatch, capsys)[0] == 0
        code, doc = self.run_matrix(["verify"], self.TINY, monkeypatch, capsys)
        assert code == 0 and doc["pass"] is True, doc

    def test_tiny_matrices_verify_wherever_they_approx(self, monkeypatch, capsys):
        # T's own SVD may still fail on these (Gram underflow), and then
        # approx fails too; verify must fail nowhere else
        rng = np.random.default_rng(11)
        verify_only = []
        for i in range(200):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-160, -130)
            if self.run_matrix(["verify"], m, monkeypatch, capsys)[0] != 0:
                if self.run_matrix(["approx"], m, monkeypatch, capsys)[0] == 0:
                    verify_only.append(i)
        assert verify_only == []

    def test_svd_clip_oracle_on_tiny_matrix(self):
        # the clip used to be scored by Jacobi on its residual T - k
        k, d = svd_clip_oracle(self.TINY)
        assert d == 0.0
        np.testing.assert_allclose(k, self.TINY, rtol=0, atol=1e-12 * np.abs(self.TINY).max())

    def test_svd_clip_oracle_fails_only_where_approx_fails(self, monkeypatch, capsys):
        rng = np.random.default_rng(11)
        clip_only = []
        for i in range(600):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-160, -130)
            try:
                svd_clip_oracle(m)
            except (CertificationError, NumericError, ValidationError):
                if self.run_matrix(["approx"], m, monkeypatch, capsys)[0] == 0:
                    clip_only.append(i)
        assert clip_only == []

    @pytest.mark.parametrize("bias", [1 + 1e-9, 1 - 1e-9])
    def test_biased_library_arithmetic_fails_verify(self, bias, monkeypatch, capsys):
        # a consistent bias in T's Jacobi norm, the library's one Jacobi entry
        # point: make_result checks it against LAPACK's singular values of K
        # and T - K, so approx and verify both fail as a certification error
        singular_values = models.jacobi_singular_values
        monkeypatch.setattr(models, "jacobi_singular_values",
                            lambda a, *args, **kwargs: singular_values(a, *args, **kwargs) * bias)
        if bias > 1.0:  # K = T / ||T|| sits inside the ball, T - K is too large
            message = r"^residual norm \S+ disagrees with the distance formula \S+$"
        else:  # K = T / ||T|| sticks out of the ball
            message = r"^approximant norm \S+ exceeds the unit ball$"
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 8):
            m = rng.standard_normal((n, n))
            m *= 1.8 / np.linalg.svd(m, compute_uv=False)[0]
            for argv in (["approx"], ["verify", "--samples", "50"]):
                code, doc = self.run_matrix(argv, m, monkeypatch, capsys)
                assert code == 2 and re.match(message, doc["error"]), doc
