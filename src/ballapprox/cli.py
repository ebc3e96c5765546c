"""Command line front end.

Reads an operator document (JSON) from a file or stdin, runs one of the
calculations, and writes a JSON report to stdout.  Exit codes: 0 on
success, 1 on malformed input or arguments (also when they need more memory
than there is; ``verify`` streams its trials), 2 when a verification fails
or an internal certification check is contradicted.
"""

from __future__ import annotations

import argparse
import json
import sys

from .extreme import PROJECTION_TOL, NormedSpacePoint, Space
from .extreme import project_scalar_multiple, verify_unique_projection
from .hilbert import best_ball_approx_h
from .jacobi import NumericError
from .l1 import best_ball_approx_l1
from .models import CertificationError, HilbertOperator, L1Operator, Shape, ValidationError
from .models import ball_distance, ess_norm, op_norm
from .oracles import DEFAULT_TOL, competitor_search
from .serialize import certificate_to_doc, operator_from_doc, operator_to_doc, point_to_doc

__all__ = ["main", "run_command"]


def _read_operator(source: str):
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    return operator_from_doc(doc)


def _approx_result(t, positive: bool):
    if not positive:
        return best_ball_approx_l1(t) if isinstance(t, L1Operator) else best_ball_approx_h(t)
    # the construction keeps signs, so nonnegative diagonal input gets a
    # nonnegative approximant; the input is checked and the output certified
    if not isinstance(t, HilbertOperator):
        raise ValidationError("--positive applies to diagonal l2 operators")
    if t.shape is not Shape.DIAGONAL:
        raise ValidationError("positive approximation is defined for diagonal models")
    if (t.explicit < 0.0).any() or t.tail.limit < 0.0:
        raise ValidationError("positive approximation requires nonnegative entries")
    result = best_ball_approx_h(t)
    k = result.approximant
    if (k.explicit < 0.0).any() or k.tail.limit < 0.0:
        raise ValidationError("construction produced a negative entry")
    return result


def run_command(args) -> tuple:
    """Execute a parsed command; returns (document, exit_code)."""
    cmd = args.command
    if cmd == "project-extreme":
        try:
            coords = json.loads(args.point)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"--point must be a JSON array: {exc}") from exc
        point = NormedSpacePoint(Space.from_str(args.space), coords)
        doc = {"command": cmd, "alpha": args.alpha, "point": point_to_doc(point)}
        if args.samples is None:
            proj, dist = project_scalar_multiple(args.alpha, point)
            doc["value"] = dist
            doc["approximant"] = point_to_doc(proj)
            doc["pass"] = True
            return doc, 0
        report = verify_unique_projection(
            args.alpha, point, samples=args.samples, seed=args.seed, tol=args.tol
        )
        s = 1.0 if args.alpha > 0 else -1.0
        doc["value"] = report.lower_bound
        doc["approximant"] = point_to_doc(
            NormedSpacePoint(point.space, tuple(s * c for c in point.coords))
        )
        doc["report"] = {
            "extreme_input": report.extreme_input,
            "min_distance": report.min_distance,
            "near_count": report.near_count,
            "radius": report.radius,
            "radius_bound": report.radius_bound,
            "spread": report.spread,
            "worst_offender": list(report.worst_offender),
            "samples": report.samples,
            "seed": report.seed,
            "tol": report.tol,
        }
        doc["pass"] = report.passed
        return doc, 0 if report.passed else 2

    t = _read_operator(args.source)
    if cmd == "norm":
        return {"command": cmd, "value": op_norm(t), "pass": True}, 0
    if cmd == "essnorm":
        return {"command": cmd, "value": ess_norm(t), "pass": True}, 0
    if cmd == "distball":
        return {"command": cmd, "value": ball_distance(t), "pass": True}, 0
    if cmd == "approx":
        result = _approx_result(t, args.positive)
        doc = {
            "command": cmd,
            "value": result.distance,
            "branch": result.branch.value,
            "approximant": operator_to_doc(result.approximant),
            "certificate": certificate_to_doc(result.certificate),
            "pass": True,
        }
        return doc, 0
    if cmd == "verify":
        claimed = ball_distance(t)
        report = competitor_search(t, claimed, trials=args.samples, seed=args.seed, tol=args.tol)
        doc = {
            "command": cmd,
            "value": claimed,
            "best_found": report.best_found,
            "attained": report.attained,
            "beaten": report.beaten,
            "best_kind": report.best_kind,
            "trials": report.trials,
            "seed": report.seed,
            "tol": report.tol,
            "pass": report.passed,
        }
        return doc, 0 if report.passed else 2
    raise ValidationError(f"unknown command {cmd!r}")  # pragma: no cover


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ValidationError`, which :func:`main`
    reports as a JSON error document with exit code 1."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ballapprox",
        description="Distance and best approximation from the compact-operator unit ball",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_operator_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("source", nargs="?", default="-",
                       help="operator JSON file, or - for stdin (default)")
        return p

    add_operator_command("norm", "operator norm")
    add_operator_command("essnorm", "essential norm (distance to the compacts)")
    add_operator_command("distball", "distance to the compact unit ball")

    p = add_operator_command("approx", "best in-ball compact approximant")
    p.add_argument("--positive", action="store_true",
                   help="require nonnegative diagonal input and output")

    p = add_operator_command("verify", "competitor search against the claimed distance")
    p.add_argument("--samples", type=int, default=1000, help="random competitors (default 1000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="certification tolerance")

    p = sub.add_parser("project-extreme",
                       help="radial projection of a scaled extreme point")
    p.add_argument("--space", required=True, choices=["l1", "l2", "linf"])
    p.add_argument("--alpha", required=True, type=float)
    p.add_argument("--point", required=True, help="JSON array of coordinates")
    p.add_argument("--samples", type=int, default=None,
                   help="if set, run sampled uniqueness verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=PROJECTION_TOL,
                   help="near-minimizer band for verification")
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    command = None  # until the arguments parse
    try:
        args = _PARSER.parse_args(argv)
        command = args.command
        doc, code = run_command(args)
    except ValidationError as exc:
        doc, code = {"command": command, "error": str(exc)}, 1
    except MemoryError as exc:  # arguments too large to hold, such as --samples
        detail = f": {exc}" if str(exc) else ""
        doc, code = {"command": command, "error": f"out of memory{detail}"}, 1
    except (CertificationError, NumericError) as exc:
        doc, code = {"command": command, "error": str(exc)}, 2
    try:
        text = json.dumps(doc, allow_nan=False)
    except ValueError as exc:  # a NaN or an infinity in the result
        text = json.dumps({"command": command, "error": f"non-finite result: {exc}"})
        code = 2
    print(text)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
