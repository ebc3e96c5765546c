"""JSON document mapping for operators, points, and result records.

The document format round-trips exactly: the models' float64 arrays
are emitted with ``.tolist()`` as Python floats, which :mod:`json`
writes with ``repr`` precision, so ``operator_from_doc`` of an emitted
document reconstructs the identical model object.
"""

from __future__ import annotations

from dataclasses import fields

from .extreme import NormedSpacePoint
from .models import (
    Certificate,
    HilbertOperator,
    L1Operator,
    Operator,
    Shape,
    TailKind,
    TailRule,
    ValidationError,
    _require_finite,
)

__all__ = [
    "tail_to_doc",
    "tail_from_doc",
    "operator_to_doc",
    "operator_from_doc",
    "point_to_doc",
    "certificate_to_doc",
]


def _field(doc, key, what):
    if key not in doc:
        raise ValidationError(f"missing field {what}")
    return doc[key]


def tail_to_doc(tail: TailRule) -> dict:
    if tail.kind is TailKind.CONST:
        return {"kind": "const", "value": tail.limit}
    return {"kind": "geometric", "limit": tail.limit, "ratio": tail.ratio}


def tail_from_doc(doc) -> TailRule:
    if not isinstance(doc, dict):
        raise ValidationError("tail must be an object")
    kind = doc.get("kind")
    if kind == "const":
        # checked here so that an error names the document's field, not the model's
        return TailRule.const(_require_finite(_field(doc, "value", "tail.value"), "tail.value"))
    if kind == "geometric":
        return TailRule.geometric(
            _field(doc, "limit", "tail.limit"), _field(doc, "ratio", "tail.ratio")
        )
    raise ValidationError(f"unknown tail kind {kind!r}, expected const or geometric")


def operator_to_doc(t: Operator) -> dict:
    if isinstance(t, L1Operator):
        return {
            "space": "l1",
            "model": "columns",
            "columns": [c.tolist() for c in t.columns],
            "tail_weights": t.tail_weights.tolist(),
            "tail": tail_to_doc(t.tail),
        }
    if t.shape is Shape.FINITE_MATRIX:
        return {"space": "l2", "model": "matrix", "entries": t.entries.tolist()}
    model = "diagonal" if t.shape is Shape.DIAGONAL else "shift"
    return {
        "space": "l2",
        "model": model,
        "explicit": t.explicit.tolist(),
        "tail": tail_to_doc(t.tail),
    }


def operator_from_doc(doc) -> Operator:
    if not isinstance(doc, dict):
        raise ValidationError("operator document must be an object")
    space = doc.get("space")
    model = doc.get("model")
    if space == "l1":
        if model != "columns":
            raise ValidationError(f"unknown l1 model {model!r}, expected columns")
        cols = doc.get("columns")
        if not isinstance(cols, (list, tuple)):
            raise ValidationError("columns must be an array of arrays")
        tail = tail_from_doc(doc.get("tail", {"kind": "const", "value": 0.0}))
        return L1Operator(tuple(cols), doc.get("tail_weights", ()), tail)
    if space == "l2":
        if model == "matrix":
            return HilbertOperator.finite_matrix(doc.get("entries"))
        if model in ("diagonal", "shift"):
            tail = tail_from_doc(_field(doc, "tail", "tail"))
            shape = Shape.DIAGONAL if model == "diagonal" else Shape.WEIGHTED_SHIFT
            return HilbertOperator(shape, doc.get("explicit", ()), tail)
        raise ValidationError(
            f"unknown l2 model {model!r}, expected diagonal, shift, or matrix"
        )
    raise ValidationError(f"unknown space {space!r}, expected l1 or l2")


def point_to_doc(p: NormedSpacePoint) -> dict:
    return {"space": p.space.value, "coords": list(p.coords)}


def certificate_to_doc(cert: Certificate, residuals: bool = True) -> dict:
    """Every field of ``cert``, in field order; with ``residuals`` false,
    all but its per-entry ``residuals``, which are then not converted."""
    out = {f.name: getattr(cert, f.name) for f in fields(cert)
           if residuals or f.name != "residuals"}
    if residuals:
        out["residuals"] = cert.residuals.tolist()
    return out
