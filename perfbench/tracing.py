"""Span tracing of the program's layers, from outside the program.

:class:`Tracer` wraps the public functions of each ``ballapprox`` module
(and the model classes' validation) in place, everywhere a module has
bound them by name, so a call made through ``oracles.best_ball_approx_h``
is timed just as one made through ``hilbert.best_ball_approx_h``.  Each
call records a span ``(request id, span id, parent span id, name, start,
end, input digest)``.  Spans stay in memory until :meth:`Tracer.write`.
:func:`layer_metrics` derives self times and counts from them.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "serialize", "models", "jacobi", "hilbert", "l1", "oracles", "extreme")

#: Per-element accessor left unwrapped: a span for each entry of a
#: 10^5-entry model would cost far more than the work it times.  Its time
#: counts as self time of its caller.
UNWRAPPED = frozenset({"models.hilbert_entry"})

#: Model classes whose ``__post_init__`` validation is timed as
#: ``models.validate``.
VALIDATED = ("TailRule", "HilbertOperator", "L1Operator")


def _matrix_digest(args, kwargs):
    a = np.ascontiguousarray(args[0] if args else kwargs["a"], dtype=float)
    return hashlib.blake2b(repr(a.shape).encode() + a.tobytes(), digest_size=8).hexdigest()


class Tracer:
    """Collects spans while installed; restores the program afterwards."""

    def __init__(self):
        self.spans = []
        self.rid = 0
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []

    def _wrap(self, fn, name, digest=None):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = digest(args, kwargs) if digest else None
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((self.rid, sid, parent, name, t0, t1, key))

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Wrap the program's layers for the duration of the block."""
        package = importlib.import_module("ballapprox")
        modules = [importlib.import_module(f"ballapprox.{name}") for name in LAYERS]
        namespaces = [package] + modules
        try:
            for module, layer in zip(modules, LAYERS):
                for attr in module.__all__:
                    fn = getattr(module, attr)
                    name = f"{layer}.{attr}"
                    if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                        continue
                    if name in UNWRAPPED:
                        continue
                    digest = _matrix_digest if layer == "jacobi" else None
                    wrapped = self._wrap(fn, name, digest)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                self._patch(ns, key, wrapped)
            models = importlib.import_module("ballapprox.models")
            for cls_name in VALIDATED:
                cls = getattr(models, cls_name)
                self._patch(cls, "__post_init__",
                            self._wrap(vars(cls)["__post_init__"], "models.validate"))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    @contextmanager
    def request(self, rid: int):
        """Root span of one request; spans inside it carry ``rid``."""
        self.rid = rid
        sid = next(self._ids)
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((rid, sid, 0, "request", t0, t1, None))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# rid sid parent name start end digest\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


#: Span-name prefixes whose self times make up each per-layer time metric.
SELF_TIME_GROUPS = {
    "cli.run_command_s": ("cli.",),
    "serialize.from_doc_s": ("serialize.operator_from_doc", "serialize.tail_from_doc",
                             "serialize.point_from_doc"),
    "serialize.to_doc_s": ("serialize.operator_to_doc", "serialize.certificate_to_doc",
                           "serialize.tail_to_doc", "serialize.point_to_doc"),
    "models.validate_s": ("models.validate",),
    "models.op_norm_s": ("models.op_norm",),
    "models.residual_profile_s": ("models.residual_profile", "models.residual_norm"),
    "models.make_result_s": ("models.make_result",),
    "jacobi.s": ("jacobi.",),
    "hilbert.construct_s": ("hilbert.",),
    "l1.construct_s": ("l1.",),
    "oracles.search_s": ("oracles.competitor_search",),
    "extreme.verify_s": ("extreme.",),
}

#: Span-name prefixes counted, per request, by each per-layer count metric.
CALL_GROUPS = {
    "models.validate_calls": ("models.validate",),
    "models.op_norm_calls": ("models.op_norm",),
    "models.residual_profile_calls": ("models.residual_profile",),
    "l1.truncate_column_calls": ("l1.truncate_column",),
}

JACOBI = ("jacobi.",)
HILBERT_CONSTRUCT = ("hilbert.best_ball_approx_h", "hilbert.soft_threshold_approx")


def layer_metrics(spans, kinds: dict) -> dict:
    """Per-request self times and counts of each layer.

    ``kinds`` maps each traced request id to its kind (``approx``,
    ``verify`` or ``project``).  Times are self times: a span's duration
    less the time its child spans cover.
    """
    child_time = defaultdict(float)
    for _rid, _sid, parent, _name, t0, t1, _key in spans:
        child_time[parent] += t1 - t0
    self_time = defaultdict(float)
    calls = defaultdict(int)
    calls_by_kind = defaultdict(lambda: defaultdict(int))
    digests = defaultdict(set)
    for rid, sid, _parent, name, t0, t1, key in spans:
        self_time[name] += (t1 - t0) - child_time[sid]
        calls[name] += 1
        calls_by_kind[kinds[rid]][name] += 1
        if key is not None:
            digests[rid].add(key)

    def total(table, prefixes):
        return sum(v for name, v in table.items() if name.startswith(prefixes))

    n_req = len(kinds)
    n_kind = Counter(kinds.values())
    out = {}
    for metric, prefixes in SELF_TIME_GROUPS.items():
        out[metric] = total(self_time, prefixes) / n_req
    for metric, prefixes in CALL_GROUPS.items():
        out[metric] = total(calls, prefixes) / n_req
    for kind in ("approx", "verify"):
        out[f"jacobi.calls_per_{kind}"] = total(calls_by_kind[kind], JACOBI) / max(n_kind[kind], 1)
    # No Jacobi call wastes nothing: the ratio is then 1.
    jacobi_calls = total(calls, JACOBI)
    distinct = sum(len(d) for d in digests.values())
    out["jacobi.distinct_input_ratio"] = distinct / jacobi_calls if jacobi_calls else 1.0
    out["hilbert.construct_calls_per_verify"] = (
        total(calls_by_kind["verify"], HILBERT_CONSTRUCT) / max(n_kind["verify"], 1))
    return out
