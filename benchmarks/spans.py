"""Spans around rsperm's public functions, recorded from outside the package.

Tracer.install() replaces each traced function with a wrapper in every
rsperm module namespace (and class) that holds it, so calls between
modules are seen too; remove() puts the originals back.  A span is
[name, start, end, parent, root, work, accepted], parent and root being
indices into the span list; the root span of each instance is its
cli.main call, and every span of the instance shares that root.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from functools import cached_property

MODULES = ("rsperm", "rsperm.gf", "rsperm.poly", "rsperm.codes",
           "rsperm.permgroup", "rsperm.cli")


def _perm_count(args, kwargs, result):
    code = args[0] if args else kwargs["code"]
    return math.factorial(code.n), len(result)


def _affine_candidates(args, kwargs, result):
    points = args[0] if args else kwargs["points"]
    q = points.field.q
    return q * (q - 1), len(result)


# (span name, module, attribute path, work counter).  The counters give
# the work a call was asked to do from its input: n! permutations for a
# scan, q(q-1) candidates for affine enumeration.
TARGETS = (
    ("cli.main", "rsperm.cli", "main", None),
    ("gf.Field", "rsperm.gf", "Field.__init__", None),
    ("gf.Field.tables", "rsperm.gf", "Field.tables", None),
    ("poly.interpolate", "rsperm.poly", "EvaluationSet.interpolate", None),
    ("poly.indicators", "rsperm.poly", "EvaluationSet.indicators", None),
    ("codes.rs_code", "rsperm.codes", "rs_code", None),
    ("codes.rref", "rsperm.codes", "rref", None),
    ("codes.dual", "rsperm.codes", "LinearCode.dual", None),
    ("permgroup.check_theorem", "rsperm.permgroup", "check_theorem", None),
    ("permgroup.brute_force_perm_group", "rsperm.permgroup",
     "brute_force_perm_group", None),
    ("permgroup.exhaustive_permutations", "rsperm.permgroup",
     "exhaustive_permutations", _perm_count),
    ("permgroup.affine_group", "rsperm.permgroup", "affine_group",
     _affine_candidates),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    stack[0] if stack else idx, 0, 0]
            stack.append(idx)
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5], span[6] = count(args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for name, module, path, count in TARGETS:
            owner = sys.modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            if isinstance(original, cached_property):
                prop = cached_property(self._wrap(name, original.func, count))
                prop.__set_name__(owner, attr)
                self._replace(owner, attr, prop)
            elif classes:
                self._replace(owner, attr, self._wrap(name, original, count))
            else:
                traced = self._wrap(name, original, count)
                for mod in MODULES:
                    ns = sys.modules[mod]
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, key, traced)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def aggregate(spans: list[list], scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """calls, total_s, self_s, work and accepted summed per span name.

    Durations are multiplied by scale[root], the host speed correction of
    the span's instance.  Self time is a span's duration minus the
    durations of its direct children: the part no traced callee covers.
    """
    durations = [(end - start) * scale[root] for _, start, end, _, root, _, _ in spans]
    child_time = [0.0] * len(spans)
    for span, duration in zip(spans, durations):
        if span[3] >= 0:
            child_time[span[3]] += duration
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0, "accepted": 0}
           for n in SPAN_NAMES}
    for i, (name, _, _, _, _, work, accepted) in enumerate(spans):
        agg = out[name]
        agg["calls"] += 1
        agg["total_s"] += durations[i]
        agg["self_s"] += durations[i] - child_time[i]
        agg["work"] += work
        agg["accepted"] += accepted
    return out
