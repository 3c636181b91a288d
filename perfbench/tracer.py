"""Span tracer that measures fqlab layer by layer from outside the package.

It replaces every public function of the six layer modules, on every fqlab
module that binds it, with a wrapper that records a span (name, start, end,
parent span id, operation id).  Nothing under ``src/`` is edited: the
wrappers are installed by rebinding module attributes and removed again by
``uninstall``.  Direct references held elsewhere (``lemma_oracles._CHECKERS``,
``cli._COMMANDS``) are not rebound.  ``set_op`` spans are keyed by their
``kind`` argument.

A span's self time is its duration minus the wrapper time of its direct
children, so the tracer's own bookkeeping is charged to no layer.  Counters
are computed from a call's inputs or from the plain size of its result, never
from a report's fields.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from metrics import LAYERS


def _coset_counts(A) -> tuple[int, int]:
    """(cosets scored, cosets meeting A) over every proper subfield of A's field."""
    import numpy as np

    spec = A.spec
    nonzero = A.members[A.members != 0]
    logs = spec.log_table[nonzero]
    zero_in = nonzero.size != A.members.size
    scored = hit = 0
    for d in range(1, spec.m):
        if spec.m % d:
            continue
        n = (spec.q - 1) // (spec.p**d - 1)
        scored += n
        hit += n if zero_in else int(np.unique(logs % n).size)
    return scored, hit


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _set_op_count(stats, args, kwargs, result):
    A, B = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "B")
    stats["cells"] += len(A) * len(B)
    stats["out"] += len(result)


def _coset_profile_count(stats, args, kwargs, result):
    scored, hit = _coset_counts(_arg(args, kwargs, 0, "A"))
    stats["cosets_scored"] += scored
    stats["cosets_hit"] += hit


def _covering_count(stats, args, kwargs, result):
    stats["target_elems"] += len(_arg(args, kwargs, 0, "target"))


# span-name suffix taken from an argument: (index, keyword)
_KEYED = {"set_algebra.set_op": (2, "kind")}
_COUNTERS = {
    "set_algebra.set_op": _set_op_count,
    "set_algebra.coset_profile": _coset_profile_count,
    "decompositions.covering_number": _covering_count,
}


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.totals: dict[str, dict[str, float]] = {}
        self.op = 0
        self._stack: list[list] = []  # [span id, wrapper time of children]
        self._bound: list[tuple] = []  # (module, attribute, original)

    def _stats(self, name: str) -> dict[str, float]:
        stats = self.totals.get(name)
        if stats is None:
            stats = self.totals[name] = {"s": 0.0, "calls": 0, "cells": 0, "out": 0,
                                         "cosets_scored": 0, "cosets_hit": 0,
                                         "target_elems": 0}
        return stats

    def _wrap(self, qualname: str, fn):
        keyed = _KEYED.get(qualname)
        counter = _COUNTERS.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            name = f"{qualname}.{_arg(args, kwargs, *keyed)}" if keyed else qualname
            span_id = len(self.spans)
            parent = stack[-1][0] if stack else None
            self.spans.append(None)
            frame = [span_id, 0.0]
            stack.append(frame)
            result = None
            failed = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                stats = self._stats(name)
                stats["s"] += (end - start) - frame[1]
                stats["calls"] += 1
                if counter is not None and not failed:
                    counter(stats, args, kwargs, result)
                self.spans[span_id] = (span_id, name, start, end, parent, self.op)
                if stack:
                    stack[-1][1] += clock() - entered
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every public layer function on every fqlab module that holds it."""
        if self._bound:
            raise RuntimeError("tracer already installed")
        import fqlab

        modules = [fqlab] + [sys.modules[f"fqlab.{n}"] for n in LAYERS] + \
            [m for k, m in sys.modules.items() if k.startswith("fqlab.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"fqlab.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for module in dict.fromkeys(modules):
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bound.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bound):
            setattr(module, attr, original)
        self._bound.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
