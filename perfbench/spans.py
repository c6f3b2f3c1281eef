"""In-memory span tracing around functions, installed from outside the program.

A wrapper records one span per call: name, start, end, parent span and the
id of the op it belongs to.  Work counters are computed after the wrapped
call returns, on a paused clock, so their cost is charged to no span.  Spans
stay in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._paused = 0.0
        self._op: int | None = None
        self._next_op = 0

    def now(self) -> float:
        """Seconds on a clock that stands still while counters are computed."""
        return time.perf_counter() - self._paused

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` recording a span per call.

        ``count(counts, arguments, result)`` runs after each call on the
        paused clock; ``arguments`` maps parameter names to bound values.
        """
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self.spans)
            self.spans.append([name, self.now(), None, stack[-1] if stack else -1, self._op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self.spans[idx][END] = self.now()
            if count is not None:
                paused_at = time.perf_counter()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self.counts, bound.arguments, result)
                self._paused += time.perf_counter() - paused_at
            return result

        return traced

    def op(self, fn):
        """Like ``wrap`` for the benchmark's op boundary: each call is a new op."""
        traced = self.wrap("bench.op", fn)

        @functools.wraps(fn)
        def op_call(*args, **kwargs):
            self._op = self._next_op
            self._next_op += 1
            try:
                return traced(*args, **kwargs)
            finally:
                self._op = None

        return op_call

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def summary(self) -> tuple[dict[str, list[float]], dict[int, float]]:
        """``({name: [calls, self seconds]}, {op id: summed self seconds})``."""
        by_name: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        by_op: dict[int, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            entry = by_name[span[NAME]]
            entry[0] += 1
            entry[1] += own
            if span[OP] is not None:
                by_op[span[OP]] += own
        return dict(by_name), dict(by_op)

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start/end seconds, parent index, op id."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def patch_everywhere(original, replacement, package: str = "oddsafe") -> list:
    """Rebind ``original`` to ``replacement`` in every module of ``package``.

    Modules import functions by name (``from .scg import require_valid``), so
    wrapping only the defining module would miss those calls.  Returns the
    bindings to restore with ``restore``.
    """
    undo = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def restore(undo: list) -> None:
    for target, attr, original in reversed(undo):
        setattr(target, attr, original)
