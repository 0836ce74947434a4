"""In-memory span recorder for the benchmark's traced runs.

A span is [name, start, end, parent, op, note]: ``parent`` is the index of
the enclosing span (-1 at the top), ``op`` the operation it belongs to and
``note`` whatever the call site records about the call (pivots, bytes, ...).
Spans are made only by wrapping library functions at the module attribute
or class attribute the caller looks them up from; no library source is
touched, and an untraced run installs no wrapper at all.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self.op = None

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def operation(self, op_id):
        """Tag every span opened inside with ``op_id``, under one root span."""
        self.op = op_id
        span = ["op", time.perf_counter(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self.op = None

    @contextmanager
    def patched(self, sites):
        """Install span wrappers at ``sites``: (owner, attribute, span name,
        note function or None); restore the originals on exit."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in sites]
        try:
            for owner, attr, name, note in sites:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr], note))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def ancestor_names(spans, index: int):
    """Names of the spans enclosing ``index``, innermost first."""
    parent = spans[index][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]
