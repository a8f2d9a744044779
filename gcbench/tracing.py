"""A small in-memory span tracer for the benchmark's traced passes.

Spans are (name, start, end, parent) tuples, parent being the index of
the enclosing span or -1.  Functions are traced by replacing the module
attribute their callers look up, so the program itself is unchanged.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patched = []

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent)

    def wrap(self, fn, name, hook=None):
        """fn recorded as a span called name; hook(tracer, result, args,
        kwargs) then records counts.  name None records no span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                with self.span(name):
                    out = fn(*args, **kwargs)
            if hook is not None:
                hook(self, out, args, kwargs)
            return out
        return traced

    def patch(self, module, attr, name, hook=None):
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, hook))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def add_leaves(spans, name, intervals):
    """Record (start, end) intervals that ran inside traced code but
    were not traced (work that must not count as the enclosing layer's)
    as spans named name, each a child of the innermost span enclosing
    it.  spans must be in start order, as Tracer records them."""
    starts = [start for _, start, _, _ in spans]
    for start, end in intervals:
        parent = bisect.bisect_right(starts, start) - 1
        while parent >= 0 and spans[parent][2] < end:
            parent -= 1
        spans.append((name, start, end, parent))


def self_times(spans):
    """Each span's duration minus the part of it that its direct child
    spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            own[parent] -= max(0.0, min(end, p_end) - max(start, p_start))
    return own


def by_name(spans):
    """{name: (calls, total self time)} over all spans."""
    out = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + own)
    return out
