"""In-memory span recorder installed around msrelax's public functions.

The benchmark wraps module attributes from the outside (no file of the
package changes).  Because the package calls its own layers through module
attributes (``geometry.build_cache(...)``) or through module globals, which
are the same dictionary, replacing the attribute reaches every call site.

Each thread keeps its own parent stack, so spans recorded on the ``cli``
worker pool nest under the pool task that ran them and never under a span
of another thread.  Tasks submitted to the pool are re-parented to the span
that was open in the submitting thread.
"""

import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# fields of one recorded span
ID, NAME, START, END, PARENT, RUN, THREAD, ERROR, WORK = range(9)


class Tracer:
    """Records spans as tuples (see the field indices above)."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call_under(self, parent, fn, *args, **kwargs):
        """Run ``fn`` with ``parent`` as the open span of this thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def wrap(self, name, fn, work=None):
        """Return ``fn`` recording one span per call.  ``work`` maps the
        call's bound arguments to a dict of computed work counts."""
        sig = inspect.signature(fn) if work else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                counts = None
                if work is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = work(bound.arguments)
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.run_id, threading.get_ident(),
                                     error, counts))

        return wrapper

    def install(self, targets):
        """Replace each ``(owner, attr, span_name, work)`` target."""
        for owner, attr, name, work in targets:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, work))

    def install_pool(self, module):
        """Replace ``module.ThreadPoolExecutor`` by one that re-parents
        submitted tasks to the submitting thread's open span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.call_under, tracer.current(),
                                      fn, *args, **kwargs)

        self._saved.append((module, "ThreadPoolExecutor",
                            module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = TracedPool

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_spans(self, run_id):
        return [s for s in self.spans if s[RUN] == run_id]


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, hi = 0.0, float("-inf")
    for lo, end in sorted(intervals):
        if end <= hi:
            continue
        total += end - max(lo, hi)
        hi = end
    return total


def self_times(spans):
    """{span id: duration minus the time its child spans cover}."""
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - _covered(children.get(s[ID], ()))
            for s in spans}


def check_invariants(spans, wall):
    """Raise ValueError unless the spans of one run nest,
    every self time is >= 0, and no thread's self times sum past ``wall``.

    Under the worker pool, threads run concurrently, so self times add up
    to at most ``wall`` per thread, not across threads.
    """
    by_id = {s[ID]: s for s in spans}
    for s in spans:
        if s[END] < s[START]:
            raise ValueError(f"span {s[NAME]} ends before it starts")
        if s[PARENT] is None:
            continue
        p = by_id.get(s[PARENT])
        if p is None:
            raise ValueError(f"span {s[NAME]} has no recorded parent")
        if s[START] < p[START] or s[END] > p[END]:
            raise ValueError(f"span {s[NAME]} is not inside {p[NAME]}")
    selfs = self_times(spans)
    per_thread = defaultdict(float)
    for s in spans:
        if selfs[s[ID]] < 0.0:
            raise ValueError(f"negative self time in {s[NAME]}")
        per_thread[s[THREAD]] += selfs[s[ID]]
    worst = max(per_thread.values(), default=0.0)
    if worst > wall:
        raise ValueError(f"self times {worst:.6f} s exceed wall {wall:.6f} s")
    return selfs
