"""In-memory span recorder for the traced benchmark pass.

A span is ``{name, layer, start, end, parent, op_id}``.  Spans are
recorded only by this file: the traced pass *wraps* public functions of
each ``repro`` layer (see ``layers.py``) so that every call opens a span
around the original; nothing under ``src/`` is edited and the untraced
pass never imports a wrapper.

A span's **self time** is its duration minus the part of that interval
its child spans cover, so the self times of all spans below one op add
up to exactly the op's traced wall time, and summing self time by layer
answers "where did the op's milliseconds go".

Threads: each thread keeps its own open-span stack.  The serve
workloads run one closed-loop client, so a span opened on a daemon
handler thread with an empty stack is parented to the innermost span
open on the driver thread (the client's in-flight request).
"""

import functools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op_id")

    def __init__(self, name, layer, start, parent, op_id):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op_id = op_id

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}


class _Open:
    """Context manager for one span (cheaper than a generator)."""

    __slots__ = ("tracer", "name", "layer", "span")

    def __init__(self, tracer, name, layer):
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.span = None

    def __enter__(self):
        self.span = self.tracer.begin(self.name, self.layer)
        return self.span

    def __exit__(self, *exc):
        self.tracer.end()


class Tracer:
    """Records spans and exact counts; create one per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        #: identifier shared by every span of the op in flight
        #: (-1 = set-up or probe work outside any op)
        self.op_id = -1
        #: wrappers call straight through while False (the traced
        #: child's warm-up and untraced baseline rounds)
        self.enabled = False
        self._driver = threading.get_ident()
        self._driver_stack = []
        self._local = threading.local()
        self._patched = []

    # -- recording ----------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._driver:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, layer):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._driver_stack and self._driver_stack:
            parent = self._driver_stack[-1]
        else:
            parent = -1
        index = len(self.spans)
        self.spans.append(
            Span(name, layer, time.perf_counter(), parent, self.op_id)
        )
        stack.append(index)
        return self.spans[index]

    def end(self):
        now = time.perf_counter()
        self.spans[self._stack().pop()].end = now

    def span(self, name, layer):
        return _Open(self, name, layer)

    def add(self, name, value=1):
        self.counts[name] += value

    # -- wrapping public functions ------------------------------------------

    def traced(self, function, name, layer, hook=None):
        """``function`` with a span around every call; ``hook(result)``
        takes counts at the same boundary."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            self.begin(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end()
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def wrap(self, owner, attr, name, layer, hook=None):
        """Replace ``owner.attr`` (module function or class method) by
        its traced form until :meth:`unwrap_all`."""
        raw = vars(owner)[attr]
        function = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapper = self.traced(function, name, layer, hook)
        setattr(
            owner,
            attr,
            staticmethod(wrapper) if isinstance(raw, staticmethod) else wrapper,
        )
        self._patched.append((owner, attr, raw))

    def replace(self, owner, attr, value):
        """Swap an attribute for a shim, restorable like :meth:`wrap`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unwrap_all(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- arithmetic ---------------------------------------------------------

    def to_json(self):
        return [span.to_dict() for span in self.spans]


def self_times(spans):
    """Self time of each span (same order): duration minus the union of
    its children's intervals, clipped to the span."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        edge = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, edge)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                edge = end
        out.append(span.duration - covered)
    return out


def summarize(spans, ops_only=True):
    """``(by_name, by_layer)``: per span name ``{count, total, self}``
    and per layer the summed self time, in seconds.  ``ops_only`` keeps
    the spans recorded inside an op (``op_id >= 0``)."""
    by_name = defaultdict(lambda: {"count": 0, "total": 0.0, "self": 0.0})
    by_layer = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        if ops_only and span.op_id < 0:
            continue
        row = by_name[span.name]
        row["count"] += 1
        row["total"] += span.duration
        row["self"] += own
        by_layer[span.layer] += own
    return dict(by_name), dict(by_layer)
