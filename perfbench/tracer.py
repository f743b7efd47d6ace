"""Outside-in span recorder.

The benchmark times the engine's public functions by replacing them,
for the traced run only, with wrappers that open a span around each
call.  Nothing under ``src/`` knows it is being traced.

* A span records its name, first start, last end, parent span and the
  trace (one statement or poll) it belongs to.  Spans live in flat
  arrays in memory and are written out once, when the run ends.
* Self time is a span's duration minus the time its child spans cover.
  Each open interval is a stack frame; closing it adds its duration to
  the parent frame's child time, so the self times of every span in a
  trace add up exactly to the trace's root duration.
* A generator is timed over the time spent inside each ``next()``:
  calling a generator function runs none of its body, so wrapping the
  call alone would measure ~0.  Every resume is one interval of the
  same span, nested under whichever frame resumed it.
* Calls made while no trace is open pass through untimed.
"""

from __future__ import annotations

import functools
import gzip
import time
from array import array
from collections import Counter


class Tracer:
    """In-memory span store plus the open-interval stack."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.start = array("q")
        self.end = array("q")
        self.total = array("q")
        self.self_ns = array("q")
        self.resumes = array("q")
        #: Open intervals, innermost last: ``[span, start_ns, child_ns]``.
        self.stack: list[list] = []
        self.trace_kinds: list[str] = []
        self.trace_roots: list[int] = []
        #: Event counts kept by wrappers (rows, ranges, empty scans, ...).
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def new_span(self, nid: int) -> int:
        span = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.trace.append(len(self.trace_kinds) - 1)
        self.start.append(0)
        self.end.append(0)
        self.total.append(0)
        self.self_ns.append(0)
        self.resumes.append(0)
        return span

    def enter(self, span: int) -> None:
        now = self.clock()
        if not self.resumes[span]:
            self.start[span] = now
        self.resumes[span] += 1
        self.stack.append([span, now, 0])

    def exit(self) -> None:
        span, began, child = self.stack.pop()
        now = self.clock()
        duration = now - began
        self.total[span] += duration
        self.self_ns[span] += duration - child
        self.end[span] = now
        if self.stack:
            self.stack[-1][2] += duration

    # -- traces ----------------------------------------------------------------
    def begin_trace(self, kind: str) -> None:
        """Open the root span of one statement or poll."""
        if self.stack:
            raise RuntimeError("a trace is already open")
        self.trace_kinds.append(kind)
        span = self.new_span(self.name_id(f"client.{kind}"))
        self.trace_roots.append(span)
        self.enter(span)

    def end_trace(self) -> int:
        """Close the root span; returns its duration in ns."""
        self.exit()
        if self.stack:
            raise RuntimeError("spans left open at the end of a trace")
        return self.total[self.trace_roots[-1]]

    # -- aggregation ---------------------------------------------------------
    def self_by_name(self, kinds: set[str] | None = None) -> Counter:
        """Summed self ns per span name, over traces of ``kinds``."""
        out: Counter = Counter()
        trace_kinds = self.trace_kinds
        for span in range(len(self.start)):
            if kinds is None or trace_kinds[self.trace[span]] in kinds:
                out[self.names[self.name_of[span]]] += self.self_ns[span]
        return out

    def total_by_name(self, kinds: set[str] | None = None) -> Counter:
        """Summed inclusive ns per span name (nested same-name spans are
        counted once, at the outermost)."""
        out: Counter = Counter()
        trace_kinds = self.trace_kinds
        for span in range(len(self.start)):
            if kinds is not None and \
                    trace_kinds[self.trace[span]] not in kinds:
                continue
            nid = self.name_of[span]
            parent = self.parent[span]
            while parent >= 0 and self.name_of[parent] != nid:
                parent = self.parent[parent]
            if parent < 0:
                out[self.names[nid]] += self.total[span]
        return out

    def write(self, path) -> int:
        """Write every span as gzip CSV; returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,trace,trace_kind,parent,name,start_ns,end_ns,"
                      "total_ns,self_ns,resumes\n")
            for span in range(len(self.start)):
                trace = self.trace[span]
                out.write(f"{span},{trace},{self.trace_kinds[trace]},"
                          f"{self.parent[span]},"
                          f"{self.names[self.name_of[span]]},"
                          f"{self.start[span]},{self.end[span]},"
                          f"{self.total[span]},{self.self_ns[span]},"
                          f"{self.resumes[span]}\n")
        return len(self.start)


# -- wrappers ------------------------------------------------------------------

def wrap_call(tracer: Tracer, name: str, fn, observe=None, before=None):
    """Time each call of ``fn`` as one span.

    ``before(args, kwargs)`` runs first inside the span; its result goes
    to ``observe(args, kwargs, result, state)``, which runs after the
    call returns, also inside the span.
    """
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        tracer.enter(tracer.new_span(nid))
        try:
            state = before(args, kwargs) if before is not None else None
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result, state)
            return result
        finally:
            tracer.exit()

    return traced


def wrap_gen(tracer: Tracer, name: str, fn, size=None, on_end=None):
    """Time a generator function over every ``next()`` of what it returns.

    ``size(item)`` counts what each item holds (default 1);
    ``on_end(items)`` runs once with the total when the iterator ends or
    is closed.
    """
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not tracer.stack:
            return inner
        return _iterate(tracer, tracer.new_span(nid), inner, size, on_end)

    return traced


def _iterate(tracer: Tracer, span: int, inner, size, on_end):
    items = 0
    exhausted = False
    try:
        while True:
            tracer.enter(span)
            try:
                item = next(inner)
            except StopIteration:
                exhausted = True
                return
            finally:
                tracer.exit()
            items += 1 if size is None else size(item)
            yield item
    finally:
        if not exhausted:
            # Closed early: the inner generator's own cleanup (e.g. a
            # ``finally`` that charges the scan) belongs to this span.
            if tracer.stack:
                tracer.enter(span)
                try:
                    inner.close()
                finally:
                    tracer.exit()
            else:
                inner.close()
        if on_end is not None:
            on_end(items)


def wrap_count(tracer: Tracer, name: str, fn):
    """Count calls of ``fn`` made inside a trace, without timing them."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.stack:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return counted


class Patcher:
    """Replaces attributes and puts every original back on restore.

    Class attributes are read from the class ``__dict__`` so that a
    ``classmethod`` is wrapped as its function and re-bound as one.
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original_function)``."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
