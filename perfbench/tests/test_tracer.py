import pytest

from tracer import Patcher, Tracer, wrap_call, wrap_count, wrap_gen


class Clock:
    """A clock that only moves when the code under test says so."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


@pytest.fixture
def clock():
    return Clock()


def spans_by_name(tracer):
    out = {}
    for span in range(len(tracer.start)):
        out.setdefault(tracer.names[tracer.name_of[span]], []).append(span)
    return out


def test_nested_calls_self_time(clock):
    tracer = Tracer(clock)

    def inner():
        clock.advance(3)

    def outer():
        clock.advance(5)
        traced_inner()
        clock.advance(2)

    traced_inner = wrap_call(tracer, "inner", inner)
    traced_outer = wrap_call(tracer, "outer", outer)
    tracer.begin_trace("statement")
    clock.advance(1)
    traced_outer()
    assert tracer.end_trace() == 11
    spans = spans_by_name(tracer)
    (o,), (i,) = spans["outer"], spans["inner"]
    assert (tracer.total[o], tracer.self_ns[o]) == (10, 7)
    assert (tracer.total[i], tracer.self_ns[i]) == (3, 3)
    assert tracer.parent[i] == o
    assert tracer.self_by_name()["client.statement"] == 1
    assert sum(tracer.self_ns) == 11


def test_generator_timed_inside_each_next(clock):
    tracer = Tracer(clock)

    def rows():
        for value in range(3):
            clock.advance(4)          # work to produce each row
            yield value
        clock.advance(1)              # work after the last row

    traced_rows = wrap_gen(tracer, "scan", rows)
    tracer.begin_trace("statement")
    got = []
    for value in traced_rows():
        clock.advance(10)             # the consumer's own work
        got.append(value)
    tracer.end_trace()
    assert got == [0, 1, 2]
    (scan,) = spans_by_name(tracer)["scan"]
    assert tracer.total[scan] == 13 and tracer.self_ns[scan] == 13
    assert tracer.resumes[scan] == 4
    assert tracer.self_by_name()["client.statement"] == 30


def test_generator_nested_in_generator_and_call(clock):
    tracer = Tracer(clock)

    def inner():
        for value in range(2):
            clock.advance(2)
            yield [value, value]

    def outer():
        for batch in traced_inner():
            clock.advance(3)          # e.g. decode, in the outer layer
            yield batch

    def consume():
        return sum(len(b) for b in traced_outer())

    rows_seen = []
    traced_inner = wrap_gen(tracer, "inner", inner, size=len,
                            on_end=rows_seen.append)
    traced_outer = wrap_gen(tracer, "outer", outer)
    traced_consume = wrap_call(tracer, "consume", consume)
    tracer.begin_trace("statement")
    assert traced_consume() == 4
    root = tracer.end_trace()
    self_ns = tracer.self_by_name()
    assert self_ns["inner"] == 4
    assert self_ns["outer"] == 6
    assert self_ns["consume"] == 0
    assert sum(self_ns.values()) == root == 10
    assert rows_seen == [4]
    assert tracer.total_by_name()["outer"] == 10


def test_early_close_times_inner_cleanup(clock):
    tracer = Tracer(clock)

    def rows():
        try:
            while True:
                clock.advance(1)
                yield 1
        finally:
            clock.advance(5)          # e.g. a scan charging in finally

    traced_rows = wrap_gen(tracer, "scan", rows)
    tracer.begin_trace("statement")
    iterator = traced_rows()
    next(iterator)
    iterator.close()
    tracer.end_trace()
    assert tracer.self_by_name()["scan"] == 6


def test_calls_outside_a_trace_are_not_recorded(clock):
    tracer = Tracer(clock)
    calls = []
    traced = wrap_call(tracer, "f", lambda: calls.append(1))
    counted = wrap_count(tracer, "g", lambda: 2)
    traced()
    assert counted() == 2
    assert len(tracer.start) == 0 and not tracer.counts
    tracer.begin_trace("poll")
    counted()
    tracer.end_trace()
    assert tracer.counts["g"] == 1


class Thing:
    def method(self):
        return "m"

    @classmethod
    def build(cls):
        return cls.__name__


def test_patcher_restores_methods_and_classmethods():
    tracer = Tracer()
    original = Thing.__dict__["method"]
    with Patcher() as patcher:
        patcher.patch(Thing, "method",
                      lambda fn: wrap_call(tracer, "m", fn))
        patcher.patch(Thing, "build",
                      lambda fn: wrap_call(tracer, "b", fn))
        tracer.begin_trace("statement")
        assert Thing().method() == "m" and Thing.build() == "Thing"
        tracer.end_trace()
        assert Thing.__dict__["method"] is not original
    assert Thing.__dict__["method"] is original
    assert isinstance(Thing.__dict__["build"], classmethod)
    assert set(tracer.self_by_name()) == {"client.statement", "m", "b"}
