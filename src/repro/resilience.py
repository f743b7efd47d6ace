"""Request resilience: deadlines, admission control, circuit breaking.

The paper's service layer (Section IV-E / VII) puts one shared engine
behind an SDK used by many concurrent users; this module supplies the
operational machinery such a deployment needs, mirroring what the HBase
client stack ships (``hbase.rpc.timeout`` / operation timeouts, region
retry policy, ``RegionTooBusyException`` load shedding):

* :class:`Deadline` — a per-statement budget on the *simulated* clock.
  Every cost charged to the statement's job consumes budget; scan and
  aggregation loops check the remainder cooperatively and raise
  :class:`~repro.errors.QueryTimeoutError`, so a statement stuck behind a
  slow or recovering region is bounded instead of stalled forever.
* :class:`RequestContext` — carries the deadline and the partial-results
  mode through service -> SQL -> kvstore, and collects the structured
  skipped-region report when degraded scans skip dead regions.
* :class:`AdmissionController` — bounded in-flight statements (globally
  and per user) with a bounded wait queue; when full the server sheds
  load with :class:`~repro.errors.ServerOverloadedError` instead of
  queueing unboundedly.
* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine the SDK wraps around retryable failures so a flapping server
  fails fast instead of feeding retry storms.
* :func:`backoff_ms` — capped exponential backoff with seeded jitter,
  decorrelating concurrent clients' retries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    QueryTimeoutError,
    ServerOverloadedError,
)
from repro.observability.events import (
    AdmissionShedEvent,
    BreakerTripEvent,
)
from repro.observability.metrics import Counter, Gauge, collected


# -- deadlines ----------------------------------------------------------------

class Deadline:
    """A simulated-time budget for one statement.

    ``charge`` consumes budget; ``check`` raises once the budget is
    exhausted.  Keeping charge and check separate makes cancellation
    cooperative: work already performed is accounted for exactly, and
    the overrun on expiry is bounded by the largest single charge
    between two checks.
    """

    __slots__ = ("budget_ms", "consumed_ms")

    def __init__(self, budget_ms: float):
        if budget_ms <= 0:
            raise ValueError(f"deadline budget must be positive, "
                             f"got {budget_ms}")
        self.budget_ms = float(budget_ms)
        self.consumed_ms = 0.0

    @property
    def remaining_ms(self) -> float:
        return self.budget_ms - self.consumed_ms

    @property
    def expired(self) -> bool:
        return self.consumed_ms > self.budget_ms

    @property
    def overrun_ms(self) -> float:
        return max(0.0, self.consumed_ms - self.budget_ms)

    def charge(self, ms: float) -> None:
        self.consumed_ms += ms

    def check(self, operation: str = "") -> None:
        if self.expired:
            raise QueryTimeoutError(self.budget_ms, self.consumed_ms,
                                    operation)

    def __repr__(self) -> str:
        return (f"Deadline({self.consumed_ms:.1f}/"
                f"{self.budget_ms:.1f} ms)")


@dataclass(frozen=True, slots=True)
class SkippedRegion:
    """One region a degraded scan skipped, and why."""

    table: str
    region_id: int
    server: int
    reason: str

    def as_dict(self) -> dict:
        return {"table": self.table, "region_id": self.region_id,
                "server": self.server, "reason": self.reason}


class RequestContext:
    """Per-statement state threaded from the service layer to the store.

    Holds the optional :class:`Deadline`, the opt-in partial-results
    flag, and the skipped-region report a degraded multi-region scan
    accumulates.  ``bind`` attaches the statement's
    :class:`~repro.cluster.simclock.SimJob` so simulated charges (and
    injected gray-failure latency) consume deadline budget.

    ``profile`` optionally carries a
    :class:`~repro.observability.profile.QueryProfile`: instrumentation
    points along the statement's path (physical operators, per-region
    scans) attach trace spans to it when present and cost nothing when
    absent.

    ``read_mode`` optionally overrides the store's replicated-read
    serving mode for this one statement (``"primary"`` /
    ``"follower"`` / ``"hedged"``), and ``hedge_ms`` overrides the
    hedged-read delay; :meth:`hedge_budget_ms` couples the hedge delay
    to the deadline so a statement running out of budget hedges
    earlier rather than waiting out a slow primary.
    """

    def __init__(self, deadline: Deadline | None = None,
                 partial_results: bool = False,
                 profile=None, read_mode: str | None = None,
                 hedge_ms: float | None = None):
        self.deadline = deadline
        self.partial_results = partial_results
        self.profile = profile
        self.read_mode = read_mode
        self.hedge_ms = hedge_ms
        self.skipped: list[SkippedRegion] = []
        self.job = None

    def bind(self, job) -> None:
        """Attach the statement's simulated-time job to this context.

        Cost the job accumulated before binding is charged to the
        deadline retroactively, so write paths that bind after the work
        (INSERT/LOAD) still consume budget for it.
        """
        self.job = job
        job.deadline = self.deadline
        if self.deadline is not None and job.elapsed_ms:
            self.deadline.charge(job.elapsed_ms)

    def check(self, operation: str = "") -> None:
        """Cooperative cancellation point."""
        if self.deadline is not None:
            self.deadline.check(operation)

    def charge(self, ms: float, label: str = "fault_latency") -> None:
        """Charge simulated time (e.g. injected gray-failure latency).

        Charged through the bound job when one exists so the latency
        shows up in the statement's ``sim_ms`` and breakdown; otherwise
        straight onto the deadline.  Either way the deadline is checked,
        so an expired budget surfaces at the next charge.
        """
        if self.job is not None:
            self.job.charge_fixed(label, ms)
        elif self.deadline is not None:
            self.deadline.charge(ms)
        self.check()

    def hedge_budget_ms(self, default_ms: float) -> float:
        """The hedge delay for one read under this context.

        The statement's override wins over the store default; either
        way the delay is capped at half the remaining deadline budget —
        a statement nearly out of time cannot afford to wait out a
        slow primary before trying a follower.
        """
        budget = self.hedge_ms if self.hedge_ms is not None \
            else default_ms
        if self.deadline is not None:
            budget = min(budget,
                         max(0.0, self.deadline.remaining_ms) / 2.0)
        return budget

    def record_skip(self, table: str, region_id: int, server: int,
                    reason: str) -> None:
        self.skipped.append(SkippedRegion(table, region_id, server,
                                          reason))

    @property
    def skipped_report(self) -> list[dict]:
        return [s.as_dict() for s in self.skipped]


# -- admission control --------------------------------------------------------

#: Server-wide defaults, sized for the simulated 5-server cluster.
DEFAULT_MAX_IN_FLIGHT = 32
DEFAULT_MAX_PER_USER = 8
DEFAULT_MAX_QUEUE = 16
DEFAULT_WAIT_TIMEOUT_S = 2.0


class AdmissionController:
    """Bounded concurrency for the shared engine.

    ``acquire`` admits a statement when the global in-flight count is
    under ``max_in_flight`` and the user is under ``max_per_user``;
    otherwise it waits in a bounded queue (up to ``wait_timeout_s``) and
    sheds with :class:`~repro.errors.ServerOverloadedError` when the
    queue is full or the wait times out.  Thread-safe so a real WSGI
    binding could call it from worker threads.
    """

    def __init__(self, max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                 max_per_user: int = DEFAULT_MAX_PER_USER,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 wait_timeout_s: float = DEFAULT_WAIT_TIMEOUT_S,
                 clock=time.monotonic):
        self.max_in_flight = max_in_flight
        self.max_per_user = max_per_user
        self.max_queue = max_queue
        self.wait_timeout_s = wait_timeout_s
        self._clock = clock
        self._cond = threading.Condition()
        self._in_flight = 0
        self._per_user: dict[str, int] = {}
        self._waiting = 0
        # Operational counters (surfaced by JustServer.admission_stats).
        self.admitted = 0
        self.shed = 0
        self.peak_in_flight = 0
        self.events = None

    def bind_events(self, log) -> None:
        """Emit an :class:`AdmissionShedEvent` per shed into ``log``."""
        self.events = log

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def waiting(self) -> int:
        return self._waiting

    def _shed(self, scope: str, count: int, limit: int):
        self.shed += 1
        if self.events is not None:
            self.events.emit(AdmissionShedEvent(scope=scope, count=count,
                                                limit=limit))
        raise ServerOverloadedError(scope, count, limit)

    def acquire(self, user: str,
                wait_timeout_s: float | None = None) -> None:
        timeout = self.wait_timeout_s if wait_timeout_s is None \
            else wait_timeout_s
        with self._cond:
            if self._per_user.get(user, 0) >= self.max_per_user:
                self._shed(f"user {user!r}", self._per_user.get(user, 0),
                           self.max_per_user)
            if self._in_flight >= self.max_in_flight:
                if self._waiting >= self.max_queue:
                    self._shed("wait queue full", self._waiting,
                               self.max_queue)
                self._waiting += 1
                try:
                    give_up_at = self._clock() + timeout
                    while self._in_flight >= self.max_in_flight:
                        remaining = give_up_at - self._clock()
                        if remaining <= 0:
                            self._shed("admission wait timed out",
                                       self._in_flight,
                                       self.max_in_flight)
                        self._cond.wait(remaining)
                finally:
                    self._waiting -= 1
                # Re-check the per-user bound: it may have filled while
                # this statement queued.
                if self._per_user.get(user, 0) >= self.max_per_user:
                    self._shed(f"user {user!r}",
                               self._per_user.get(user, 0),
                               self.max_per_user)
            self._in_flight += 1
            self._per_user[user] = self._per_user.get(user, 0) + 1
            self.admitted += 1
            self.peak_in_flight = max(self.peak_in_flight,
                                      self._in_flight)

    def release(self, user: str) -> None:
        with self._cond:
            self._in_flight -= 1
            count = self._per_user.get(user, 0) - 1
            if count <= 0:
                self._per_user.pop(user, None)
            else:
                self._per_user[user] = count
            self._cond.notify()

    def metric_series(self):
        """``admission.*`` registry series, read from the counters."""
        yield collected(Counter, "admission.admitted", self.admitted)
        yield collected(Counter, "admission.shed", self.shed)
        yield collected(Gauge, "admission.in_flight", self._in_flight)

    def stats(self) -> dict:
        with self._cond:
            return {"in_flight": self._in_flight,
                    "waiting": self._waiting,
                    "admitted": self.admitted,
                    "shed": self.shed,
                    "peak_in_flight": self.peak_in_flight}


# -- circuit breaking ---------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed/open/half-open breaker over retryable call outcomes.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, ``before_call`` fails fast with
    :class:`~repro.errors.CircuitOpenError` until ``reset_timeout_s``
    elapses, then the breaker half-opens and admits up to
    ``half_open_probes`` probe calls.  A probe success closes the
    circuit; a probe failure re-opens it and restarts the cooldown.
    ``clock`` is injectable so tests (and the simulation) control time.
    """

    def __init__(self, failure_threshold: int = 5,
                 reset_timeout_s: float = 30.0,
                 half_open_probes: int = 1,
                 clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.half_open_probes = half_open_probes
        self._clock = clock
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: float | None = None
        self._probes_in_flight = 0
        # Counters for operational visibility.
        self.times_opened = 0
        self.fast_failures = 0
        self.metrics = None
        self.events = None

    def bind_metrics(self, registry) -> None:
        """Report opens/fast-failures into a metrics registry."""
        self.metrics = registry

    def bind_events(self, log) -> None:
        """Emit a :class:`BreakerTripEvent` per open into ``log``."""
        self.events = log

    def _count_fast_failure(self) -> None:
        self.fast_failures += 1
        if self.metrics is not None:
            self.metrics.counter("breaker.fast_failures").inc()

    def before_call(self) -> None:
        """Gate one call; raises :class:`CircuitOpenError` when open."""
        if self.state == OPEN:
            elapsed = self._clock() - self.opened_at
            if elapsed < self.reset_timeout_s:
                self._count_fast_failure()
                raise CircuitOpenError(self.reset_timeout_s - elapsed)
            self.state = HALF_OPEN
            self._probes_in_flight = 0
        if self.state == HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                self._count_fast_failure()
                raise CircuitOpenError(0.0)
            self._probes_in_flight += 1

    def abandon_probe(self) -> None:
        """A gated call ended with no backend verdict: free its probe.

        Used when a call admitted through the breaker never reached the
        backend (e.g. session re-authentication kept failing), so the
        half-open probe slot is not leaked — a leaked slot would fast-
        fail every later call with nothing left to close the circuit.
        """
        if self.state == HALF_OPEN and self._probes_in_flight > 0:
            self._probes_in_flight -= 1

    def record_success(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self._probes_in_flight = 0
        self.opened_at = None

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or \
                self.consecutive_failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        if self.state != OPEN:
            self.times_opened += 1
            if self.metrics is not None:
                self.metrics.counter("breaker.opened").inc()
            if self.events is not None:
                self.events.emit(BreakerTripEvent(
                    consecutive_failures=self.consecutive_failures))
        self.state = OPEN
        self.opened_at = self._clock()
        self._probes_in_flight = 0


# -- retry backoff ------------------------------------------------------------

def backoff_ms(attempt: int, base_ms: float, max_ms: float,
               rng=None) -> float:
    """Capped exponential backoff with equal jitter.

    ``base_ms * 2**attempt`` capped at ``max_ms``, then jittered into
    ``[cap/2, cap)`` so concurrent clients desynchronize instead of
    retrying in lockstep (the classic "equal jitter" scheme).  With
    ``rng=None`` the delay is the deterministic cap — callers wanting
    jitter pass a seeded :class:`random.Random`.
    """
    capped = min(max_ms, base_ms * (2 ** attempt))
    if rng is None:
        return capped
    return capped / 2.0 + rng.random() * capped / 2.0
