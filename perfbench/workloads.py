"""Set-up and closed-loop drivers of the three workloads.

Every workload runs the engine the way a user does: one process, one
JSON client (``JustHttpClient`` -> ``JustHttpServer.handle`` ->
``JustServer.execute`` -> ``JustEngine.sql``), garbage collection on,
no extra threads.  Ingest goes through ``StreamLoader.poll``.
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.core.engine import JustEngine
from repro.kvstore.wal import SyncPolicy
from repro.service.http import JustHttpClient, JustHttpServer
from repro.service.server import JustServer
from repro.streaming.window import Avg, Count, TumblingWindows, \
    WindowedAggregator

import oracle
from inputs import (
    INGEST_BASE_ROWS,
    INGEST_TABLE_DDL,
    LOAD_BURST,
    LOAD_CONFIG,
    MAX_DELAY_S,
    POLL_EVENTS,
    READ_ROWS,
    READ_TABLE_DDL,
    TABLE,
    VIEW,
    VIEW_WINDOW_S,
    Op,
    ingest_ops,
    knn_ops,
    load_bursts,
    order_rows,
    range_ops,
    to_event,
)
from layers import POLL, STATEMENT, sstables_per_region
from speed import ReferenceClock

USER = "bench"
TABLE_NAME = f"{USER}__{TABLE}"
#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Blocks of three range statements run before timing: the first
#: statement pays ~200 ms of lazy imports.
WARMUP_BLOCKS = 2
#: ``ingest_mixed`` storage settings: small enough that flush,
#: compaction and split each run several cycles within one run.
INGEST_FLUSH_BYTES = 256 * 1024
INGEST_SPLIT_BYTES = 2 * 1024 * 1024
INGEST_WAL_POLICY = SyncPolicy.PERIODIC
#: Seconds of ``--seconds`` per block of the workloads that run a fixed
#: block count, and the op-time cap, in multiples of ``seconds``, that
#: stops a pathologically slow run.  An ``ingest_mixed`` cycle takes
#: about 0.08 reference seconds (see ``speed``).  A 15-statement ``knn``
#: block takes about 4, but ``knn`` runs one per 2.5 s, so a 20 s run
#: holds 8 blocks and about 32 s of op time.  Over ten seeds (quartile
#: distance over median), ``read_qps`` spread 0.085 with 5 blocks and
#: 0.027 with 8, ``read_sim_p50_ms`` 0.124 and 0.055; ``read_p50_ms``
#: spread 0.095 and 0.114, as it follows the seed's table.
BLOCK_S = {"knn": 2.5, "ingest_mixed": 0.08}
TIME_CAP = 3.0
#: Fixed tail percentiles; each leaves >= 10 samples beyond it on a
#: run of the benchmark's length (``stats.tail`` refuses a shorter run).
#: knn's p91 is the highest its 120 statements allow (p75 fell on the
#: steep edge between the cheap statements and the 1-3 s ones and
#: spread 0.31).
READ_TAIL_PCT = {"range": 95.0, "knn": 91.0, "ingest_mixed": 95.0}
WRITE_TAIL_PCT = {"range": 95.0, "knn": 95.0, "ingest_mixed": 90.0}


@dataclass
class Inputs:
    """Everything generated from the seed, before any timing."""

    base_rows: list[dict]
    base_events: list[dict]
    bursts: list[int]

    @classmethod
    def generate(cls, workload: str, seed: int) -> "Inputs":
        count = INGEST_BASE_ROWS if workload == "ingest_mixed" \
            else READ_ROWS
        rows = order_rows(seed, count)
        return cls(rows, [to_event(row) for row in rows],
                   load_bursts(seed, count))

    def ops(self, workload: str, seed: int):
        if workload == "range":
            return range_ops(seed, self.base_rows)
        if workload == "knn":
            return knn_ops(seed, self.base_rows)
        return ingest_ops(seed, self.base_rows)

    def warmup_ops(self, seed: int) -> list[list[Op]]:
        stream = range_ops(seed, self.base_rows, label="warmup")
        return [next(stream) for _ in range(WARMUP_BLOCKS)]


@dataclass
class Deployment:
    """A freshly built engine with its base data loaded and flushed.

    ``setup_s`` and ``load_ms`` are in reference time (see ``speed``);
    ``setup_wall_s`` is the set-up's wall time."""

    engine: JustEngine
    client: JustHttpClient
    setup_s: float
    load_ms: list[float]
    setup_wall_s: float = 0.0
    topic: object = None
    loader: object = None


class _SetupTimer:
    """Sums a set-up's laps in wall and in reference time."""

    def __init__(self) -> None:
        self.clock = ReferenceClock()
        self.wall = self.scaled = 0.0

    def lap(self) -> float:
        """Close a lap; returns its speed factor."""
        wall, factor = self.clock.lap()
        self.wall += wall
        self.scaled += wall * factor
        return factor


def deploy(workload: str, inputs: Inputs) -> Deployment:
    """Build the engine, create the table over HTTP, load the base rows
    through a stream loader and flush; the whole of it is ``setup_s``.

    The set-up is timed in laps (the build, each base-load burst, the
    flush), each scaled by the speed measured around it."""
    timer = _SetupTimer()
    timer.clock.start()
    if workload == "ingest_mixed":
        engine = JustEngine(wal_policy=INGEST_WAL_POLICY,
                            flush_bytes=INGEST_FLUSH_BYTES,
                            split_bytes=INGEST_SPLIT_BYTES)
        engine.enable_monitoring()
        ddl = INGEST_TABLE_DDL
    else:
        engine = JustEngine()
        ddl = READ_TABLE_DDL
    client = JustHttpClient(JustHttpServer(JustServer(engine)), USER)
    client.execute_query(ddl)
    topic = engine.create_topic("base_load")
    base = engine.stream_load("base_load", TABLE_NAME, LOAD_CONFIG,
                              batch_size=LOAD_BURST[1], name="base_load")
    timer.lap()
    load_ms = []
    sent = 0
    for size in inputs.bursts:
        topic.append_many(inputs.base_events[sent:sent + size])
        sent += size
        start = time.perf_counter()
        stats = base.poll()
        poll_s = time.perf_counter() - start
        engine.events.advance(stats["sim_ms"])
        load_ms.append(poll_s * 1e3 * timer.lap())
    if base.lag:
        raise RuntimeError("the base load left events unconsumed")
    engine.table(TABLE_NAME).flush()
    deployment = Deployment(engine, client, 0.0, load_ms)
    if workload == "ingest_mixed":
        deployment.topic = engine.create_topic("orders")
        deployment.loader = engine.stream_load(
            "orders", TABLE_NAME, LOAD_CONFIG, batch_size=POLL_EVENTS[1],
            max_delay_s=MAX_DELAY_S, name="orders")
        deployment.loader.materialize_window(
            f"{USER}__{VIEW}", WindowedAggregator(
                TumblingWindows(VIEW_WINDOW_S),
                {"orders": Count(), "avg_amount": Avg("amount")},
                key_fields=("category",)))
    timer.lap()
    deployment.setup_s = timer.scaled
    deployment.setup_wall_s = timer.wall
    return deployment


@dataclass
class RunLog:
    """What one closed-loop phase did, op by op.

    ``read_ms``, ``write_ms`` and ``scaled_s`` are in reference time (see
    ``speed``), ``read_wall_ms``, ``write_wall_ms`` and ``busy_s`` in wall
    time; the clock stop of ``range`` follows ``busy_s``."""

    read_ms: list[float] = field(default_factory=list)
    read_sim_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    read_wall_ms: list[float] = field(default_factory=list)
    write_wall_ms: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    rows_written: int = 0
    blocks: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)
    rows_by_kind: dict[str, list[int]] = field(default_factory=dict)
    ks: Counter = field(default_factory=Counter)
    uniform_points: int = 0
    sstables: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    scaled_s: float = 0.0
    clock: ReferenceClock = field(default_factory=ReferenceClock)

    @property
    def reads(self) -> int:
        return len(self.read_ms)

    def lap(self) -> tuple[float, float]:
        """Close the op's timed interval: (wall ms, reference ms)."""
        wall, factor = self.clock.lap()
        self.busy_s += wall
        self.scaled_s += wall * factor
        self.factors.append(factor)
        return wall * 1e3, wall * factor * 1e3


def run_ops(dep: Deployment, blocks, model: oracle.TableModel,
            seconds: float, log: RunLog, tracer=None,
            max_blocks: int | None = None) -> RunLog:
    """Closed loop, one client: the next op starts once the previous
    result is fully fetched and checked.

    Ops come in blocks (one statement mix, or one poll and its reads), and
    the loop stops only between blocks: after ``seconds`` of op time
    (oracle checks and event publishing excluded) or ``max_blocks``.
    """
    for block in blocks:
        if log.busy_s >= seconds or \
                (max_blocks is not None and log.blocks >= max_blocks):
            break
        log.blocks += 1
        for op in block:
            log.attempted += 1
            log.kinds[op.kind] += 1
            if op.kind == "poll":
                if not _poll(dep, op, model, log, tracer):
                    return log
            else:
                _read(dep, op, model, log, tracer)
    return log


def _read(dep, op, model, log, tracer) -> None:
    rows = None
    log.clock.start()
    if tracer is not None:
        tracer.begin_trace(STATEMENT)
    try:
        result = dep.client.execute_query(op.sql)
        rows = list(result)
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        log.failures.append(f"{op.kind}: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.end_trace()
    wall_ms, ref_ms = log.lap()
    if rows is None:
        return
    log.read_ms.append(ref_ms)
    log.read_wall_ms.append(wall_ms)
    log.read_sim_ms.append(result.sim_ms)
    log.rows_by_kind.setdefault(op.kind, []).append(len(rows))
    if op.k is not None:
        log.ks[op.k] += 1
        log.uniform_points += op.uniform
    reason = oracle.check(model, op, rows)
    if reason is not None:
        log.failures.append(f"{op.kind}: {reason} [{op.sql}]")


def _poll(dep, op, model, log, tracer) -> bool:
    """One micro-batch: publish (untimed), poll (timed), then fold the
    acknowledged events into the model.  False stops the run."""
    dep.topic.append_many(op.events)
    stats = None
    log.clock.start()
    if tracer is not None:
        tracer.begin_trace(POLL)
    try:
        stats = dep.loader.poll()
    except Exception as exc:  # noqa: BLE001 - a failed op is counted
        log.failures.append(f"poll: {type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.end_trace()
    wall_ms, ref_ms = log.lap()
    if stats is None:
        return False
    dep.engine.events.advance(stats["sim_ms"])
    if stats["consumed"] != len(op.events) or \
            stats["loaded"] != len(op.events) or dep.loader.lag:
        log.failures.append(f"poll: consumed {stats['consumed']} loaded "
                            f"{stats['loaded']} of {len(op.events)}")
        return False
    model.apply_events(op.events)
    log.write_ms.append(ref_ms)
    log.write_wall_ms.append(wall_ms)
    log.rows_written += stats["loaded"]
    log.sstables.append(sstables_per_region(dep.engine))
    return True


def space_amp(engine: JustEngine, model: oracle.TableModel) -> float:
    """Stored bytes (SSTables + memstores of every storage table) per
    byte of the live rows in the engine's own row encoding."""
    codec = engine.table(TABLE_NAME).codec
    live = sum(len(codec.encode_row(row)) for row in model.live_rows())
    stored = sum(t.total_bytes for t in engine.store.tables())
    return stored / live


def fresh_deployment(workload: str, inputs: Inputs) -> Deployment:
    """Deploy once after collecting the garbage of earlier engines (the
    caller drops its reference first, except ``ingest_mixed``'s stream
    engine, so at most two engines are alive at a time)."""
    gc.collect()
    return deploy(workload, inputs)


def warm_up(dep: Deployment, inputs: Inputs, seed: int,
            model: oracle.TableModel) -> RunLog:
    log = RunLog()
    run_ops(dep, inputs.warmup_ops(seed), model, float("inf"), log)
    return log


@dataclass
class Measurement:
    setups_s: list[float]
    setups_wall_s: list[float]
    load_ms: list[float]
    deployment: Deployment
    model: oracle.TableModel
    warmup: RunLog
    log: RunLog


def measure(workload: str, inputs: Inputs, seed: int,
            seconds: float) -> Measurement:
    """Set up :data:`SETUP_REPEATS` times and run ``seconds`` of ops, or
    the :func:`block_count` blocks that stand for them.

    The machine's speed drifts over tens of seconds, so the set-ups are
    spread over the run: set-up ``i`` starts the ``i``-th of
    :data:`SETUP_REPEATS` equal segments of the ops, and the set-up and
    base-load figures sample the whole run instead of one stretch of it.
    On the read-only workloads each set-up builds a fresh, identical
    engine that serves its segment.  ``ingest_mixed`` keeps its first
    engine for the whole stream; its later set-ups build an engine that
    is timed and dropped.  (With all three first, its ``setup_s``
    median moved by a quarter between two sets of ten runs.)
    """
    model = oracle.TableModel(inputs.base_rows)
    blocks = inputs.ops(workload, seed)
    log = RunLog()
    setups, walls, load_ms, warm, dep = [], [], [], None, None
    count = block_count(workload, seconds)
    for i in range(SETUP_REPEATS):
        if workload == "ingest_mixed" and dep is not None:
            extra = fresh_deployment(workload, inputs)
            setups.append(extra.setup_s)
            walls.append(extra.setup_wall_s)
            extra = None
        else:
            dep = None
            dep = fresh_deployment(workload, inputs)
            setups.append(dep.setup_s)
            walls.append(dep.setup_wall_s)
            load_ms.extend(dep.load_ms)
        if warm is None:
            warm = warm_up(dep, inputs, seed, model)
        share = (i + 1) / SETUP_REPEATS
        if count is None:
            run_ops(dep, blocks, model, seconds * share, log)
        else:
            run_ops(dep, blocks, model, TIME_CAP * seconds, log,
                    max_blocks=math.ceil(count * share))
    return Measurement(setups, walls, load_ms, dep, model, warm, log)


def block_count(workload: str, seconds: float) -> int | None:
    """Blocks a run holds for ``seconds`` of nominal op time, or ``None``
    for ``range``, which stops by the clock.

    How much work a run that stops by the clock gets through follows the
    machine's speed.  On ``knn`` that moved the median: a block is costly
    and its statements' costs vary widely, and a slow spell cut a 25 s
    run to three blocks and moved the median by 15%.  On
    ``ingest_mixed`` it moved the table: a slow spell let in 180 polls
    instead of 260, which shrank ``peak_rss_mb`` and ``space_amp`` with
    the machine's speed.  Both therefore run a block count fixed by
    ``seconds``, and what they do depends on the seed alone.
    """
    if workload not in BLOCK_S:
        return None
    return max(2, math.ceil(seconds / BLOCK_S[workload]))
