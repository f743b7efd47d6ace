"""Every event is counted once: the metrics registry reads its owners.

The store's ``IOStats``, replication, the balancer, stream loaders and
admission control keep their own counters; the registry reads them at
every registry read instead of receiving a copy of each increment.
These tests pin that every collected series equals its owning
attribute after each kind of operation, and that derived series are
current without any refresh call.
"""

import random

import pytest

from repro import Schema
from repro.core.engine import JustEngine
from repro.errors import ServerOverloadedError
from repro.geometry.point import Point
from repro.kvstore.wal import SyncPolicy
from repro.service.server import JustServer
from repro.streaming import Count, TumblingWindows, WindowedAggregator

from conftest import POI_SCHEMA_FIELDS, T0

LOAD_CONFIG = {
    "fid": "to_int(oid)",
    "name": "kind",
    "time": "long_to_date_ms(ts)",
    "geom": "lng_lat_to_point(lng, lat)",
}

#: ``poi`` in the namespace of the sessions' user ``u``.
TABLE = "u__poi"

IO_COUNTERS = (
    "disk_bytes_read", "disk_bytes_written", "cache_bytes_read",
    "memstore_bytes_read", "result_bytes", "scans_started", "blocks_read",
    "cache_hits", "wal_bytes_written", "wal_appends", "wal_syncs",
    "wal_bytes_replayed")
REPLICATION_COUNTERS = (
    "records_shipped", "bytes_shipped", "blocked_ships", "dropped_ships",
    "quorum_failures", "lag_alerts", "rebuilds", "promotions",
    "follower_reads", "hedged_reads", "hedge_wins")


def _poi(rng, fid):
    return {"fid": fid, "name": f"poi{fid % 7}",
            "time": T0 + rng.random() * 86400,
            "geom": Point(116.0 + rng.random() * 0.5,
                          39.8 + rng.random() * 0.3)}


def _window_query(rng) -> str:
    lng, lat = 116.0 + rng.random() * 0.4, 39.8 + rng.random() * 0.2
    return (f"SELECT fid FROM poi WHERE geom WITHIN "
            f"st_makeMBR({lng}, {lat}, {lng + 0.1}, {lat + 0.1}) "
            f"AND time BETWEEN {T0} AND {T0 + 86400}")


def _expected_series(server) -> dict:
    """Every collected series, spelled out from its owner's state."""
    engine, store = server.engine, server.engine.store
    stats = store.stats
    out = {f"kvstore.{name}": getattr(stats, name) for name in IO_COUNTERS}
    touched = stats.cache_hits + stats.blocks_read
    out["kvstore.cache_hit_ratio"] = (stats.cache_hits / touched
                                      if touched else 0.0)
    out["kvstore.cache_used_bytes"] = sum(
        store.cache_for(s).used_bytes for s in range(store.num_servers))
    out["admission.admitted"] = server.admission.admitted
    out["admission.shed"] = server.admission.shed
    out["admission.in_flight"] = server.admission.in_flight
    out["server.slow_queries_logged"] = \
        server.slow_query_log.total_logged
    replication = store.replication
    if replication is not None:
        for name in REPLICATION_COUNTERS:
            out[f"replication.{name}"] = getattr(replication, name)
        out["replication.max_lag_records"] = replication.max_lag_records
        out["replication.lagging_followers"] = \
            replication.lagging_followers
    if engine.balancer is not None:
        for name in ("runs", "moves", "splits", "merges", "imbalance"):
            out[f"balancer.{name}"] = getattr(engine.balancer, name)
    for loader in engine.stream_loaders():
        def key(name, loader=loader):
            return f"streaming.{name}{{loader={loader.name}}}"
        aggregator, view = loader._windows[0]
        out[key("polls")] = loader.polls
        out[key("events_consumed")] = loader.offset
        out[key("rows_loaded")] = loader.total_loaded
        out[key("events_dropped")] = loader.total_dropped
        out[key("windows_emitted")] = view.row_count
        out[key("alerts")] = 0
        out[key("late_events")] = aggregator.late_dropped
        out[key("view_refresh_ms")] = view.total_refresh_ms
        out[key("poll_sim_ms")] = loader.total_sim_ms
        out[key("lag")] = loader.topic.end_offset - loader.offset
        watermark = loader.watermark.watermark
        if watermark is not None:
            out[key("watermark")] = watermark
            out[key("watermark_delay_s")] = \
                loader.watermark.max_event_time - watermark
    return out


def _assert_counted_once(server) -> None:
    registry = server.metrics
    snapshot = registry.snapshot()
    expected = _expected_series(server)
    assert {k: snapshot.get(k) for k in expected} == expected
    # Nothing both collected and pushed, and nothing collected that
    # has no owner above.
    collected = set(snapshot) - set(registry._metrics)
    assert collected == set(expected)
    rows = server.engine.sql(
        "SELECT loader, polls, loaded, sim_ms FROM sys.streams").rows
    for row in rows:
        def series(name, row=row):
            return snapshot[f"streaming.{name}{{loader={row['loader']}}}"]
        assert row["polls"] == series("polls")
        assert row["loaded"] == series("rows_loaded")
        assert row["sim_ms"] == round(series("poll_sim_ms"), 3)


class _Cluster:
    """A small durable deployment driven one random operation at a time."""

    def __init__(self, rng):
        self.rng = rng
        engine = JustEngine(wal_policy=SyncPolicy.SYNC,
                            flush_bytes=4096, split_bytes=16384)
        engine.create_table(TABLE, Schema(list(POI_SCHEMA_FIELDS)))
        self.server = JustServer(engine, slow_query_ms=30.0)
        self.session = self.server.connect("u")
        self.engine = engine
        self.topic = engine.create_topic("gps")
        self.loader = engine.stream_load("gps", TABLE, LOAD_CONFIG,
                                         batch_size=16, max_delay_s=5.0,
                                         name="gps")
        self.loader.materialize_window(
            "u__per_kind", WindowedAggregator(TumblingWindows(60.0),
                                           {"n": Count()},
                                           key_fields=("name",)))
        self.next_event = 0

    def insert(self):
        # Fids repeat across steps, so later inserts are upserts.
        self.engine.insert(TABLE, [_poi(self.rng, self.rng.randrange(60))
                                   for _ in range(self.rng.randint(1, 20))])

    def flush(self):
        for table in self.engine.store.tables():
            table.flush()

    def compact(self):
        for table in self.engine.store.tables():
            table.flush()
            table.compact()

    def scan(self):
        self.server.execute(self.session, _window_query(self.rng))

    def replicate(self):
        replication = self.engine.enable_replication(factor=3)
        self.insert()  # ships to the followers
        replication.tick()

    def balance(self):
        self.engine.enable_balancer().tick()

    def shed(self):
        admission = self.server.admission
        limit, admission.max_per_user = admission.max_per_user, 0
        try:
            with pytest.raises(ServerOverloadedError):
                self.scan()
        finally:
            admission.max_per_user = limit

    def poll(self):
        events = []
        for _ in range(self.rng.randint(1, 24)):
            i = self.next_event
            self.next_event += 1
            # Up to 30 s of disorder against a 5 s bound: some late.
            ts = T0 + i * 2.0 - self.rng.random() * 30.0
            events.append({"oid": str(100 + i % 80),
                           "kind": f"k{i % 3}",
                           "lng": 116.0 + self.rng.random() * 0.5,
                           "lat": 39.8 + self.rng.random() * 0.3,
                           "ts": int(ts * 1000)})
        self.topic.append_many(events)
        self.loader.poll()

    def finalize(self):
        self.loader.finalize()


OPERATIONS = ("insert", "flush", "compact", "scan", "replicate",
              "balance", "shed", "poll", "finalize")


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_every_collected_series_equals_its_owner(seed):
    rng = random.Random(seed)
    cluster = _Cluster(rng)
    _assert_counted_once(cluster.server)
    weights = (4, 1, 1, 3, 1, 1, 1, 3, 1)
    for _ in range(30):
        op = rng.choices(OPERATIONS, weights)[0]
        getattr(cluster, op)()
        _assert_counted_once(cluster.server)


def test_series_are_visible_from_registration_at_zero():
    server = JustServer()
    snapshot = server.metrics.snapshot()
    for name in ("kvstore.blocks_read", "kvstore.wal_syncs",
                 "kvstore.cache_hit_ratio", "admission.shed",
                 "server.slow_queries_logged"):
        assert snapshot[name] == 0
    assert "balancer.runs" not in snapshot
    server.engine.enable_balancer()
    assert server.metrics.snapshot()["balancer.runs"] == 0


class TestDerivedSeriesAreCurrent:
    """Read-time series need no ``metrics_snapshot()`` refresh first."""

    NAMES = ("kvstore.cache_hit_ratio", "kvstore.cache_used_bytes",
             "server.slow_queries_logged")

    def _expected(self, server) -> dict:
        expected = _expected_series(server)
        return {name: expected[name] for name in self.NAMES}

    def _assert_current(self, server) -> None:
        engine = server.engine
        expected = self._expected(server)
        text = {line.rsplit(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
                for line in server.metrics.render_text().splitlines()
                if not line.startswith("#")}
        assert {name: text.get(name) for name in self.NAMES} == expected
        rows = engine.sql("SELECT name, value FROM sys.metrics").rows
        values = {r["name"]: r["value"] for r in rows}
        assert {name: values.get(name) for name in self.NAMES} == expected
        engine.monitor.tick()
        history = {name: engine.monitor.history.get(name)
                   for name in self.NAMES}
        assert {name: series and series.tier_points(0)[-1][1]
                for name, series in history.items()} == expected

    def test_current_in_text_sys_metrics_and_history(self):
        server = JustServer(slow_query_ms=30.0)
        engine = server.engine
        engine.enable_monitoring()
        engine.create_table(TABLE, Schema(list(POI_SCHEMA_FIELDS)))
        rng = random.Random(5)
        engine.insert(TABLE, [_poi(rng, fid) for fid in range(50)])
        for table in engine.store.tables():
            table.flush()
        session = server.connect("u")
        queries = [_window_query(rng) for _ in range(4)]
        for query in queries * 2:  # the second pass hits the cache
            server.execute(session, query)
        assert self._expected(server)["kvstore.cache_hit_ratio"] > 0
        self._assert_current(server)
        before = self._expected(server)
        for table in engine.store.tables():
            table.compact()
        for query in queries * 3:
            server.execute(session, query)
        assert self._expected(server) != before
        self._assert_current(server)
