"""The replication manager: WAL shipping, quorum acks, fast failover.

One :class:`ReplicationManager` per store keeps ``factor - 1`` follower
replicas per region on distinct servers (anti-affinity) and drives four
mechanisms:

* **WAL shipping** — every primary WAL append is shipped, in order, to
  the region's followers, which append it to *their* server's WAL and
  apply it to their private memstore.  Under the ``SYNC`` policy the
  write is only acknowledged once a quorum (primary included) holds it
  durably; ``PERIODIC``/``ASYNC`` enqueue and ship lazily, exposing the
  backlog as per-replica lag.
* **Fast failover** — when a primary's server dies, the most-caught-up
  live follower is *promoted*: its memstore and its local WAL records
  simply become the region's, and only the records it had not applied
  yet are replayed.  The unavailability window shrinks from a full WAL
  replay to a region reopen plus that catch-up.
* **Anti-entropy** — a background chore (:meth:`maybe_tick`, driven by
  the simulated clock like the balancer's) drains lazy backlogs, heals
  torn or freshly-placed followers by re-copying the primary's
  unflushed tail, and tops follower sets back up to the factor.
* **Replica reads** — reads may opt into ``FOLLOWER`` (timeline
  consistency) or ``HEDGED`` serving, so a slow or gray-failing primary
  no longer owns the read tail; see :meth:`route_read`.

In-order shipping means every follower holds a *prefix* of the
primary's edit stream.  An acknowledged SYNC write is therefore in the
applied prefix of at least ``quorum - 1`` followers, and the follower
with the highest ``applied_seqno`` holds a superset of every
acknowledged edit — which is exactly why promoting the most-caught-up
follower can never lose an acknowledged write, even when the crashed
primary's own log tail is torn.
"""

from __future__ import annotations

from repro.errors import RegionUnavailableError, ReplicationQuorumError
from repro.kvstore.recovery import RecoveryReport, recover_server
from repro.kvstore.wal import SyncPolicy, WALRecord
from repro.observability.events import (
    ReplicaLagEvent,
    ReplicaPromotedEvent,
    ReplicaRebuildEvent,
)
from repro.observability.metrics import Counter, Gauge, collected
from repro.replication.replica import (
    LIVE,
    REBUILDING,
    TORN,
    FlushMarker,
    FollowerReplica,
    ReadMode,
    read_mode_of,
)

#: Lifetime counters, also exposed as ``replication.*`` registry series.
_COUNTER_SERIES = ("records_shipped", "bytes_shipped", "blocked_ships",
                   "dropped_ships", "quorum_failures", "lag_alerts",
                   "rebuilds", "promotions", "follower_reads",
                   "hedged_reads", "hedge_wins")
#: How often (simulated ms) the anti-entropy chore runs.
DEFAULT_INTERVAL_MS = 200.0
#: Emit a ReplicaLagEvent once a follower's backlog crosses this.
DEFAULT_LAG_ALERT_RECORDS = 64
#: Hedged reads: wait this long (simulated ms) for the primary before
#: sending the hedge request to a follower.
DEFAULT_HEDGE_MS = 5.0


class ReplicationManager:
    """Keeps and uses follower replicas for every region of one store."""

    def __init__(self, store, factor: int = 3,
                 read_mode: ReadMode | str = ReadMode.PRIMARY,
                 interval_ms: float = DEFAULT_INTERVAL_MS,
                 lag_alert_records: int = DEFAULT_LAG_ALERT_RECORDS,
                 hedge_ms: float = DEFAULT_HEDGE_MS):
        if factor < 2:
            raise ValueError(f"replication factor must be >= 2, "
                             f"got {factor}")
        if store.wal_policy is None:
            raise ValueError("replication requires a write-ahead log "
                             "(pass wal_policy to the store)")
        self.store = store
        self.factor = factor
        #: Copies (primary included) that must hold a SYNC write durably
        #: before it is acknowledged.
        self.quorum = factor // 2 + 1
        self.read_mode = read_mode_of(read_mode)
        self.interval_ms = interval_ms
        self.lag_alert_records = lag_alert_records
        self.hedge_ms = hedge_ms
        self._followers: dict[int, list[FollowerReplica]] = {}
        self._last_tick_ms = float("-inf")
        # Lifetime counters (surfaced by snapshot() / sys.replication).
        self.ticks = 0
        self.records_shipped = 0
        self.bytes_shipped = 0
        self.markers_shipped = 0
        self.blocked_ships = 0
        self.dropped_ships = 0
        self.quorum_failures = 0
        self.promotions = 0
        self.rebuilds = 0
        self.follower_reads = 0
        self.hedged_reads = 0
        self.hedge_wins = 0
        self.lag_alerts = 0
        #: Lag gauges as of the last :meth:`tick`.
        self.max_lag_records = 0
        self.lagging_followers = 0

    # -- metrics -------------------------------------------------------------
    def metric_series(self):
        """``replication.*`` registry series, read from the lifetime
        counters and the lag gauges of the last anti-entropy pass."""
        for name in _COUNTER_SERIES:
            yield collected(Counter, f"replication.{name}",
                            getattr(self, name))
        yield collected(Gauge, "replication.max_lag_records",
                        self.max_lag_records)
        yield collected(Gauge, "replication.lagging_followers",
                        self.lagging_followers)

    # -- placement -----------------------------------------------------------
    def _pick_servers(self, count: int, exclude: set[int],
                      start: int) -> list[int]:
        """Up to ``count`` distinct placeable servers, ring order from
        ``start`` (spreads follower sets instead of piling on server 0)."""
        store = self.store
        picked: list[int] = []
        for i in range(store.num_servers):
            server = (start + i) % store.num_servers
            if server in exclude or server in store.dead_servers \
                    or server in store.recovering_servers:
                continue
            picked.append(server)
            exclude.add(server)
            if len(picked) >= count:
                break
        return picked

    def attach_region(self, region) -> None:
        """Give a new region its follower set (anti-affine placement).

        A region is empty at creation (splits and merges persist every
        parent entry into shared SSTables first), so fresh followers are
        immediately ``LIVE`` and caught up at ``applied_seqno == 0``.
        """
        followers = [FollowerReplica(server)
                     for server in self._pick_servers(
                         self.factor - 1, {region.server},
                         start=region.server + 1)]
        self._followers[region.region_id] = followers
        region.replication = self

    def detach_region(self, region) -> None:
        """The region is gone (split parent, merge parent, table drop)."""
        for follower in self._followers.pop(region.region_id, ()):
            self._release_follower(region, follower)
        region.replication = None

    def followers(self, region_id: int) -> list[FollowerReplica]:
        return self._followers.get(region_id, [])

    def follower_servers(self, region_id: int) -> list[int]:
        return [f.server for f in self._followers.get(region_id, ())]

    def _release_follower(self, region, follower: FollowerReplica) -> None:
        """Drop a follower's footprint on its current server: retire its
        shipped WAL records and evict its cached blocks (the server no
        longer serves this region, so the blocks are dead weight —
        exactly like the source side of a ``move_region``)."""
        wal = self.store.wal_for(follower.server)
        if wal is not None and follower.local_max_seqno:
            wal.checkpoint(region.region_id, follower.local_max_seqno)
        region.evict_cached_blocks(server=follower.server)

    # -- write path: shipping and quorum -------------------------------------
    def _ship_verdict(self, server: int) -> str:
        injector = self.store.fault_injector
        if injector is None:
            return "ok"
        return injector.on_ship(server)

    def _apply_record(self, region, follower: FollowerReplica,
                      record: WALRecord) -> None:
        """Land one shipped record on a follower: its WAL, then memstore."""
        wal = self.store.wal_for(follower.server)
        if wal is not None:
            follower.local_max_seqno = wal.append(
                record.table, record.region_id, record.key, record.value)
        follower.memstore.put(record.key, record.value)
        if record.seqno:
            follower.applied_seqno = max(follower.applied_seqno,
                                         record.seqno)
        follower.shipped_records += 1
        self.records_shipped += 1
        self.bytes_shipped += record.nbytes

    def _apply_marker(self, region, follower: FollowerReplica,
                      marker: FlushMarker) -> None:
        """The primary flushed: everything the follower has applied is
        now in shared SSTables, so its memstore copy and its local WAL
        records are obsolete."""
        follower.memstore.clear()
        wal = self.store.wal_for(follower.server)
        if wal is not None and follower.local_max_seqno:
            wal.checkpoint(region.region_id, follower.local_max_seqno)
        follower.applied_seqno = max(follower.applied_seqno,
                                     marker.seqno)
        self.markers_shipped += 1

    def _drain(self, region, follower: FollowerReplica) -> bool:
        """Ship the follower's queued backlog in order.

        Returns True when the backlog fully landed and the follower is
        still ``LIVE``.  A blocked link (partition) leaves the backlog
        queued for a later attempt; a record *dropped* mid-flight after
        the sender moved on leaves a gap in the stream, so the follower
        is marked ``TORN`` — its applied prefix stays valid (and
        promotable) but it must be rebuilt before applying more.
        """
        if follower.state != LIVE:
            return False
        while follower.pending:
            item = follower.pending[0]
            if isinstance(item, FlushMarker):
                follower.pending.popleft()
                self._apply_marker(region, follower, item)
                continue
            verdict = self._ship_verdict(follower.server)
            if verdict == "blocked":
                self.blocked_ships += 1
                return False
            follower.pending.popleft()
            if verdict == "drop":
                self.dropped_ships += 1
                follower.dropped_records += 1
                follower.state = TORN
                return False
            self._apply_record(region, follower, item)
        return True

    def _ship_sync(self, region, follower: FollowerReplica,
                   record: WALRecord) -> bool:
        """Ship one record synchronously for a quorum ack.

        In-order shipping first drains anything already queued; if the
        link is down or drops the record, no ack — the record joins the
        queue so the stream keeps its order when the link heals.
        """
        if not self._drain(region, follower):
            follower.pending.append(record)
            return False
        verdict = self._ship_verdict(follower.server)
        if verdict != "ok":
            if verdict == "blocked":
                self.blocked_ships += 1
            else:
                # Lost in flight but not acknowledged: the sender still
                # holds it, so this is a retry, not a torn stream.
                self.dropped_ships += 1
            follower.pending.append(record)
            return False
        self._apply_record(region, follower, record)
        return True

    def on_append(self, region, table: str, key: bytes,
                  value: bytes | None, seqno: int | None) -> None:
        """One primary WAL append happened; replicate it.

        Under ``SYNC`` the write needs ``quorum`` durable copies
        (primary included) before it is acknowledged — too few and this
        raises :class:`~repro.errors.ReplicationQuorumError` *before*
        the primary memstore applies the value.  Other policies enqueue
        to every follower and ship lazily (at flushes and chore ticks).
        """
        followers = self._followers.get(region.region_id)
        if not followers:
            return
        record = WALRecord(seqno if seqno is not None else 0, table,
                           region.region_id, key, value)
        sync = self.store.wal_policy is SyncPolicy.SYNC
        acks = 1  # the primary's own synced append
        for follower in followers:
            if follower.state != LIVE:
                continue  # torn/rebuilding replicas heal via the chore
            if sync and acks < self.quorum:
                if self._ship_sync(region, follower, record):
                    acks += 1
            else:
                follower.pending.append(record)
        if sync and acks < self.quorum:
            self.quorum_failures += 1
            raise ReplicationQuorumError(table, region.region_id,
                                         region.server, acks,
                                         self.quorum)
        if sync:
            # Modeled quorum-ack latency: sequential synchronous ships,
            # one follower WAL fsync each (the primary's own fsync is
            # charged by the WAL itself).
            registry = self.store.metrics
            if registry is not None:
                fsync_ms = getattr(self.store.cost_model, "fsync_ms",
                                   4.0) if self.store.cost_model \
                    is not None else 4.0
                registry.histogram("replication.quorum_ack_ms").observe(
                    (acks - 1) * fsync_ms)

    def on_flush(self, region, seqno: int) -> None:
        """The primary flushed its memstore; ship the marker in-stream."""
        followers = self._followers.get(region.region_id)
        if not followers:
            return
        marker = FlushMarker(seqno)
        for follower in followers:
            if follower.state != LIVE:
                continue
            follower.pending.append(marker)
            self._drain(region, follower)

    # -- anti-entropy chore --------------------------------------------------
    def maybe_tick(self):
        """Run one anti-entropy pass if the interval elapsed."""
        now_ms = self.store.events.now_ms
        if now_ms - self._last_tick_ms < self.interval_ms:
            return None
        return self.tick()

    def tick(self) -> dict:
        """One anti-entropy pass over every region's follower set."""
        store = self.store
        self._last_tick_ms = store.events.now_ms
        self.ticks += 1
        healed = drained = 0
        max_lag = 0
        lagging = 0
        for table in store.tables():
            for region in table.regions():
                followers = self._followers.get(region.region_id)
                if followers is None:
                    continue
                for follower in list(followers):
                    if follower.server in store.dead_servers:
                        # Its server died without a failover touching
                        # this region (it only hosted followers here).
                        followers.remove(follower)
                self._top_up(region, followers)
                for follower in followers:
                    if follower.state in (TORN, REBUILDING):
                        if self._rebuild(table.name, region, follower):
                            healed += 1
                    elif self._drain(region, follower):
                        drained += 1
                    max_lag = max(max_lag, follower.lag_records)
                    if follower.lag_records > self.lag_alert_records:
                        lagging += 1
                        self.lag_alerts += 1
                        store.events.emit(ReplicaLagEvent(
                            table=table.name,
                            region_id=region.region_id,
                            server=follower.server,
                            lag_records=follower.lag_records))
        self.max_lag_records = max_lag
        self.lagging_followers = lagging
        return {"healed": healed, "drained": drained}

    def _top_up(self, region, followers: list[FollowerReplica]) -> None:
        """Add fresh (rebuilding) followers up to ``factor - 1``."""
        want = self.factor - 1 - len(followers)
        if want <= 0:
            return
        exclude = {region.server} | {f.server for f in followers}
        for server in self._pick_servers(want, exclude,
                                         start=region.server + 1):
            followers.append(FollowerReplica(server, state=REBUILDING))

    def _rebuild(self, table_name: str, region,
                 follower: FollowerReplica) -> bool:
        """Heal one torn/fresh follower: re-copy the primary's unflushed
        tail over the ship link.  Everything at or below the primary's
        ``max_seqno`` lives in its memstore or in shared SSTables, so a
        fresh memstore copy plus ``applied_seqno = max_seqno`` is a
        fully caught-up replica.  A still-bad link aborts the attempt;
        the chore retries next tick.
        """
        store = self.store
        follower.reset()
        wal = store.wal_for(follower.server)
        copied = 0
        for key, value in region.memstore.items_sorted():
            verdict = self._ship_verdict(follower.server)
            if verdict != "ok":
                if verdict == "blocked":
                    self.blocked_ships += 1
                else:
                    self.dropped_ships += 1
                # Drop the partial copy; its WAL records are retired so
                # the next attempt starts clean.
                follower.reset()
                if wal is not None:
                    wal.checkpoint(region.region_id, wal.appended_seqno)
                return False
            if wal is not None:
                follower.local_max_seqno = wal.append(
                    table_name, region.region_id, key, value)
            follower.memstore.put(key, value)
            copied += 1
        follower.applied_seqno = region.max_seqno
        follower.state = LIVE
        self.rebuilds += 1
        store.events.emit(ReplicaRebuildEvent(
            table=table_name, region_id=region.region_id,
            server=follower.server, records_copied=copied))
        return True

    def _restore_quorum(self, table_name: str, region,
                        followers: list[FollowerReplica]) -> None:
        """After a failover, writes must be able to ack again: under
        ``SYNC``, rebuild followers synchronously until ``quorum - 1``
        are live (the rest heal lazily via the chore)."""
        if self.store.wal_policy is not SyncPolicy.SYNC:
            return
        need = self.quorum - 1
        live = sum(1 for f in followers if f.state == LIVE)
        for follower in followers:
            if live >= need:
                break
            if follower.state != LIVE:
                if self._rebuild(table_name, region, follower):
                    live += 1

    # -- failover: promote instead of replay ---------------------------------
    def failover(self, server: int, records: list[WALRecord],
                 discarded: int) -> RecoveryReport:
        """Recover every region the dead ``server`` touched.

        Regions whose *primary* lived there are promoted onto their
        most-caught-up live follower — the promotion inherits the
        follower's memstore and local WAL records wholesale, then
        replays only the surviving primary-log records the follower had
        not applied (its lag).  Regions with no promotable follower fall
        back to the full WAL replay.  Follower replicas the dead server
        hosted for *other* regions are dropped and re-placed.
        """
        store = self.store
        model = store.cost_model
        if model is None:
            from repro.cluster.simclock import CostModel
            model = CostModel()
        report = RecoveryReport(server=server,
                                discarded_records=discarded)
        promote: list[tuple] = []   # (table, region, eligible followers)
        replay_ids: set[int] = set()
        follower_losses: list[tuple] = []
        for table in store.tables():
            for region in table.regions():
                followers = self._followers.get(region.region_id)
                if region.server == server:
                    eligible = [
                        f for f in (followers or ())
                        if f.state in (LIVE, TORN)
                        and f.server not in store.dead_servers
                        and f.server not in store.recovering_servers]
                    if eligible:
                        promote.append((table, region, eligible))
                    else:
                        replay_ids.add(region.region_id)
                elif followers and any(f.server == server
                                       for f in followers):
                    follower_losses.append((table, region))

        before = store.stats.snapshot()
        for table, region, eligible in promote:
            # The max applied_seqno is the most-caught-up replica; every
            # acknowledged edit is in its prefix.  Ties break on the
            # lower server id for determinism.
            best = max(eligible,
                       key=lambda f: (f.applied_seqno, -f.server))
            followers = self._followers[region.region_id]
            followers.remove(best)
            for follower in list(followers):
                if follower.server in store.dead_servers:
                    followers.remove(follower)
                    continue
                # Their stream position refers to the dead primary's
                # WAL; re-sync them against the promoted one.
                self._release_follower(region, follower)
                follower.reset()
            from_server = region.server
            # Promotion proper: the follower's private memstore and its
            # local WAL records *become* the region's.  Its block cache
            # stays warm — shared-SSTable blocks it cached while serving
            # follower reads are still valid.
            region.memstore = best.memstore
            region.server = best.server
            region.wal = store.wal_for(best.server)
            # Seqnos are per server: the promoted watermark is the
            # follower's own WAL position (the PR 1 failover lesson).
            region.max_seqno = best.local_max_seqno
            catchup = 0
            for record in records:
                if record.region_id != region.region_id \
                        or record.seqno <= best.applied_seqno:
                    continue
                seqno = None
                if region.wal is not None:
                    seqno = region.wal.append(record.table,
                                              record.region_id,
                                              record.key, record.value)
                region.put(record.key, record.value, seqno)
                catchup += 1
                report.replayed_records += 1
                report.replayed_bytes += record.nbytes
            report.catchup_records += catchup
            report.reassignments[region.region_id] = best.server
            self.promotions += 1
            store.events.emit(ReplicaPromotedEvent(
                table=table.name, region_id=region.region_id,
                server=best.server, from_server=from_server,
                applied_seqno=best.applied_seqno,
                catchup_records=catchup))

        delta = store.stats.snapshot().delta(before)
        promoted = len(promote)
        report.promoted_regions = promoted
        report.regions_reassigned += promoted
        scale = model.effective_record_scale
        report.recovery_ms += (
            promoted * model.region_reopen_ms
            + model.disk_read_ms(sum(r.nbytes for r in records)
                                 if promoted else 0)
            + model.disk_write_ms(delta.wal_bytes_written)
            + delta.wal_syncs * model.fsync_ms
            + model.disk_write_ms(delta.disk_bytes_written)
            + report.catchup_records * model.kv_put_us * scale / 1000.0)
        # Replica sets are restored *after* the promoted regions are
        # back online: in HBase the region serves as soon as it is
        # reassigned, and re-replication is background work — only the
        # synchronous quorum restoration below keeps SYNC writes
        # ackable immediately, and it is not part of the unavailability
        # window either.
        for table, region, _eligible in promote:
            followers = self._followers[region.region_id]
            self._top_up(region, followers)
            self._restore_quorum(table.name, region, followers)
        for table, region in follower_losses:
            followers = self._followers[region.region_id]
            for follower in list(followers):
                if follower.server == server:
                    followers.remove(follower)
            self._top_up(region, followers)
            self._restore_quorum(table.name, region, followers)
        if replay_ids:
            # No promotable follower (e.g. every replica was rebuilding
            # or its server is gone too): the PR 1 replay path.
            sub = recover_server(
                store, server,
                [r for r in records if r.region_id in replay_ids],
                0, model=model, only_regions=replay_ids,
                emit_event=False)
            report.regions_reassigned += sub.regions_reassigned
            report.replayed_records += sub.replayed_records
            report.replayed_bytes += sub.replayed_bytes
            report.recovery_ms += sub.recovery_ms
            report.reassignments.update(sub.reassignments)
            # Replay placement ignores replicas; restore anti-affinity
            # where the new primary landed on one of its followers.
            for region_id, dest in sub.reassignments.items():
                followers = self._followers.get(region_id, [])
                for follower in list(followers):
                    if follower.server == dest:
                        followers.remove(follower)
        from repro.observability.events import FailoverEvent
        store.events.emit(FailoverEvent(
            server=server,
            regions_reassigned=report.regions_reassigned,
            replayed_records=report.replayed_records,
            discarded_records=report.discarded_records,
            recovery_ms=round(report.recovery_ms, 3)))
        return report

    # -- placement hooks (balancer integration) ------------------------------
    def on_primary_moved(self, region, source: int, dest: int) -> None:
        """The balancer moved a region's primary ``source`` -> ``dest``.

        ``move_region`` flushed the memstore first, so every entry is in
        shared SSTables and the new primary's stream restarts at seqno
        0 on ``dest``'s WAL.  Followers reset to that empty stream —
        which makes them instantly caught up — and a follower that was
        living on ``dest`` swaps to the vacated ``source`` to keep the
        copies on distinct servers.
        """
        followers = self._followers.get(region.region_id)
        if not followers:
            return
        for follower in followers:
            self._release_follower(region, follower)
            follower.reset(server=source if follower.server == dest
                           else None)
            # Empty memstore at position 0 == the just-moved primary.
            follower.state = LIVE

    # -- read routing ---------------------------------------------------------
    def effective_mode(self, ctx) -> ReadMode:
        override = getattr(ctx, "read_mode", None) if ctx is not None \
            else None
        if override is not None:
            return read_mode_of(override)
        return self.read_mode

    def _probe(self, server: int, op: str) -> tuple[float, bool]:
        injector = self.store.fault_injector
        if injector is None:
            return 0.0, False
        return injector.evaluate(server, op)

    def _read_candidates(self, region) -> list[FollowerReplica]:
        store = self.store
        return [f for f in self._followers.get(region.region_id, ())
                if f.state == LIVE
                and f.server not in store.dead_servers
                and f.server not in store.recovering_servers]

    def route_read(self, table: str, region, op: str,
                   ctx=None) -> FollowerReplica | None:
        """Decide which replica serves one read.

        Returns ``None`` for the primary, or the chosen follower.
        ``PRIMARY`` mode is byte-for-byte the unreplicated behaviour.
        In the other modes an offline primary (mid-failover or mid-move)
        degrades to follower serving instead of raising, and ``HEDGED``
        arbitrates primary vs follower latency under gray faults,
        charging only the winning path to the request's deadline.
        """
        store = self.store
        mode = self.effective_mode(ctx)
        candidates = self._read_candidates(region) \
            if mode is not ReadMode.PRIMARY else []
        if not candidates:
            store.check_available(table, region, op, ctx)
            return None
        best = max(candidates, key=lambda f: (f.applied_seqno,
                                              -f.server))
        primary_offline = (region.server in store.recovering_servers
                           or store.events.now_ms
                           < region.unavailable_until_ms)
        if primary_offline:
            # The unreplicated path would raise RegionUnavailableError;
            # a live follower keeps the region readable instead.
            follower_ms, follower_err = self._probe(best.server, op)
            if follower_err:
                raise RegionUnavailableError(
                    table, region.region_id, best.server,
                    reason="primary offline and follower replica "
                           "failing intermittently")
            if ctx is not None and follower_ms:
                ctx.charge(follower_ms, label="gray_latency")
            self.follower_reads += 1
            best.reads += 1
            return best
        if mode is ReadMode.FOLLOWER:
            follower_ms, follower_err = self._probe(best.server, op)
            if follower_err:
                # A flapping follower is not worth an error when the
                # primary is healthy: fall back.
                store.check_available(table, region, op, ctx)
                return None
            if ctx is not None and follower_ms:
                ctx.charge(follower_ms, label="gray_latency")
            self.follower_reads += 1
            best.reads += 1
            return best
        # HEDGED: probe the primary; past the hedge delay, race a
        # follower and charge only the path that would answer first.
        primary_ms, primary_err = self._probe(region.server, op)
        hedge_ms = self.hedge_ms
        if ctx is not None:
            hedge_ms = ctx.hedge_budget_ms(self.hedge_ms)
        if not primary_err and primary_ms <= hedge_ms:
            if ctx is not None and primary_ms:
                ctx.charge(primary_ms, label="gray_latency")
            return None
        self.hedged_reads += 1
        follower_ms, follower_err = self._probe(best.server, op)
        if follower_err and primary_err:
            raise RegionUnavailableError(
                table, region.region_id, region.server,
                reason="primary and follower replicas both failing "
                       "intermittently")
        if follower_err:
            if ctx is not None and primary_ms:
                ctx.charge(primary_ms, label="gray_latency")
            return None
        hedged_total = hedge_ms + follower_ms
        if primary_err or hedged_total < primary_ms:
            self.hedge_wins += 1
            if ctx is not None and hedged_total:
                ctx.charge(hedged_total, label="hedged_read")
            best.reads += 1
            return best
        if ctx is not None and primary_ms:
            ctx.charge(primary_ms, label="gray_latency")
        return None

    # -- introspection ---------------------------------------------------------
    def rows(self) -> list[dict]:
        """``sys.replication`` rows: one per replica, primaries included."""
        out: list[dict] = []
        for table in self.store.tables():
            for region in table.regions():
                followers = self._followers.get(region.region_id)
                if followers is None:
                    continue
                out.append({
                    "table": table.name,
                    "region_id": region.region_id,
                    "server": region.server, "role": "primary",
                    "state": LIVE,
                    "applied_seqno": region.max_seqno,
                    "lag_records": 0, "reads": region.reads,
                    "shipped_records": 0})
                for follower in followers:
                    out.append({
                        "table": table.name,
                        "region_id": region.region_id,
                        "server": follower.server, "role": "follower",
                        "state": follower.state,
                        "applied_seqno": follower.applied_seqno,
                        "lag_records": follower.lag_records,
                        "reads": follower.reads,
                        "shipped_records": follower.shipped_records})
        return out

    def snapshot(self) -> dict:
        """Summary counters for the ``/replication`` route and demos."""
        states = {LIVE: 0, TORN: 0, REBUILDING: 0}
        lag = 0
        replicas = 0
        for followers in self._followers.values():
            for follower in followers:
                replicas += 1
                states[follower.state] += 1
                lag += follower.lag_records
        return {
            "factor": self.factor, "quorum": self.quorum,
            "read_mode": self.read_mode.value,
            "regions": len(self._followers),
            "follower_replicas": replicas,
            "followers_live": states[LIVE],
            "followers_torn": states[TORN],
            "followers_rebuilding": states[REBUILDING],
            "lag_records": lag,
            "markers_shipped": self.markers_shipped,
            **{name: getattr(self, name) for name in _COUNTER_SERIES},
            "interval_ms": self.interval_ms,
        }
