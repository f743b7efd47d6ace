"""Tables and the store facade."""

from __future__ import annotations

import heapq
import zlib
from bisect import bisect_right

from repro.errors import (
    RegionUnavailableError,
    TableExistsError,
    TableNotFoundError,
)
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.iostats import COUNTERS, IOStats
from repro.kvstore.recovery import RecoveryReport, recover_server
from repro.kvstore.region import DEFAULT_FLUSH_BYTES, Region
from repro.kvstore.scan import DEFAULT_BATCH_ROWS, ScanSpec, chunk_pairs
from repro.kvstore.sstable import DEFAULT_BLOCK_BYTES, SSTable
from repro.kvstore.wal import (
    DEFAULT_PERIODIC_BYTES,
    SyncPolicy,
    WriteAheadLog,
)
from repro.observability.events import (
    EventLog,
    RegionMergedEvent,
    RegionMovedEvent,
    SplitEvent,
)
from repro.observability.metrics import Counter, Gauge, collected

#: Split a region once its data exceeds this many bytes.
DEFAULT_SPLIT_BYTES = 4 * 1024 * 1024

#: Upper bound on pre-split regions and salt buckets (one key byte).
MAX_BUCKETS = 255


def salt_of(key: bytes, buckets: int) -> int:
    """Deterministic salt bucket for a key (HBase-style key salting)."""
    return zlib.crc32(key) % buckets


class KVTable:
    """One sorted table, split into key-range regions across servers.

    ``presplit=N`` creates the table with ``N`` regions up front
    (HBase pre-splitting), spreading a write burst across servers from
    the first put instead of waiting for size-triggered splits.

    ``salt_buckets=K`` (>= 2) prepends a one-byte deterministic salt —
    ``crc32(key) % K`` — to every stored key, so even a monotonic or
    SFC-clustered key stream spreads over K contiguous key spaces.
    Point operations recompute the salt; range scans fan out one scan
    per bucket and merge them back into logical key order (the salted
    scan fan-out cost is the classic salting trade-off).  With salting,
    pre-splitting places region boundaries on bucket boundaries.
    """

    def __init__(self, name: str, store: "KVStore", presplit: int = 0,
                 salt_buckets: int = 0):
        if presplit < 0 or presplit > MAX_BUCKETS:
            raise ValueError(f"presplit must be in [0, {MAX_BUCKETS}], "
                             f"got {presplit}")
        if salt_buckets < 0 or salt_buckets > MAX_BUCKETS:
            raise ValueError(f"salt_buckets must be in [0, {MAX_BUCKETS}]"
                             f", got {salt_buckets}")
        self.name = name
        self._store = store
        self._stats = store.stats
        self.salt_buckets = salt_buckets if salt_buckets >= 2 else 0
        self._regions: list[Region] = [
            self._new_region(start, end)
            for start, end in self._initial_ranges(presplit)]
        # _region_starts[i] == _regions[i].start_key, kept sorted for routing
        self._region_starts: list[bytes] = [r.start_key
                                            for r in self._regions]

    def _new_region(self, start: bytes, end: bytes | None) -> Region:
        server = self._store.next_server()
        region = Region(start, end, self._stats,
                        server=server,
                        flush_bytes=self._store.flush_bytes,
                        block_bytes=self._store.block_bytes,
                        wal=self._store.wal_for(server),
                        cache_lookup=self._store.cache_for,
                        events=self._store.events, table=self.name)
        self._store.region_created(region)
        return region

    def _initial_ranges(self, presplit: int) -> list[tuple[bytes,
                                                           bytes | None]]:
        """Key ranges for the initial regions (one without pre-split)."""
        starts = [b""]
        if presplit > 1:
            if self.salt_buckets:
                # Boundaries on salt-bucket edges so every bucket lives
                # entirely inside one region.
                bounds = {self.salt_buckets * i // presplit
                          for i in range(1, presplit)}
            else:
                bounds = {256 * i // presplit for i in range(1, presplit)}
            starts += [bytes([b]) for b in sorted(bounds) if 0 < b < 256]
        ends: list[bytes | None] = starts[1:] + [None]
        return list(zip(starts, ends))

    # -- key salting ---------------------------------------------------------
    def _salted(self, key: bytes) -> bytes:
        if not self.salt_buckets:
            return key
        return bytes([salt_of(key, self.salt_buckets)]) + key

    # -- routing -------------------------------------------------------------
    def _region_for(self, key: bytes) -> Region:
        index = bisect_right(self._region_starts, key) - 1
        return self._regions[index]

    def _regions_overlapping(self, start: bytes, stop: bytes) -> list[Region]:
        return [r for r in self._regions if r.overlaps(start, stop)]

    def regions(self) -> list[Region]:
        return list(self._regions)

    # -- API -----------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one cell.

        With a write-ahead log configured, the mutation is logged on the
        hosting region server before it reaches the memstore; under the
        ``SYNC`` policy it is durable when this returns.
        """
        self._mutate(key, value)

    def delete(self, key: bytes) -> None:
        """Delete one cell (tombstone until compaction)."""
        self._mutate(key, None)

    def _mutate(self, key: bytes, value: bytes | None) -> None:
        self._store.tick_faults("put")
        key = self._salted(key)
        region = self._region_for(key)
        self._store.check_available(self.name, region, "put")
        seqno = self._store.wal_append(region, self.name, key, value)
        # Replicate between the primary WAL append and the memstore
        # apply: a failed SYNC quorum raises here, so the rejected
        # write is at worst a ghost record in the primary log
        # (indeterminate, like any timed-out distributed commit).
        self._store.replicate_append(region, self.name, key, value,
                                     seqno)
        region.put(key, value, seqno)
        if region.total_bytes >= self._store.split_bytes:
            self._split(region)

    def get(self, key: bytes, ctx=None) -> bytes | None:
        self._store.tick_faults("get")
        key = self._salted(key)
        region = self._region_for(key)
        replica = self._store.route_read(self.name, region, "get", ctx)
        server = region.server if replica is None else replica.server
        return region.get(key, self._store.cache_for(server),
                          replica=replica)

    def scan(self, spec: ScanSpec, ctx=None):
        """Yield live ``(key, value)`` pairs across regions, key-sorted.

        ``ctx`` (a :class:`repro.resilience.RequestContext`) makes the
        scan deadline-aware — the remaining budget is checked before
        each region and periodically within one — and enables graceful
        degradation: in partial-results mode an unavailable (or
        gray-failing) region is recorded in the context's skipped-region
        report and the scan continues over the live regions instead of
        failing all-or-nothing.
        """
        self._store.tick_faults("scan")
        self._stats.record_scan()
        if self.salt_buckets:
            stream = self._scan_salted(spec, ctx)
        else:
            stream = self._scan_span(spec.start, spec.stop, ctx)
        remaining = spec.limit
        for key, value in stream:
            yield key, value
            if remaining is not None:
                remaining -= 1
                if remaining <= 0:
                    return

    def scan_batches(self, spec: ScanSpec, ctx=None,
                     batch_rows: int | None = None):
        """Batched :meth:`scan`: yields lists of ``(key, value)`` pairs.

        Identical routing, deadline, partial-results, and accounting
        behavior; entries arrive a batch at a time so consumers (the
        table layer's columnar decode) amortize per-row work.  Batches
        never span regions, so per-region span accounting stays exact.
        """
        self._store.tick_faults("scan")
        self._stats.record_scan()
        batch_rows = batch_rows or DEFAULT_BATCH_ROWS
        if self.salt_buckets:
            stream = chunk_pairs(self._scan_salted(spec, ctx), batch_rows)
        else:
            stream = self._scan_span_batches(spec.start, spec.stop, ctx,
                                             batch_rows)
        remaining = spec.limit
        for batch in stream:
            if remaining is not None and len(batch) >= remaining:
                yield batch[:remaining]
                return
            if remaining is not None:
                remaining -= len(batch)
            yield batch

    def _scan_salted(self, spec: ScanSpec, ctx=None):
        """Fan the logical range out over every salt bucket and merge.

        Each bucket holds a contiguous salted copy of the logical key
        space, so one per-bucket scan of ``salt + [start, stop)`` with
        the salt byte stripped yields the bucket's rows in logical
        order; a ``heapq.merge`` over the buckets restores the global
        order.  A logical key lives in exactly one bucket, so merge
        comparisons never tie (and never reach the values).
        """
        stop = spec.stop

        def bucket_stream(bucket: int):
            prefix = bytes([bucket])
            if stop is None:
                # The bucket's whole key space: everything under the
                # salt byte (buckets are < 255, so prefix+1 exists).
                bucket_stop = bytes([bucket + 1])
            else:
                bucket_stop = prefix + stop
            for key, value in self._scan_span(prefix + spec.start,
                                              bucket_stop, ctx):
                yield key[1:], value

        yield from heapq.merge(*(bucket_stream(b)
                                 for b in range(self.salt_buckets)))

    def _scan_span(self, start: bytes, stop: bytes | None, ctx=None):
        """Yield live ``(key, value)`` across regions of one key span."""
        profile = getattr(ctx, "profile", None) if ctx is not None \
            else None
        for region in self._regions_overlapping(start, stop):
            if ctx is not None:
                ctx.check(f"scan of {self.name!r}")
            try:
                replica = self._store.route_read(self.name, region,
                                                 "scan", ctx)
            except RegionUnavailableError as exc:
                if ctx is not None and ctx.partial_results:
                    ctx.record_skip(self.name, region.region_id,
                                    region.server, str(exc))
                    continue
                raise
            server = region.server if replica is None \
                else replica.server
            cache = self._store.cache_for(server)
            region.record_read()
            before = self._stats.snapshot() if profile is not None \
                else None
            region_rows = 0
            try:
                for key, value in region.scan(start, stop, cache, ctx,
                                              replica=replica):
                    self._stats.record_result(len(key) + len(value))
                    region_rows += 1
                    yield key, value
            finally:
                if profile is not None:
                    self._record_region_span(profile, region, before,
                                             region_rows)

    def _scan_span_batches(self, start: bytes, stop: bytes | None,
                           ctx=None,
                           batch_rows: int = DEFAULT_BATCH_ROWS):
        """Batched :meth:`_scan_span`: lists of pairs, region by region.

        Result-byte accounting is summed once per batch instead of once
        per row — the totals are identical, the bookkeeping is not on
        the per-record hot path anymore.
        """
        profile = getattr(ctx, "profile", None) if ctx is not None \
            else None
        for region in self._regions_overlapping(start, stop):
            if ctx is not None:
                ctx.check(f"scan of {self.name!r}")
            try:
                replica = self._store.route_read(self.name, region,
                                                 "scan", ctx)
            except RegionUnavailableError as exc:
                if ctx is not None and ctx.partial_results:
                    ctx.record_skip(self.name, region.region_id,
                                    region.server, str(exc))
                    continue
                raise
            server = region.server if replica is None \
                else replica.server
            cache = self._store.cache_for(server)
            region.record_read()
            before = self._stats.snapshot() if profile is not None \
                else None
            region_rows = 0
            try:
                for batch in region.scan_batches(start, stop, cache, ctx,
                                                 replica=replica,
                                                 batch_rows=batch_rows):
                    self._stats.record_result(
                        sum(len(key) + len(value)
                            for key, value in batch))
                    region_rows += len(batch)
                    yield batch
            finally:
                if profile is not None:
                    self._record_region_span(profile, region, before,
                                             region_rows)

    def _record_region_span(self, profile, region, before,
                            region_rows: int) -> None:
        """Merge one region visit into the trace's per-region scan span.

        An index query scans many key ranges, each visiting the same
        regions; one span per (table, region) under the current operator
        keeps the trace readable — counts accumulate across ranges.
        """
        delta = self._stats.snapshot().delta(before)
        span = None
        for child in profile.current.children:
            if child.kind == "region_scan" and \
                    child.attrs.get("table") == self.name and \
                    child.attrs.get("region") == region.region_id:
                span = child
                break
        if span is None:
            span = profile.add_event(
                f"RegionScan[{self.name} r{region.region_id} "
                f"s{region.server}]",
                kind="region_scan", table=self.name,
                region=region.region_id, server=region.server,
                rows=0, blocks_read=0, cache_hits=0, disk_bytes_read=0,
                ranges=0)
        span.attrs["rows"] += region_rows
        span.attrs["blocks_read"] += delta.blocks_read
        span.attrs["cache_hits"] += delta.cache_hits
        span.attrs["disk_bytes_read"] += delta.disk_bytes_read
        span.attrs["ranges"] += 1
        model = self._store.cost_model
        if model is not None:
            span.sim_ms += (
                model.disk_read_ms(delta.disk_bytes_read)
                + model.memory_scan_ms(delta.cache_bytes_read
                                       + delta.memstore_bytes_read))

    def flush(self) -> None:
        """Flush every region's memstore (used before size measurements)."""
        for region in self._regions:
            region.flush()

    def compact(self) -> None:
        for region in self._regions:
            region.compact()

    # -- splitting -----------------------------------------------------------
    def _split(self, region: Region) -> None:
        entries = region.all_entries()
        if len(entries) < 2:
            return
        mid = len(entries) // 2
        split_key = entries[mid][0]
        if split_key <= region.start_key:
            return
        left_server = region.server
        right_server = self._store.next_server()
        left = Region(region.start_key, split_key, self._stats,
                      server=left_server,
                      flush_bytes=self._store.flush_bytes,
                      block_bytes=self._store.block_bytes,
                      wal=self._store.wal_for(left_server),
                      cache_lookup=self._store.cache_for,
                      events=self._store.events, table=self.name)
        right = Region(split_key, region.end_key, self._stats,
                       server=right_server,
                       flush_bytes=self._store.flush_bytes,
                       block_bytes=self._store.block_bytes,
                       wal=self._store.wal_for(right_server),
                       cache_lookup=self._store.cache_for,
                       events=self._store.events, table=self.name)
        # An HBase split creates reference files rather than rewriting
        # data, so the daughters' SSTables are built without write charges.
        left.sstables = [SSTable(entries[:mid], self._stats,
                                 self._store.block_bytes,
                                 charge_write=False)]
        right.sstables = [SSTable(entries[mid:], self._stats,
                                  self._store.block_bytes,
                                  charge_write=False)]
        # Every parent entry (memstore included) is now persisted in the
        # daughters' SSTables, so the parent's log records are obsolete —
        # and so are its SSTables' cached blocks (on every replica
        # server).
        region.evict_cached_blocks()
        if region.wal is not None:
            region.wal.retire_region(region.region_id)
        self._store.region_retired(region)
        self._store.region_created(left)
        self._store.region_created(right)
        index = self._regions.index(region)
        self._regions[index:index + 1] = [left, right]
        self._region_starts = [r.start_key for r in self._regions]
        self._store.events.emit(SplitEvent(
            table=self.name, region_id=region.region_id,
            server=region.server, left_region_id=left.region_id,
            right_region_id=right.region_id,
            split_key=split_key.hex()))

    def split_region(self, region: Region) -> bool:
        """Split one region now (the balancer's load-triggered split).

        Same mechanics as a size-triggered split; returns False when the
        region is too small or too narrow to split.
        """
        if region not in self._regions:
            raise ValueError(f"region {region.region_id} is not part of "
                             f"table {self.name!r}")
        before = len(self._regions)
        self._split(region)
        return len(self._regions) > before

    # -- merging -------------------------------------------------------------
    def merge_regions(self, left: Region, right: Region) -> Region:
        """Merge two adjacent regions into one hosted on ``left``'s server.

        The HBase ``merge_region`` analogue for cold neighbours: both
        parents' live entries land in one reference SSTable (no write
        charge, like a split), both parents' cached blocks are dropped,
        and both parents' WAL records are retired — every entry is
        persisted in the merged region's SSTable, so nothing needs
        replay on their behalf.
        """
        index = self._regions.index(left)
        if index + 1 >= len(self._regions) \
                or self._regions[index + 1] is not right:
            raise ValueError(
                f"regions {left.region_id} and {right.region_id} are "
                f"not adjacent in table {self.name!r}")
        entries = left.all_entries() + right.all_entries()
        merged = Region(left.start_key, right.end_key, self._stats,
                        server=left.server,
                        flush_bytes=self._store.flush_bytes,
                        block_bytes=self._store.block_bytes,
                        wal=self._store.wal_for(left.server),
                        cache_lookup=self._store.cache_for,
                        events=self._store.events, table=self.name)
        if entries:
            merged.sstables = [SSTable(entries, self._stats,
                                       self._store.block_bytes,
                                       charge_write=False)]
        for parent in (left, right):
            parent.evict_cached_blocks()
            if parent.wal is not None:
                parent.wal.retire_region(parent.region_id)
            self._store.region_retired(parent)
        self._store.region_created(merged)
        self._regions[index:index + 2] = [merged]
        self._region_starts = [r.start_key for r in self._regions]
        self._store.events.emit(RegionMergedEvent(
            table=self.name, region_id=merged.region_id,
            server=merged.server, left_region_id=left.region_id,
            right_region_id=right.region_id,
            bytes_after=merged.disk_bytes))
        return merged

    # -- introspection ---------------------------------------------------------
    @property
    def num_regions(self) -> int:
        return len(self._regions)

    @property
    def disk_bytes(self) -> int:
        """Bytes persisted in SSTables (index keys plus values)."""
        return sum(r.disk_bytes for r in self._regions)

    @property
    def total_bytes(self) -> int:
        return sum(r.total_bytes for r in self._regions)

    def count(self) -> int:
        """Number of live entries (full scan, charges I/O)."""
        return sum(1 for _ in self.scan(ScanSpec.full()))

    def servers_used(self) -> set[int]:
        return {r.server for r in self._regions}


class KVStore:
    """The store facade: named tables on ``num_servers`` region servers.

    ``wal_policy=None`` (the default) runs without durability, exactly as
    before; passing a :class:`~repro.kvstore.wal.SyncPolicy` gives every
    region server a write-ahead log and enables crash recovery via
    :meth:`crash_server` / :meth:`failover`.
    """

    def __init__(self, num_servers: int = 5,
                 cache_bytes_per_server: int = 64 * 1024 * 1024,
                 flush_bytes: int = DEFAULT_FLUSH_BYTES,
                 split_bytes: int = DEFAULT_SPLIT_BYTES,
                 block_bytes: int = DEFAULT_BLOCK_BYTES,
                 wal_policy: SyncPolicy | None = None,
                 wal_periodic_bytes: int = DEFAULT_PERIODIC_BYTES,
                 cost_model=None,
                 fault_injector=None,
                 metrics=None,
                 events=None,
                 replication_factor: int = 1,
                 read_mode="primary"):
        self.num_servers = num_servers
        self.flush_bytes = flush_bytes
        self.split_bytes = split_bytes
        self.block_bytes = block_bytes
        self.stats = IOStats()
        #: Registry for the histograms store components observe; their
        #: counters are read from ``stats`` (see :meth:`metric_series`).
        self.metrics = metrics
        #: Cluster event log; always present so regions, recovery, and
        #: the service layer can emit unconditionally.
        self.events = events if events is not None else EventLog()
        self.wal_policy = wal_policy
        self.cost_model = cost_model
        self.fault_injector = fault_injector
        self._wals: list[WriteAheadLog] | None = None
        if wal_policy is not None:
            self._wals = [WriteAheadLog(s, self.stats, wal_policy,
                                        wal_periodic_bytes)
                          for s in range(num_servers)]
        self.dead_servers: set[int] = set()
        #: Crashed servers whose failover has not run yet; their regions
        #: raise RegionUnavailableError until :meth:`failover` completes.
        self.recovering_servers: set[int] = set()
        self._pending_crashes: dict[int, tuple[list, int]] = {}
        self.recovery_log: list[RecoveryReport] = []
        self._tables: dict[str, KVTable] = {}
        self._caches = [BlockCache(cache_bytes_per_server)
                        for _ in range(num_servers)]
        self._server_cursor = 0
        #: :class:`~repro.replication.manager.ReplicationManager` once
        #: region replication is on; ``None`` runs single-copy.
        self.replication = None
        if replication_factor > 1:
            self.enable_replication(replication_factor, read_mode)

    def next_server(self) -> int:
        """Round-robin region placement across the placeable servers.

        Recovering servers are skipped too: a region placed on a
        crashed-but-not-yet-failed-over server would be born
        unavailable (every access raises RegionUnavailableError until
        its failover completes, which never covers the new region).
        """
        for _ in range(self.num_servers):
            server = self._server_cursor
            self._server_cursor = (self._server_cursor + 1) % self.num_servers
            if server not in self.dead_servers \
                    and server not in self.recovering_servers:
                return server
        raise RuntimeError("no surviving region servers")

    @property
    def alive_servers(self) -> list[int]:
        return [s for s in range(self.num_servers)
                if s not in self.dead_servers]

    @property
    def placeable_servers(self) -> list[int]:
        """Servers that can host regions right now (alive, recovered)."""
        return [s for s in self.alive_servers
                if s not in self.recovering_servers]

    def cache_for(self, server: int) -> BlockCache:
        return self._caches[server]

    def wal_for(self, server: int) -> WriteAheadLog | None:
        if self._wals is None:
            return None
        return self._wals[server]

    def clear_caches(self) -> None:
        """Drop every block cache (benchmarks do this between queries)."""
        for cache in self._caches:
            cache.clear()

    def metric_series(self):
        """``kvstore.*`` (and ``replication.*``) registry series; the
        cache hit ratio is derived from ``stats`` at every read."""
        stats = self.stats
        for name in COUNTERS:
            yield collected(Counter, f"kvstore.{name}", getattr(stats, name))
        touched = stats.cache_hits + stats.blocks_read
        yield collected(Gauge, "kvstore.cache_hit_ratio",
                        stats.cache_hits / touched if touched else 0.0)
        yield collected(Gauge, "kvstore.cache_used_bytes",
                        sum(cache.used_bytes for cache in self._caches))
        if self.replication is not None:
            yield from self.replication.metric_series()

    # -- replication -----------------------------------------------------------
    def enable_replication(self, factor: int = 3, read_mode="primary",
                           **kwargs) -> "object":
        """Turn on region replication (requires a WAL policy).

        Every existing and future region gets ``factor - 1`` follower
        replicas on distinct servers; see
        :class:`~repro.replication.manager.ReplicationManager`.
        ``read_mode`` sets the default serving mode for reads
        (``primary`` / ``follower`` / ``hedged``); ``kwargs`` pass
        through to the manager (``interval_ms``, ``hedge_ms``, ...).
        """
        from repro.replication.manager import ReplicationManager
        if self.replication is not None:
            return self.replication
        self.replication = ReplicationManager(self, factor=factor,
                                              read_mode=read_mode,
                                              **kwargs)
        for table in self.tables():
            for region in table.regions():
                self.replication.attach_region(region)
        return self.replication

    def region_created(self, region: Region) -> None:
        """A region came into existence (create/presplit/split/merge)."""
        if self.replication is not None:
            self.replication.attach_region(region)

    def region_retired(self, region: Region) -> None:
        """A region ceased to exist (split parent, merge parent, drop)."""
        if self.replication is not None:
            self.replication.detach_region(region)

    def replicate_append(self, region: Region, table: str, key: bytes,
                         value: bytes | None,
                         seqno: int | None) -> None:
        """Ship one primary WAL append to the region's followers."""
        if self.replication is not None:
            self.replication.on_append(region, table, key, value, seqno)

    def route_read(self, table: str, region: Region, op: str,
                   ctx=None):
        """Pick the replica serving one read; ``None`` means primary.

        Without replication this is exactly :meth:`check_available`;
        with it, follower/hedged modes may return a
        :class:`~repro.replication.replica.FollowerReplica` to serve
        from instead.
        """
        if self.replication is None:
            self.check_available(table, region, op, ctx)
            return None
        return self.replication.route_read(table, region, op, ctx)

    def replica_servers(self, region: Region) -> set[int]:
        """Servers hosting any replica of ``region`` (primary included).

        The balancer planner consults this for anti-affinity: moving a
        primary onto a follower's server would co-locate two copies.
        """
        servers = {region.server}
        if self.replication is not None:
            servers.update(
                self.replication.follower_servers(region.region_id))
        return servers

    # -- durability and fault tolerance ----------------------------------------
    def tick_faults(self, op: str) -> None:
        if self.fault_injector is not None:
            self.fault_injector.on_op(self, op)

    def wal_append(self, region: Region, table: str, key: bytes,
                   value: bytes | None) -> int | None:
        wal = self.wal_for(region.server)
        if wal is None:
            return None
        return wal.append(table, region.region_id, key, value)

    def check_available(self, table: str, region: Region,
                        op: str = "scan", ctx=None) -> None:
        """Gate one region access: crash-recovery windows and gray faults.

        A region on a crashed-but-not-failed-over server raises
        :class:`RegionUnavailableError`; an attached fault injector may
        additionally charge gray-failure latency to ``ctx`` or raise an
        intermittent per-op error for regions on gray-failing servers.
        """
        if region.server in self.recovering_servers:
            raise RegionUnavailableError(table, region.region_id,
                                         region.server)
        if self.events.now_ms < region.unavailable_until_ms:
            # Mid-move: offline while it reopens on the destination.
            raise RegionUnavailableError(table, region.region_id,
                                         region.server)
        if self.fault_injector is not None:
            self.fault_injector.on_region_op(self, table, region, op,
                                             ctx)

    def sync_wals(self) -> None:
        """Force-sync every server's log (an explicit durability barrier)."""
        if self._wals is not None:
            for wal in self._wals:
                wal.sync()

    def crash_server(self, server: int, lost_tail_records: int = 0,
                     defer_failover: bool = False) -> RecoveryReport | None:
        """Kill one region server.

        Its block cache is invalidated, its memstores are gone, and its
        WAL loses the unsynced tail (plus ``lost_tail_records`` synced
        records when simulating torn-tail/delayed-write corruption).
        Unless ``defer_failover`` is set, regions are immediately failed
        over to the survivors; otherwise they stay unavailable — raising
        :class:`RegionUnavailableError` — until :meth:`failover` runs.
        """
        if not 0 <= server < self.num_servers:
            raise ValueError(f"no such server: {server}")
        if server in self.dead_servers:
            raise ValueError(f"server {server} is already dead")
        if len(self.alive_servers) <= 1:
            raise ValueError("cannot crash the last surviving server")
        self.dead_servers.add(server)
        self.recovering_servers.add(server)
        self._caches[server].clear()
        records: list = []
        discarded = 0
        wal = self.wal_for(server)
        if wal is not None:
            records, discarded = wal.crash(lost_tail_records)
        else:
            # No WAL: every unflushed edit on the server is simply gone.
            for table in self._tables.values():
                for region in table._regions:
                    if region.server == server:
                        discarded += len(region.memstore)
        self._pending_crashes[server] = (records, discarded)
        if defer_failover:
            return None
        return self.failover(server)

    def failover(self, server: int) -> RecoveryReport:
        """Recover a dead server's regions.

        Without replication every region is reassigned and its WAL
        replayed; with replication, regions whose primary lived here
        are *promoted* onto their most-caught-up follower and only the
        promotion catch-up is replayed.  Either way the dead server's
        block cache is invalidated eagerly (idempotent after
        :meth:`crash_server`'s wholesale clear) so no stale entries of
        moved-away regions outlive the failover.
        """
        if server not in self._pending_crashes:
            raise ValueError(f"server {server} has no pending recovery")
        records, discarded = self._pending_crashes.pop(server)
        self._caches[server].clear()
        if self.replication is not None:
            report = self.replication.failover(server, records,
                                               discarded)
        else:
            report = recover_server(self, server, records, discarded,
                                    model=self.cost_model)
        self.recovering_servers.discard(server)
        self.recovery_log.append(report)
        return report

    @property
    def last_recovery(self) -> RecoveryReport | None:
        return self.recovery_log[-1] if self.recovery_log else None

    # -- elastic placement ------------------------------------------------------
    def move_region(self, region: Region, dest: int) -> float:
        """Move one region to ``dest`` (the balancer's act primitive).

        HBase ``move_region`` semantics in miniature: the memstore is
        flushed so the source WAL can be checkpointed up to the
        region's high watermark (its records are all persisted — a
        later crash of the source replays nothing for it), the source
        server's cached blocks for the region are invalidated, and the
        region reopens cold on ``dest`` with that server's WAL and a
        reset seqno watermark (sequence numbers are per-server; the
        same rule failover applies).  The region is unavailable for the
        simulated duration of the move — reads/writes raise
        :class:`RegionUnavailableError` until the clock passes it.
        Returns the simulated move time in ms.
        """
        source = region.server
        if dest == source:
            raise ValueError(f"region {region.region_id} is already on "
                             f"server {dest}")
        if not 0 <= dest < self.num_servers:
            raise ValueError(f"no such server: {dest}")
        if dest in self.dead_servers or dest in self.recovering_servers:
            raise ValueError(f"server {dest} cannot host regions now")
        before = self.stats.snapshot()
        region.flush()
        if region.wal is not None:
            # The flush checkpointed up to max_seqno; make it explicit
            # for the no-new-edits case so the source log holds nothing
            # of this region either way.
            region.wal.checkpoint(region.region_id, region.max_seqno)
        flushed = self.stats.snapshot().delta(before)
        # Source cache only: follower servers (if any) keep serving the
        # same shared SSTables, so their cached blocks stay valid.
        region.evict_cached_blocks(server=source)
        region.server = dest
        region.wal = self.wal_for(dest)
        region.max_seqno = 0
        region.evict_cached_blocks(server=dest)  # destination opens cold
        if self.replication is not None:
            self.replication.on_primary_moved(region, source, dest)
        model = self.cost_model
        if model is None:
            from repro.cluster.simclock import CostModel
            model = CostModel()
        move_ms = (model.region_reopen_ms
                   + model.disk_write_ms(flushed.disk_bytes_written))
        region.unavailable_until_ms = self.events.now_ms + move_ms
        self.events.emit(RegionMovedEvent(
            table=region.table, region_id=region.region_id,
            server=dest, from_server=source,
            bytes_moved=region.disk_bytes, move_ms=round(move_ms, 3)))
        return move_ms

    # -- table management ------------------------------------------------------
    def create_table(self, name: str, presplit: int = 0,
                     salt_buckets: int = 0) -> KVTable:
        if name in self._tables:
            raise TableExistsError(name)
        table = KVTable(name, self, presplit=presplit,
                        salt_buckets=salt_buckets)
        self._tables[name] = table
        return table

    def table(self, name: str) -> KVTable:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise TableNotFoundError(name)
        for region in self._tables[name]._regions:
            region.evict_cached_blocks()
            if region.wal is not None:
                region.wal.retire_region(region.region_id)
            self.region_retired(region)
        del self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def tables(self) -> list[KVTable]:
        return list(self._tables.values())
