"""I/O accounting for the simulated store."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class IOSnapshot:
    """An immutable copy of the counters at one instant."""

    disk_bytes_read: int = 0
    disk_bytes_written: int = 0
    cache_bytes_read: int = 0
    memstore_bytes_read: int = 0
    result_bytes: int = 0
    scans_started: int = 0
    blocks_read: int = 0
    cache_hits: int = 0
    wal_bytes_written: int = 0
    wal_appends: int = 0
    wal_syncs: int = 0
    wal_bytes_replayed: int = 0
    per_server_read: dict[int, int] = field(default_factory=dict)
    #: WAL bytes (appends + replay reads) attributed to each server, so
    #: recovery benchmarks can see which log a crash actually drained.
    per_server_wal: dict[int, int] = field(default_factory=dict)

    def delta(self, earlier: "IOSnapshot") -> "IOSnapshot":
        """Counter increments between ``earlier`` and this snapshot."""
        per_server = defaultdict(int)
        for server, value in self.per_server_read.items():
            per_server[server] = value - earlier.per_server_read.get(server, 0)
        per_server_wal = defaultdict(int)
        for server, value in self.per_server_wal.items():
            per_server_wal[server] = \
                value - earlier.per_server_wal.get(server, 0)
        return IOSnapshot(
            disk_bytes_read=self.disk_bytes_read - earlier.disk_bytes_read,
            disk_bytes_written=(self.disk_bytes_written
                                - earlier.disk_bytes_written),
            cache_bytes_read=self.cache_bytes_read - earlier.cache_bytes_read,
            memstore_bytes_read=(self.memstore_bytes_read
                                 - earlier.memstore_bytes_read),
            result_bytes=self.result_bytes - earlier.result_bytes,
            scans_started=self.scans_started - earlier.scans_started,
            blocks_read=self.blocks_read - earlier.blocks_read,
            cache_hits=self.cache_hits - earlier.cache_hits,
            wal_bytes_written=(self.wal_bytes_written
                               - earlier.wal_bytes_written),
            wal_appends=self.wal_appends - earlier.wal_appends,
            wal_syncs=self.wal_syncs - earlier.wal_syncs,
            wal_bytes_replayed=(self.wal_bytes_replayed
                                - earlier.wal_bytes_replayed),
            per_server_read=dict(per_server),
            per_server_wal=dict(per_server_wal),
        )


#: IOStats' scalar counters, also exposed as the ``kvstore.*`` series.
COUNTERS = tuple(name for name in IOSnapshot.__dataclass_fields__
                 if not name.startswith("per_server_"))


class IOStats:
    """Mutable counters shared by every component of one store.

    These are the store's only I/O counters: the metrics registry reads
    them as ``kvstore.*`` series (:meth:`KVStore.metric_series`) instead
    of receiving a copy of each increment.
    """

    def __init__(self) -> None:
        self.disk_bytes_read = 0
        self.disk_bytes_written = 0
        self.cache_bytes_read = 0
        self.memstore_bytes_read = 0
        self.result_bytes = 0
        self.scans_started = 0
        self.blocks_read = 0
        self.cache_hits = 0
        self.wal_bytes_written = 0
        self.wal_appends = 0
        self.wal_syncs = 0
        self.wal_bytes_replayed = 0
        self.per_server_read: dict[int, int] = defaultdict(int)
        #: WAL bytes (appends + replay reads) per region server.
        self.per_server_wal: dict[int, int] = defaultdict(int)

    def record_disk_read(self, nbytes: int, server: int = 0) -> None:
        self.disk_bytes_read += nbytes
        self.blocks_read += 1
        self.per_server_read[server] += nbytes

    def record_cache_read(self, nbytes: int) -> None:
        self.cache_bytes_read += nbytes
        self.cache_hits += 1

    def record_disk_write(self, nbytes: int) -> None:
        self.disk_bytes_written += nbytes

    def record_memstore_read(self, nbytes: int) -> None:
        self.memstore_bytes_read += nbytes

    def record_result(self, nbytes: int) -> None:
        self.result_bytes += nbytes

    def record_scan(self) -> None:
        self.scans_started += 1

    def record_wal_append(self, nbytes: int, server: int = 0) -> None:
        self.wal_bytes_written += nbytes
        self.wal_appends += 1
        self.per_server_wal[server] += nbytes

    def record_wal_sync(self) -> None:
        self.wal_syncs += 1

    def record_wal_replay(self, nbytes: int, server: int = 0) -> None:
        self.wal_bytes_replayed += nbytes
        self.per_server_wal[server] += nbytes

    def snapshot(self) -> IOSnapshot:
        return IOSnapshot(
            disk_bytes_read=self.disk_bytes_read,
            disk_bytes_written=self.disk_bytes_written,
            cache_bytes_read=self.cache_bytes_read,
            memstore_bytes_read=self.memstore_bytes_read,
            result_bytes=self.result_bytes,
            scans_started=self.scans_started,
            blocks_read=self.blocks_read,
            cache_hits=self.cache_hits,
            wal_bytes_written=self.wal_bytes_written,
            wal_appends=self.wal_appends,
            wal_syncs=self.wal_syncs,
            wal_bytes_replayed=self.wal_bytes_replayed,
            per_server_read=dict(self.per_server_read),
            per_server_wal=dict(self.per_server_wal),
        )
