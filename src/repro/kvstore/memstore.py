"""The in-memory write buffer of a region."""

from __future__ import annotations

from bisect import bisect_left, insort

#: Sentinel value marking a deleted key until compaction discards it.
TOMBSTONE = None


class MemStore:
    """Sorted in-memory key-value buffer.

    Writes are absorbed here and flushed to an SSTable once
    ``size_bytes`` crosses the region's flush threshold.  Deletions are
    tombstones so they can mask older SSTable entries during merges.
    """

    def __init__(self) -> None:
        self._data: dict[bytes, bytes | None] = {}
        #: Every key (tombstones included), sorted.
        self.keys: list[bytes] = []
        self.size_bytes = 0

    def put(self, key: bytes, value: bytes | None) -> None:
        """Insert or overwrite ``key``; ``None`` writes a tombstone."""
        if key in self._data:
            old = self._data[key]
            self.size_bytes -= len(key) + (len(old) if old is not None else 0)
        else:
            insort(self.keys, key)
        self._data[key] = value
        self.size_bytes += len(key) + (len(value) if value is not None else 0)

    def get(self, key: bytes) -> tuple[bool, bytes | None]:
        """``(found, value)``; found tombstones return ``(True, None)``."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def entries(self, i: int, j: int):
        """Yield ``(key, value_or_tombstone)`` for key indexes [i, j)."""
        keys = self.keys
        data = self._data
        for n in range(i, j):
            key = keys[n]
            yield key, data[key]

    def scan(self, start: bytes, stop: bytes | None):
        """Yield ``(key, value_or_tombstone)`` for keys in [start, stop);
        ``stop=None`` is unbounded above."""
        lo = bisect_left(self.keys, start)
        hi = len(self.keys) if stop is None \
            else bisect_left(self.keys, stop, lo)
        return self.entries(lo, hi)

    def items_sorted(self):
        """All entries in key order (used by flush)."""
        for key in self.keys:
            yield key, self._data[key]

    def clear(self) -> None:
        self._data.clear()
        self.keys.clear()
        self.size_bytes = 0

    def __len__(self) -> int:
        return len(self._data)
