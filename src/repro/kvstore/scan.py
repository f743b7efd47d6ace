"""Scan specifications for the key-value store."""

from __future__ import annotations

from dataclasses import dataclass

#: Entries per batch on the batched scan path.  Matches the dataframe
#: layer's row-batch size so one KV batch decodes into one RowBatch.
DEFAULT_BATCH_ROWS = 256


def chunk_pairs(pairs, batch_rows: int = DEFAULT_BATCH_ROWS):
    """Group a ``(key, value)`` stream into lists of ``batch_rows``.

    The source generator is pulled lazily, one batch ahead of the
    consumer, so deadline checks and lazy block charges inside the
    stream keep their granularity.
    """
    batch: list = []
    for pair in pairs:
        batch.append(pair)
        if len(batch) >= batch_rows:
            yield batch
            batch = []
    if batch:
        yield batch


def prefix_successor(prefix: bytes) -> bytes | None:
    """The smallest byte string greater than every key with ``prefix``.

    Trailing ``0xff`` bytes cannot be incremented, so they are stripped
    first; a prefix that is empty or all ``0xff`` has no successor
    (every key sorts below no finite bound) and returns ``None``.
    """
    trimmed = prefix.rstrip(b"\xff")
    if not trimmed:
        return None
    return trimmed[:-1] + bytes([trimmed[-1] + 1])


@dataclass(frozen=True, slots=True)
class ScanSpec:
    """An inclusive key-range scan request.

    ``end=None`` means unbounded above, so the default spec covers a
    whole table whatever its key lengths.  ``limit`` stops the scan after
    that many live entries.  When ``end_exclusive`` is set the range is
    ``[start, end)`` instead, which lets prefix scans use an exact
    successor-of-prefix upper bound.

    ``ranges`` (built by :meth:`multi`) replaces ``start``/``end`` with
    a list of half-open ``(start, stop)`` ranges in ascending key order
    that do not overlap — HBase's ``MultiRowRangeFilter``.  The store
    serves them all in one pass.
    """

    start: bytes = b""
    end: bytes | None = None
    limit: int | None = None
    end_exclusive: bool = False
    ranges: tuple[tuple[bytes, bytes | None], ...] | None = None

    @classmethod
    def full(cls) -> "ScanSpec":
        return cls()

    @classmethod
    def multi(cls, ranges, limit: int | None = None) -> "ScanSpec":
        """Scan several half-open ``(start, stop)`` ranges in one pass.

        ``stop=None`` is unbounded above.  Non-empty ranges must be in
        ascending key order and must not overlap (adjacent is fine);
        empty ones (``stop <= start``) may sit anywhere and return
        nothing.
        """
        ranges = tuple(ranges)
        previous: bytes | None = b""
        for start, stop in ranges:
            if stop is not None and stop <= start:
                continue
            if previous is None or start < previous:
                raise ValueError(
                    f"scan ranges overlap or are out of order at "
                    f"{start!r}")
            previous = stop
        return cls(limit=limit, ranges=ranges)

    @classmethod
    def prefix(cls, prefix: bytes) -> "ScanSpec":
        """Scan every key beginning with ``prefix``, whatever its length."""
        successor = prefix_successor(prefix)
        if successor is None:
            # No finite upper bound exists; scan to the end of the table.
            return cls(prefix, None)
        return cls(prefix, successor, end_exclusive=True)

    @property
    def stop(self) -> bytes | None:
        """The exclusive upper bound equivalent to this spec's range;
        ``None`` is unbounded above."""
        if self.end is None:
            return None
        return self.end if self.end_exclusive else self.end + b"\x00"

    def spans(self) -> tuple[tuple[bytes, bytes | None], ...]:
        """Every half-open ``(start, stop)`` range this spec covers."""
        if self.ranges is not None:
            return self.ranges
        return ((self.start, self.stop),)
