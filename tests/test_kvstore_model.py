"""Model-based testing: the KV store vs a plain dict reference model.

Random interleavings of put/delete/flush/compact/scan must behave exactly
like a sorted dict, across memstore/SSTable boundaries and region splits,
on a plain, a pre-split and two salted tables.  A multi-range scan must also
match one scan per range in everything it counts.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.kvstore import KVStore, ScanSpec

keys = st.binary(min_size=1, max_size=6)
values = st.binary(min_size=0, max_size=40)


def region_reads(table) -> dict[int, int]:
    return {r.region_id: r.reads for r in table.regions()}


class KVStoreMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        # Tiny thresholds force frequent flushes and region splits.
        self.store = KVStore(num_servers=3, flush_bytes=512,
                             split_bytes=2048, block_bytes=128)
        self.tables = [
            self.store.create_table("plain"),
            self.store.create_table("presplit", presplit=4),
            self.store.create_table("salted", presplit=3, salt_buckets=3),
            # Every bucket starts in one region.
            self.store.create_table("salted_together", salt_buckets=4),
        ]
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        for table in self.tables:
            table.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        for table in self.tables:
            table.delete(key)
        self.model.pop(key, None)

    @rule()
    def flush(self):
        for table in self.tables:
            table.flush()

    @rule()
    def compact(self):
        for table in self.tables:
            table.compact()

    @rule(key=keys)
    def get_matches_model(self, key):
        for table in self.tables:
            assert table.get(key) == self.model.get(key)

    @rule(lo=keys, hi=keys)
    def scan_matches_model(self, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        expected = sorted((k, v) for k, v in self.model.items()
                          if lo <= k <= hi)
        for table in self.tables:
            assert list(table.scan(ScanSpec(lo, hi))) == expected

    @rule(bounds=st.lists(keys, min_size=2, max_size=9),
          picks=st.lists(st.booleans(), min_size=8, max_size=8),
          open_end=st.booleans())
    def multi_scan_matches_model_and_per_range_scans(self, bounds, picks,
                                                     open_end):
        # Ascending, non-overlapping ranges between consecutive bounds;
        # consecutive picks make adjacent ranges.
        bounds = sorted(set(bounds))
        spans = [(lo, hi) for (lo, hi), pick
                 in zip(zip(bounds, bounds[1:]), picks) if pick]
        if open_end:
            spans.append((bounds[-1] + b"\x00", None))
        expected = sorted(
            (k, v) for k, v in self.model.items()
            if any(lo <= k and (hi is None or k < hi) for lo, hi in spans))
        stats = self.store.stats
        for table in self.tables:
            self.store.clear_caches()
            io_before, reads_before = stats.snapshot(), region_reads(table)
            got = list(table.scan(ScanSpec.multi(spans)))
            io_multi = stats.snapshot().delta(io_before)
            reads_multi = {r: n - reads_before.get(r, 0)
                           for r, n in region_reads(table).items()}

            self.store.clear_caches()
            io_before, reads_before = stats.snapshot(), region_reads(table)
            one_by_one = []
            for lo, hi in spans:
                one_by_one += table.scan(
                    ScanSpec(lo, hi, end_exclusive=True))
            io_single = stats.snapshot().delta(io_before)
            reads_single = {r: n - reads_before.get(r, 0)
                            for r, n in region_reads(table).items()}

            assert got == expected
            assert got == one_by_one
            assert io_multi == io_single
            assert reads_multi == reads_single
            batched = [pair for batch in table.scan_batches(
                ScanSpec.multi(spans), batch_rows=3) for pair in batch]
            assert batched == expected

    @invariant()
    def full_scan_matches_model(self):
        for table in self.tables:
            assert list(table.scan(ScanSpec.full())) == \
                sorted(self.model.items())


TestKVStoreModel = KVStoreMachine.TestCase
TestKVStoreModel.settings = settings(max_examples=25,
                                     stateful_step_count=30,
                                     deadline=None)
