"""Region/table/store behaviour: routing, splits, merge semantics."""

import pytest

from repro.errors import TableExistsError, TableNotFoundError
from repro.kvstore import KVStore, ScanSpec
from repro.kvstore.scan import prefix_successor


def small_store(**kwargs):
    defaults = dict(num_servers=3, flush_bytes=4 * 1024,
                    split_bytes=32 * 1024, block_bytes=1024)
    defaults.update(kwargs)
    return KVStore(**defaults)


class TestTableManagement:
    def test_create_get_drop(self):
        store = small_store()
        store.create_table("t")
        assert store.has_table("t")
        store.drop_table("t")
        assert not store.has_table("t")

    def test_duplicate_create_raises(self):
        store = small_store()
        store.create_table("t")
        with pytest.raises(TableExistsError):
            store.create_table("t")

    def test_missing_table_raises(self):
        store = small_store()
        with pytest.raises(TableNotFoundError):
            store.table("nope")
        with pytest.raises(TableNotFoundError):
            store.drop_table("nope")

    def test_table_names_sorted(self):
        store = small_store()
        for name in ("zeta", "alpha", "mid"):
            store.create_table(name)
        assert store.table_names() == ["alpha", "mid", "zeta"]


class TestReadWrite:
    def test_put_get_delete(self):
        table = small_store().create_table("t")
        table.put(b"k1", b"v1")
        assert table.get(b"k1") == b"v1"
        table.delete(b"k1")
        assert table.get(b"k1") is None

    def test_overwrite(self):
        table = small_store().create_table("t")
        table.put(b"k", b"old")
        table.put(b"k", b"new")
        assert table.get(b"k") == b"new"

    def test_scan_is_sorted_and_inclusive(self):
        table = small_store().create_table("t")
        import random
        keys = [f"{i:04d}".encode() for i in range(200)]
        shuffled = keys[:]
        random.Random(5).shuffle(shuffled)
        for key in shuffled:
            table.put(key, key)
        got = [k for k, _ in table.scan(ScanSpec(b"0050", b"0059"))]
        assert got == keys[50:60]

    def test_scan_limit(self):
        table = small_store().create_table("t")
        for i in range(50):
            table.put(f"{i:03d}".encode(), b"v")
        got = list(table.scan(ScanSpec(b"", b"\xff", limit=7)))
        assert len(got) == 7

    def test_deleted_keys_not_scanned(self):
        table = small_store().create_table("t")
        for i in range(20):
            table.put(f"{i:03d}".encode(), b"v")
        table.delete(b"010")
        table.flush()
        keys = [k for k, _ in table.scan(ScanSpec.full())]
        assert b"010" not in keys
        assert len(keys) == 19

    def test_delete_survives_flush_ordering(self):
        # Value flushed to an SSTable, tombstone in the memstore.
        table = small_store().create_table("t")
        table.put(b"k", b"v")
        table.flush()
        table.delete(b"k")
        assert table.get(b"k") is None
        assert [k for k, _ in table.scan(ScanSpec.full())] == []

    def test_update_across_runs_newest_wins(self):
        table = small_store().create_table("t")
        table.put(b"k", b"one")
        table.flush()
        table.put(b"k", b"two")
        table.flush()
        assert table.get(b"k") == b"two"
        values = [v for _, v in table.scan(ScanSpec.full())]
        assert values == [b"two"]


class TestPrefixScan:
    def test_prefix_successor_bound(self):
        assert prefix_successor(b"ab") == b"ac"
        assert prefix_successor(b"a\xff") == b"b"
        assert prefix_successor(b"a\xff\xff") == b"b"
        assert prefix_successor(b"\xff\xff") is None
        assert prefix_successor(b"") is None

    def test_prefix_includes_keys_longer_than_16_bytes_past_prefix(self):
        # Regression: the old end bound (prefix + b"\xff" * 16) silently
        # excluded keys extending more than 16 bytes past the prefix.
        table = small_store().create_table("t")
        long_key = b"p" + b"x" * 40
        table.put(long_key, b"deep")
        table.put(b"p", b"exact")
        table.put(b"p\xff" * 20, b"ff-heavy")
        got = dict(table.scan(ScanSpec.prefix(b"p")))
        assert got == {long_key: b"deep", b"p": b"exact",
                       b"p\xff" * 20: b"ff-heavy"}

    def test_prefix_excludes_successor_keys(self):
        table = small_store().create_table("t")
        table.put(b"pa", b"in")
        table.put(b"q", b"out")
        table.put(b"q" + b"\x00" * 30, b"out-too")
        got = [k for k, _ in table.scan(ScanSpec.prefix(b"p"))]
        assert got == [b"pa"]

    def test_all_ff_prefix_scans_to_table_end(self):
        table = small_store().create_table("t")
        table.put(b"\xff\xffz", b"v")
        table.put(b"a", b"other")
        got = [k for k, _ in table.scan(ScanSpec.prefix(b"\xff\xff"))]
        assert got == [b"\xff\xffz"]

    def test_unbounded_scans_have_no_key_length_ceiling(self):
        # Regression: successor-less prefixes fell back to a finite
        # b"\xff" * 32 bound, excluding matching keys longer than 32
        # bytes.  end=None is now a true "to the end of the table".
        table = small_store().create_table("t")
        beyond = b"\xff" * 40
        table.put(beyond, b"v")
        table.put(b"a", b"other")
        assert dict(table.scan(ScanSpec.prefix(b"\xff\xff")))[beyond] == b"v"
        assert dict(table.scan(ScanSpec.prefix(b"")))[beyond] == b"v"
        assert dict(table.scan(ScanSpec.full()))[beyond] == b"v"


class TestRegionSplitting:
    def test_split_occurs_under_load(self):
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1

    def test_data_survives_splits(self):
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.get(b"000000") == payload
        assert table.get(b"001999") == payload
        keys = [k for k, _ in table.scan(ScanSpec.full())]
        assert len(keys) == 2000
        assert keys == sorted(keys)

    def test_regions_spread_over_servers(self):
        store = small_store()
        table = store.create_table("t")
        payload = b"x" * 200
        for i in range(4000):
            table.put(f"{i:06d}".encode(), payload)
        assert len(table.servers_used()) > 1

    def test_delete_then_split_keeps_deletes(self):
        # Tombstoned keys must not resurrect when the region splits:
        # the split merges runs and drops masked values and tombstones.
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(200):
            table.put(f"{i:06d}".encode(), payload)
        deleted = [f"{i:06d}".encode() for i in range(0, 200, 7)]
        for key in deleted:
            table.delete(key)
        for i in range(200, 2000):  # grow past the split threshold
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1
        for key in deleted:
            assert table.get(key) is None
        keys = set(k for k, _ in table.scan(ScanSpec.full()))
        assert keys.isdisjoint(deleted)
        assert len(keys) == 2000 - len(deleted)

    def test_scan_limit_crossing_split_boundary(self):
        table = small_store().create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1
        # A limit larger than the first region's share must continue
        # seamlessly into the next region, in key order.
        first_region_keys = len(list(
            table._regions[0].scan(b"", b"\xff" * 8, None)))
        limit = first_region_keys + 25
        got = [k for k, _ in table.scan(ScanSpec(limit=limit))]
        assert got == [f"{i:06d}".encode() for i in range(limit)]

    def test_split_on_single_server_store(self):
        # All regions inevitably share the one server; splitting must
        # still work and keep routing consistent.
        table = small_store(num_servers=1).create_table("t")
        payload = b"x" * 200
        for i in range(2000):
            table.put(f"{i:06d}".encode(), payload)
        assert table.num_regions > 1
        assert table.servers_used() == {0}
        assert table.get(b"001234") == payload

    def test_split_aborts_on_single_giant_key(self):
        # One key overwritten past the split threshold cannot split
        # (split_key would equal start_key); the store must not loop.
        store = small_store(split_bytes=2048, flush_bytes=512)
        table = store.create_table("t")
        for _ in range(50):
            table.put(b"only-key", b"x" * 400)
        assert table.num_regions == 1
        assert table.get(b"only-key") == b"x" * 400

    def test_compaction_reclaims_tombstones(self):
        table = small_store().create_table("t")
        for i in range(100):
            table.put(f"{i:03d}".encode(), b"v" * 50)
        table.flush()
        for i in range(100):
            table.delete(f"{i:03d}".encode())
        table.flush()
        table.compact()
        assert table.count() == 0
        assert table.disk_bytes == 0


class TestIOAccounting:
    def test_scan_records_result_bytes(self):
        store = small_store()
        table = store.create_table("t")
        table.put(b"abc", b"12345")
        before = store.stats.snapshot()
        list(table.scan(ScanSpec.full()))
        delta = store.stats.snapshot().delta(before)
        assert delta.result_bytes == len(b"abc") + len(b"12345")
        assert delta.scans_started == 1

    def test_flush_charges_disk_write(self):
        store = small_store()
        table = store.create_table("t")
        table.put(b"k", b"v" * 100)
        before = store.stats.disk_bytes_written
        table.flush()
        assert store.stats.disk_bytes_written > before

    def test_cache_cleared_between_queries(self):
        store = small_store()
        table = store.create_table("t")
        for i in range(500):
            table.put(f"{i:04d}".encode(), b"v" * 100)
        table.flush()
        list(table.scan(ScanSpec(b"0000", b"0100")))
        base = store.stats.disk_bytes_read
        list(table.scan(ScanSpec(b"0000", b"0100")))  # cache hit
        cached_delta = store.stats.disk_bytes_read - base
        store.clear_caches()
        base = store.stats.disk_bytes_read
        list(table.scan(ScanSpec(b"0000", b"0100")))  # cold again
        cold_delta = store.stats.disk_bytes_read - base
        assert cached_delta == 0
        assert cold_delta > 0


class TestMultiRangeScan:
    """One pass over many ranges counts like one scan per range."""

    SPANS = [(b"k010", b"k020"), (b"k020", b"k025"), (b"k100", b"k140"),
             (b"k500", b"k501"), (b"k900", None)]

    def loaded(self):
        store = small_store(split_bytes=1 << 30)
        table = store.create_table("t")
        for i in range(1000):
            table.put(f"k{i:03d}".encode(), b"v" * 20)
            if i % 300 == 0:
                table.flush()  # several runs plus a live memstore
        list(table.scan(ScanSpec(b"k300", b"k400")))  # earlier traffic
        store.events.advance(4000.0)  # let that traffic decay
        return store, table

    def test_region_reads_equal_single_range_scans(self, monkeypatch):
        from repro.kvstore.region import Region
        calls = []
        record_read = Region.record_read
        monkeypatch.setattr(Region, "record_read", lambda self, n=1: (
            calls.append(n), record_read(self, n))[1])
        store_a, multi = self.loaded()
        store_b, single = self.loaded()
        calls.clear()
        got = list(multi.scan(ScanSpec.multi(self.SPANS)))
        assert calls == [len(self.SPANS)]  # once per region per pass
        expected = []
        for start, stop in self.SPANS:
            expected += single.scan(ScanSpec(start, stop,
                                             end_exclusive=True))
        assert got == expected
        (region_a,), (region_b,) = multi.regions(), single.regions()
        assert region_a.reads == region_b.reads
        now = store_a.events.now_ms
        assert region_a.read_rate.rate_per_s(now) == \
            pytest.approx(region_b.read_rate.rate_per_s(now), rel=1e-12)
        assert store_a.stats.snapshot() == store_b.stats.snapshot()

    def test_limit_spans_ranges(self):
        _store, table = self.loaded()
        got = [k for k, _ in table.scan(ScanSpec.multi(self.SPANS,
                                                       limit=12))]
        assert got == [f"k{i:03d}".encode() for i in range(10, 22)]

    def test_no_ranges_scan_nothing(self):
        store, table = self.loaded()
        before = store.stats.snapshot()
        assert list(table.scan(ScanSpec.multi([]))) == []
        assert store.stats.snapshot() == before

    def test_overlapping_ranges_are_refused(self):
        with pytest.raises(ValueError):
            ScanSpec.multi([(b"a", b"c"), (b"b", b"d")])
        with pytest.raises(ValueError):
            ScanSpec.multi([(b"c", b"d"), (b"a", b"b")])
        with pytest.raises(ValueError):
            ScanSpec.multi([(b"a", None), (b"b", b"c")])
        # Empty ranges may sit anywhere; adjacent ranges are fine.
        ScanSpec.multi([(b"a", b"b"), (b"z", b"a"), (b"b", b"c")])
