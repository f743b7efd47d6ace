"""The engine's layers as the traced run sees them.

:func:`install` wraps each layer's public functions (patched on the
class, or on the module that looks the name up at call time);
:func:`layer_metrics` turns span self times, wrapper counts and the
engine's own public counters into the per-layer metrics.

Denominators: read-path metrics are per SELECT statement, write-path
metrics (``curves.key_ms``, ``core.insert_self_ms``, ``kvstore.put_ms``
... ``streaming.*``) are per ``StreamLoader.poll``; a workload without
polls in its timed phase reports 0 for them.
"""

from __future__ import annotations

import repro.sql.executor as sql_executor
import repro.sql.physical as sql_physical
from repro.core.engine import JustEngine
from repro.core.tables import CommonTable
from repro.curves.strategies import IndexStrategy
from repro.dataframe.batch import RowBatch
from repro.dataframe.dataframe import DataFrame
from repro.kvstore.region import Region
from repro.kvstore.store import KVTable
from repro.observability.metrics import MetricsRegistry
from repro.observability.monitor import Monitor
from repro.service.http import JustHttpServer
from repro.service.server import JustServer
from repro.streaming.stream import StreamLoader

from tracer import Patcher, Tracer, wrap_call, wrap_count, wrap_gen

STATEMENT = "statement"
POLL = "poll"

#: (span name, owner, attribute) of every plainly timed call.
CALLS = (
    ("service.http", JustHttpServer, "handle"),
    ("service.server", JustServer, "execute"),
    ("sql.statement", JustEngine, "sql"),
    ("sql.parse", sql_executor, "parse_statement"),
    ("sql.plan", sql_executor, "analyze_select"),
    ("sql.plan", sql_executor, "optimize"),
    ("sql.exec", sql_executor, "execute_plan"),
    ("sql.exec", sql_physical, "execute_plan"),
    ("dataframe.batch", RowBatch, "filter"),
    ("dataframe.batch", RowBatch, "select"),
    ("dataframe.batch", DataFrame, "from_batches"),
    ("dataframe.batch", DataFrame, "collect"),
    ("curves.key", IndexStrategy, "key"),
    ("kvstore.get", KVTable, "get"),
    ("kvstore.flush", Region, "flush"),
    ("kvstore.compact", Region, "compact"),
    ("observability.scrape", Monitor, "maybe_tick"),
)
#: Generator functions, timed over every resume.
GENERATORS = (
    ("core.scan", CommonTable, "scan_ranges", None),
    ("core.scan", CommonTable, "scan_ranges_batches", len),
    ("kvstore.scan", KVTable, "scan", None),
    ("kvstore.scan", KVTable, "scan_batches", len),
)
#: Registry lookups: counted only, timing them distorts more than shows.
COUNTED = (("observability.registry_calls", MetricsRegistry, "counter"),
           ("observability.registry_calls", MetricsRegistry, "gauge"),
           ("observability.registry_calls", MetricsRegistry, "histogram"))


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary; ``patcher.restore()`` undoes it all."""
    counts = tracer.counts
    decomposed: set = set()

    def plain(name):
        return lambda fn: wrap_call(tracer, name, fn)

    for name, owner, attr in CALLS:
        patcher.patch(owner, attr, plain(name))
    for name, owner, attr, size in GENERATORS:
        on_end = _scan_end(counts) if name == "kvstore.scan" else None
        patcher.patch(owner, attr,
                      lambda fn, name=name, size=size, on_end=on_end:
                      wrap_gen(tracer, name, fn, size, on_end))
    for name, owner, attr in COUNTED:
        patcher.patch(owner, attr,
                      lambda fn, name=name: wrap_count(tracer, name, fn))

    def on_ranges(args, kwargs, result, state):
        counts["curves.decompositions"] += 1
        counts["curves.ranges_out"] += len(result)
        key = (args[0].name, args[1])
        if key in decomposed:
            counts["curves.repeats"] += 1
        else:
            decomposed.add(key)
    patcher.patch(IndexStrategy, "ranges", lambda fn: wrap_call(
        tracer, "curves.ranges", fn, observe=on_ranges))

    def on_query(args, kwargs, result, state):
        counts["core.rows_matched"] += len(result)
    patcher.patch(CommonTable, "query", lambda fn: wrap_call(
        tracer, "core.scan", fn, observe=on_query))

    def on_batches_end(items):
        counts["core.rows_matched"] += items
    patcher.patch(CommonTable, "query_batches", lambda fn: wrap_gen(
        tracer, "core.scan", fn, len, on_batches_end))

    def on_insert(args, kwargs, result, state):
        counts["core.rows_inserted"] += result
    patcher.patch(CommonTable, "insert_rows", lambda fn: wrap_call(
        tracer, "core.insert", fn, observe=on_insert))

    def before_knn(args, kwargs):
        return counts["core.rows_matched"]

    def on_knn(args, kwargs, result, matched_before):
        k = args[3] if len(args) > 3 else kwargs["k"]
        counts["core.knn_calls"] += 1
        counts["core.knn_areas"] += result.areas_queried
        counts["core.knn_rows_per_k"] += \
            (counts["core.rows_matched"] - matched_before) / k
    patcher.patch(sql_physical, "knn_query", lambda fn: wrap_call(
        tracer, "core.knn", fn, observe=on_knn, before=before_knn))

    def on_put(args, kwargs, result, state):
        counts["kvstore.user_bytes"] += len(args[1]) + len(args[2])

    def on_delete(args, kwargs, result, state):
        counts["kvstore.user_bytes"] += len(args[1])
    patcher.patch(KVTable, "put", lambda fn: wrap_call(
        tracer, "kvstore.put", fn, observe=on_put))
    patcher.patch(KVTable, "delete", lambda fn: wrap_call(
        tracer, "kvstore.put", fn, observe=on_delete))

    def on_poll(args, kwargs, result, state):
        counts["streaming.windows_emitted"] += result["emitted"]
    patcher.patch(StreamLoader, "poll", lambda fn: wrap_call(
        tracer, "streaming.poll", fn, observe=on_poll))


def _scan_end(counts):
    def on_end(items):
        counts["kvstore.scans_traced"] += 1
        counts["kvstore.rows"] += items
        if not items:
            counts["kvstore.empty_scans"] += 1
    return on_end


def _div(num, den) -> float:
    return num / den if den else 0.0


def sstables_per_region(engine) -> float:
    """Mean SSTable runs per region over every storage table."""
    regions = [r for t in engine.store.tables() for r in t.regions()]
    return _div(sum(len(r.sstables) for r in regions), len(regions))


def layer_metrics(tracer: Tracer, io, events: dict, sql_batches: int,
                  sstables: float, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced phase.

    ``io`` is the phase's ``IOStats`` delta, ``events`` its per-kind
    ``EventLog`` deltas, ``sql_batches`` its ``sql.batches`` counter
    delta.
    """
    kinds = tracer.trace_kinds
    stmts = kinds.count(STATEMENT)
    polls = kinds.count(POLL)
    read_self = tracer.self_by_name({STATEMENT})
    write_self = tracer.self_by_name({POLL})
    read_total = tracer.total_by_name({STATEMENT})
    write_total = tracer.total_by_name({POLL})
    c = tracer.counts

    def per_stmt_ms(ns):
        return _div(ns, stmts) / 1e6

    def per_poll_ms(ns):
        return _div(ns, polls) / 1e6

    touched = io.cache_hits + io.blocks_read
    return {
        "service.http_self_ms": per_stmt_ms(read_self["service.http"]),
        "service.server_self_ms": per_stmt_ms(read_self["service.server"]),
        "sql.statement_self_ms": per_stmt_ms(read_self["sql.statement"]),
        "sql.parse_ms": per_stmt_ms(read_self["sql.parse"]),
        "sql.plan_ms": per_stmt_ms(read_self["sql.plan"]),
        "sql.exec_self_ms": per_stmt_ms(read_self["sql.exec"]),
        "sql.batches": _div(sql_batches, stmts),
        "dataframe.batch_ms": per_stmt_ms(read_self["dataframe.batch"]),
        "curves.ranges_ms": per_stmt_ms(read_self["curves.ranges"]),
        "curves.decompositions": _div(c["curves.decompositions"], stmts),
        "curves.ranges_out": _div(c["curves.ranges_out"], stmts),
        "curves.repeat_ratio": _div(c["curves.repeats"],
                                    c["curves.decompositions"]),
        "curves.key_ms": per_poll_ms(write_self["curves.key"]),
        "core.scan_self_ms": per_stmt_ms(read_self["core.scan"]),
        "core.rows_scanned": _div(c["kvstore.rows"], stmts),
        "core.rows_matched": _div(c["core.rows_matched"], stmts),
        "core.match_ratio": _div(c["core.rows_matched"], c["kvstore.rows"]),
        "core.knn_self_ms": per_stmt_ms(read_self["core.knn"]),
        "core.knn_areas": _div(c["core.knn_areas"], c["core.knn_calls"]),
        "core.knn_rows_per_k": _div(c["core.knn_rows_per_k"],
                                    c["core.knn_calls"]),
        "core.insert_self_ms": per_poll_ms(write_self["core.insert"]),
        "kvstore.scan_ms": per_stmt_ms(read_total["kvstore.scan"]),
        "kvstore.scans": _div(io.scans_started, stmts),
        "kvstore.empty_scan_ratio": _div(c["kvstore.empty_scans"],
                                         c["kvstore.scans_traced"]),
        "kvstore.blocks_read": _div(io.blocks_read, stmts),
        "kvstore.cache_hit_ratio": _div(io.cache_hits, touched),
        "kvstore.put_ms": per_poll_ms(write_total["kvstore.put"]),
        "kvstore.get_ms": per_poll_ms(write_total["kvstore.get"]),
        "kvstore.wal_bytes_per_row": _div(io.wal_bytes_written,
                                          c["core.rows_inserted"]),
        "kvstore.flush_ms": per_poll_ms(write_self["kvstore.flush"]),
        "kvstore.flushes": _div(events.get("flush", 0), polls),
        "kvstore.compact_ms": per_poll_ms(write_total["kvstore.compact"]),
        "kvstore.compactions": _div(events.get("compaction", 0), polls),
        "kvstore.splits": _div(events.get("split", 0), polls),
        "kvstore.sstables_per_region": sstables,
        "kvstore.write_amp": _div(io.disk_bytes_written,
                                  c["kvstore.user_bytes"]),
        "streaming.poll_self_ms": per_poll_ms(write_self["streaming.poll"]),
        "streaming.windows_emitted": _div(c["streaming.windows_emitted"],
                                          polls),
        "observability.registry_calls": _div(
            c["observability.registry_calls"], stmts + polls),
        "observability.scrape_ms": per_stmt_ms(
            read_total["observability.scrape"]),
        "client.self_ms": _div(read_self["client.statement"]
                               + write_self["client.poll"],
                               stmts + polls) / 1e6,
        "trace.overhead_ratio": overhead_ratio,
    }

