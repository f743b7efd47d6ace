"""``python -m repro metrics`` — query-observability demonstration.

Stands up the service stack, loads a seeded point table, and drives a
repeated spatio-temporal window workload so the block cache actually
warms up (the paper's benchmarks defeat it on purpose; operations
staff would not).  Along the way it:

* prints ``EXPLAIN ANALYZE`` for a representative window query — the
  plan tree annotated with per-operator rows, blocks read, cache hits,
  and simulated milliseconds;
* flushes and major-compacts the store mid-run to show the hit ratio
  and cache ``used_bytes`` staying truthful while SSTables die;
* dumps the process-wide metrics registry (the ``/metrics`` payload)
  and the slow-query log.

Everything is seeded; two runs print identical tables.
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.cli import format_result
from repro.service.client import JustClient
from repro.service.server import JustServer

#: Spatial extent the demo points (and query windows) are drawn from.
_AREA = (116.0, 39.8, 116.5, 40.1)
_T0 = 1_500_000_000.0
_DAY = 86_400.0

DEMO_USER = "ops"


def _build_workload(rows: int, seed: int):
    rng = random.Random(seed)
    lo_lng, lo_lat, hi_lng, hi_lat = _AREA
    inserts = []
    for i in range(rows):
        lng = lo_lng + rng.random() * (hi_lng - lo_lng)
        lat = lo_lat + rng.random() * (hi_lat - lo_lat)
        t = _T0 + rng.random() * 5 * _DAY
        inserts.append(f"({i}, 'poi{i % 17}', {t:.0f}, "
                       f"st_makePoint({lng:.6f}, {lat:.6f}))")
    windows = []
    for _ in range(8):
        lng = lo_lng + rng.random() * 0.3
        lat = lo_lat + rng.random() * 0.15
        t = _T0 + rng.random() * 3 * _DAY
        windows.append(
            f"SELECT fid, name FROM poi WHERE geom WITHIN "
            f"st_makeMBR({lng:.4f}, {lat:.4f}, {lng + 0.12:.4f}, "
            f"{lat + 0.08:.4f}) AND time BETWEEN {t:.0f} "
            f"AND {t + _DAY:.0f}")
    return inserts, windows


def _load_table(client: JustClient, inserts: list[str],
                batch: int = 500) -> None:
    client.execute_query(
        "CREATE TABLE poi (fid integer:primary key, name string, "
        "time date, geom point)")
    for start in range(0, len(inserts), batch):
        chunk = ", ".join(inserts[start:start + batch])
        client.execute_query(f"INSERT INTO poi VALUES {chunk}")


def _cache_line(server: JustServer) -> str:
    stats = server.engine.store.stats
    touched = stats.cache_hits + stats.blocks_read
    ratio = stats.cache_hits / touched if touched else 0.0
    used = sum(server.engine.store.cache_for(s).used_bytes
               for s in range(server.engine.store.num_servers))
    return (f"blocks_read={stats.blocks_read} "
            f"cache_hits={stats.cache_hits} hit_ratio={ratio:.1%} "
            f"cache_used_bytes={used}")


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description="Observability demo: metrics registry, "
                    "EXPLAIN ANALYZE, slow-query log.")
    parser.add_argument("--rows", type=int, default=2000,
                        help="points to load (default 2000)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="passes over the query set (default 3)")
    parser.add_argument("--slow-ms", type=float, default=50.0,
                        help="slow-query threshold in simulated ms "
                             "(default 50)")
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args(argv)

    server = JustServer(slow_query_ms=args.slow_ms)
    client = JustClient(server, DEMO_USER)
    inserts, windows = _build_workload(args.rows, args.seed)

    print(f"== load: {args.rows} points into 'poi' ==", file=out)
    _load_table(client, inserts)

    # Flush so the read workload touches SSTable blocks, not memstores —
    # a cold cache the repeated passes can warm.
    for table in server.engine.store.tables():
        table.flush()

    print(f"\n== workload: {len(windows)} window queries x "
          f"{args.repeat} passes (flush+compact between passes) ==",
          file=out)
    for pass_no in range(1, args.repeat + 1):
        for sql in windows:
            client.execute_query(sql)
        print(f"pass {pass_no}: {_cache_line(server)}", file=out)
        if pass_no == 1:
            # Major-compact mid-run: every pre-compaction SSTable dies,
            # its cached blocks are invalidated, and the hit ratio keeps
            # counting honestly against the new files.
            for table in server.engine.store.tables():
                table.flush()
                table.compact()
            print("  (flushed + major-compacted every table)", file=out)

    print("\n== EXPLAIN ANALYZE of one window query ==", file=out)
    result = client.execute_query("EXPLAIN ANALYZE " + windows[0])
    print(format_result(result), file=out)

    print("\n== /metrics (registry dump) ==", file=out)
    print(server.metrics.render_text(), file=out)

    print("\n== slow-query log (threshold "
          f"{args.slow_ms:g} sim-ms) ==", file=out)
    entries = server.slow_query_log.entries()
    if not entries:
        print("(empty)", file=out)
    for entry in entries[-5:]:
        statement = entry.statement.replace("\n", " ")
        if len(statement) > 72:
            statement = statement[:71] + "…"
        print(f"#{entry.seq} {entry.sim_ms:8.1f} ms  "
              f"user={entry.user}  {statement}", file=out)
    if len(entries) > 5:
        print(f"... ({len(entries) - 5} older entries)", file=out)

    client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
