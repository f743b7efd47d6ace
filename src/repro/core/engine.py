"""``JustEngine`` — the library facade.

Wires together the key-value store, the cluster cost model, the catalog,
and the table models, and exposes the paper's operations: definition
(create/drop/show/describe), manipulation (insert/load), query (spatial
range, spatio-temporal range, k-NN), and — through :meth:`JustEngine.sql`
— the whole JustQL surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.node import Cluster
from repro.cluster.simclock import CostModel, SimJob
from repro.core.catalog import Catalog, TableMeta
from repro.core.knn import KNNResult, knn_query
from repro.core.loader import SourceRegistry, apply_config, load_file
from repro.core.query import choose_strategy, choose_strategy_cost_based
from repro.core.plugins import plugin_class
from repro.core.schema import Field, FieldType, Schema
from repro.core.tables import CommonTable, ViewTable
from repro.curves.strategies import STQuery, strategy_from_name
from repro.curves.timeperiod import TimePeriod
from repro.dataframe import DataFrame
from repro.errors import (
    ExecutionError,
    SchemaError,
    TableExistsError,
    TableNotFoundError,
)
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.kvstore.store import KVStore
from repro.trajectory.model import STSeries, TSeries

_GB = 1024 ** 3


@dataclass
class QueryResult:
    """Rows plus the simulated cost of producing them."""

    rows: list[dict]
    job: SimJob
    extra: dict = field(default_factory=dict)

    @property
    def sim_ms(self) -> float:
        return self.job.elapsed_ms

    @property
    def breakdown(self) -> dict[str, float]:
        return dict(self.job.breakdown)

    def dataframe(self, columns: list[str] | None = None) -> DataFrame:
        return DataFrame.from_rows(self.rows, columns)

    def __len__(self) -> int:
        return len(self.rows)


class JustEngine:
    """One engine instance == one deployed JUST cluster."""

    def __init__(self, num_servers: int = 5,
                 memory_budget_bytes: int = 5 * 32 * _GB,
                 cost_model: CostModel | None = None,
                 compression_enabled: bool = True,
                 num_shards: int = 4,
                 max_ranges: int = 256,
                 default_period: TimePeriod = TimePeriod.DAY,
                 cache_bytes_per_server: int = 64 * 1024 * 1024,
                 block_bytes: int | None = None,
                 cost_based_planner: bool = False,
                 adaptive_execution: bool = False,
                 oltp_threshold_bytes: int = 64 * 1024,
                 local_overhead_ms: float = 5.0,
                 wal_policy=None,
                 split_bytes: int | None = None,
                 flush_bytes: int | None = None,
                 replication_factor: int = 1,
                 read_mode: str = "primary",
                 vectorized: bool = True):
        #: Process-wide observability registry: SQL operators and the
        #: service layer push into it; it reads the counters of the
        #: components the engine owns (:meth:`_collect_metrics`).
        from repro.observability.events import EventLog
        from repro.observability.metrics import MetricsRegistry
        self.metrics = MetricsRegistry()
        #: Cluster event log (flushes, compactions, splits, failovers,
        #: ...), shared with the store and the service layer; queryable
        #: as ``sys.events``.
        self.events = EventLog()
        self.cluster = Cluster(num_servers, memory_budget_bytes, cost_model)
        store_kwargs = {"cache_bytes_per_server": cache_bytes_per_server,
                        "metrics": self.metrics,
                        "events": self.events,
                        # The store shares the cluster's cost model so
                        # kvstore-level trace spans (per-region scans)
                        # can estimate simulated time.
                        "cost_model": self.cluster.model}
        if block_bytes is not None:
            store_kwargs["block_bytes"] = block_bytes
        if split_bytes is not None:
            # Small split/flush thresholds let tests spread a modest table
            # across many regions (and thus many servers) cheaply.
            store_kwargs["split_bytes"] = split_bytes
        if flush_bytes is not None:
            store_kwargs["flush_bytes"] = flush_bytes
        if wal_policy is not None:
            # Durable ingest: every region server keeps a write-ahead log
            # and the store survives injected region-server crashes.
            store_kwargs["wal_policy"] = wal_policy
        if replication_factor > 1:
            # Region replication: a primary plus followers on distinct
            # servers, WAL shipping, quorum writes, fast promote failover.
            store_kwargs["replication_factor"] = replication_factor
            store_kwargs["read_mode"] = read_mode
        self.store = KVStore(num_servers, **store_kwargs)
        self.catalog = Catalog()
        self.sources = SourceRegistry()
        self.compression_enabled = compression_enabled
        self.num_shards = num_shards
        self.max_ranges = max_ranges
        self.default_period = default_period
        self._tables: dict[str, CommonTable] = {}
        self._views: dict[str, ViewTable] = {}
        self._topics: dict[str, object] = {}
        self._stream_loaders: list = []
        #: Future work #3: pick indexes by estimated cost, not rules.
        self.cost_based_planner = cost_based_planner
        #: Future work #4: serve small requests on a single machine,
        #: skipping the distributed-job overhead (OLAP + OLTP combined).
        self.adaptive_execution = adaptive_execution
        self.oltp_threshold_bytes = oltp_threshold_bytes
        self.local_overhead_ms = local_overhead_ms
        #: Batch-at-a-time SQL execution: columnar scan batches out of
        #: the kvstore, vectorized filter/project/aggregate.  Off runs
        #: the row-at-a-time path (the benchmark baseline).
        self.vectorized = vectorized
        #: Optional hot-region load balancer (see :meth:`enable_balancer`);
        #: None means placement stays pure round-robin.
        self.balancer = None
        #: Optional monitoring pipeline (see :meth:`enable_monitoring`);
        #: None means no metrics history / SLOs / alerts are kept.
        self.monitor = None
        #: Virtual ``sys.*`` tables: live row providers over engine state.
        self.system_tables: dict[str, object] = {}
        from repro.core.systables import install_system_tables
        install_system_tables(self)
        self.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self):
        """Every engine-owned counter as a registry series: the store's
        (and its replication's), the balancer's, each stream loader's."""
        yield from self.store.metric_series()
        if self.balancer is not None:
            yield from self.balancer.metric_series()
        for loader in self._stream_loaders:
            yield from loader.metric_series()

    # -- load balancing ----------------------------------------------------------
    def enable_balancer(self, policy=None):
        """Attach a hot-region load balancer to this engine's store.

        Returns the :class:`repro.balancer.Balancer`.  The service layer
        ticks it after every statement (the master's balancer chore on
        the simulated clock); library users call ``balancer.tick()`` or
        ``balancer.maybe_tick()`` themselves.  Its decisions surface in
        ``sys.balancer`` and as events in ``sys.events``.
        """
        from repro.balancer import Balancer
        if self.balancer is None:
            self.balancer = Balancer(self.store, policy)
        elif policy is not None:
            self.balancer.policy = policy
        return self.balancer

    # -- monitoring --------------------------------------------------------------
    def enable_monitoring(self, **kwargs):
        """Attach the scrape → history → SLO → alert pipeline.

        Returns the :class:`repro.observability.monitor.Monitor`.  The
        service layer ticks its scrape chore after every statement;
        library users call ``monitor.maybe_tick()`` (or ``tick()``)
        themselves.  Retained series surface in ``sys.metrics_history``,
        objectives in ``sys.slos``, and alert state in ``sys.alerts``
        (plus ``slo_burn``/``alert`` events in ``sys.events``).
        """
        from repro.observability.monitor import Monitor
        if self.monitor is None:
            self.monitor = Monitor(self, **kwargs)
        return self.monitor

    # -- replication -------------------------------------------------------------
    @property
    def replication(self):
        """The store's :class:`~repro.replication.ReplicationManager`
        (``None`` until replication is enabled)."""
        return self.store.replication

    def enable_replication(self, factor: int = 3,
                           read_mode: str = "primary", **kwargs):
        """Turn on region replication for this engine's store.

        Returns the :class:`repro.replication.ReplicationManager`.
        Requires a WAL policy (replication ships primary WAL records to
        follower WALs).  The service layer ticks its anti-entropy chore
        after every statement; library users call
        ``replication.maybe_tick()`` themselves.  Replica state surfaces
        in ``sys.replication`` and as events in ``sys.events``.
        """
        return self.store.enable_replication(factor=factor,
                                             read_mode=read_mode,
                                             **kwargs)

    # -- system tables -----------------------------------------------------------
    def register_system_table(self, name: str, columns, provider,
                              description: str = "",
                              types=()) -> None:
        """Register (or re-register) one read-only ``sys.*`` table.

        Re-registration replaces the provider — the service layer
        upgrades ``sys.sessions`` / ``sys.slow_queries`` from the
        engine's empty defaults to live server-backed ones.
        """
        from repro.core.systables import SystemTable
        table = SystemTable(name, tuple(columns), provider,
                            description=description, types=tuple(types))
        self.system_tables[name] = table
        self.catalog.replace(TableMeta(name, "system", table.schema(),
                                       index_names=[]))

    def has_system_table(self, name: str) -> bool:
        return name in self.system_tables

    def system_table(self, name: str):
        return self.system_tables[name]

    def system_rows(self, name: str) -> list[dict]:
        return self.system_tables[name].rows()

    # -- statistics --------------------------------------------------------------
    def analyze_table(self, name: str):
        """ANALYZE TABLE: measure live statistics for the planner.

        Rescans the table (charged like any full scan), snapshots the
        measured row count, envelope, time extent, index sizes, and
        per-region key distribution into a
        :class:`~repro.core.stats.TableStats` on ``table.stats``, which
        the cost-based planner prefers over the grow-only inline stats.
        Returns ``(stats, job)``.
        """
        from repro.core.stats import collect_table_stats
        table = self.table(name)
        job = self.cluster.job()
        stats = collect_table_stats(table, job,
                                    now_ms=self.events.now_ms)
        table.stats = stats
        return stats, job

    # -- index configuration ----------------------------------------------------
    def _default_index_names(self, schema: Schema) -> list[str]:
        geometry = schema.geometry_field
        if geometry is None and schema.st_series_field is None:
            return []  # attribute-only table: id lookups and full scans
        point_like = geometry is not None and \
            geometry.ftype == FieldType.POINT
        has_time = schema.time_field is not None
        if point_like:
            return ["z2", "z2t"] if has_time else ["z2"]
        return ["xz2", "xz2t"] if has_time else ["xz2"]

    def _build_strategies(self, names: list[str],
                          userdata: dict | None) -> dict:
        userdata = userdata or {}
        period = self.default_period
        if "just.time_period" in userdata:
            period = TimePeriod.from_name(userdata["just.time_period"])
        num_shards = int(userdata.get("just.num_shards", self.num_shards))
        max_ranges = int(userdata.get("just.max_ranges", self.max_ranges))
        strategies = {}
        for name in names:
            strategy = strategy_from_name(name, period=period,
                                          num_shards=num_shards,
                                          max_ranges=max_ranges)
            strategies[name] = strategy
        return strategies

    def _index_names(self, schema: Schema,
                     userdata: dict | None) -> list[str]:
        if userdata and "geomesa.indices.enabled" in userdata:
            names = [n.strip() for n in
                     userdata["geomesa.indices.enabled"].split(",")
                     if n.strip()]
            if not names:
                raise SchemaError("geomesa.indices.enabled is empty")
            return names
        return self._default_index_names(schema)

    # -- definition operations ----------------------------------------------------
    def create_table(self, name: str, schema: Schema,
                     userdata: dict | None = None) -> CommonTable:
        """CREATE TABLE with an explicit schema (common table)."""
        if self.catalog.exists(name) or name in self._views:
            raise TableExistsError(name)
        index_names = self._index_names(schema, userdata)
        strategies = self._build_strategies(index_names, userdata)
        presplit, salt_buckets = _placement_options(userdata)
        table = CommonTable(name, schema, self.store, strategies,
                            self.compression_enabled,
                            attribute_fields=_attribute_fields(userdata),
                            presplit=presplit,
                            salt_buckets=salt_buckets)
        self.catalog.create(TableMeta(name, "common", schema, index_names,
                                      userdata=userdata or {}))
        self._tables[name] = table
        return table

    def create_plugin_table(self, name: str, plugin_type: str,
                            userdata: dict | None = None) -> CommonTable:
        """CREATE TABLE <name> AS <plugin> (plugin table)."""
        if self.catalog.exists(name) or name in self._views:
            raise TableExistsError(name)
        cls = plugin_class(plugin_type)
        if userdata and "geomesa.indices.enabled" in userdata:
            index_names = [n.strip() for n in
                           userdata["geomesa.indices.enabled"].split(",")]
        else:
            index_names = ["xz2", "xz2t"]
        strategies = self._build_strategies(index_names, userdata)
        presplit, salt_buckets = _placement_options(userdata)
        table = cls(name, self.store, strategies, self.compression_enabled,
                    attribute_fields=_attribute_fields(userdata),
                    presplit=presplit, salt_buckets=salt_buckets)
        self.catalog.create(TableMeta(name, "plugin", table.schema,
                                      index_names, plugin_type=plugin_type,
                                      userdata=userdata or {}))
        self._tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        self.catalog.drop(name)
        table = self._tables.pop(name)
        table.drop_storage()

    def table(self, name: str) -> CommonTable:
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self, prefix: str = "") -> list[str]:
        """User-table names (``sys.*`` system tables and materialized
        views are not listed — views show up in ``SHOW VIEWS``)."""
        return [m.name for m in self.catalog.list_tables(prefix)
                if m.kind not in ("system", "view")]

    # -- views ----------------------------------------------------------------------
    def create_view(self, name: str, dataframe: DataFrame,
                    owner: str | None = None) -> ViewTable:
        if self.catalog.exists(name) or name in self._views:
            raise TableExistsError(name)
        view = ViewTable(name, dataframe, owner)
        self._views[name] = view
        return view

    def create_materialized_view(self, name: str, columns, types=None,
                                 owner: str | None = None):
        """Create an empty, incrementally-maintained materialized view.

        Unlike :meth:`create_view` snapshots, the view is registered in
        the catalog (kind ``"view"``, so ``DESC`` and ``sys.tables``
        see it) and is kept fresh by whatever stream loader it is
        attached to (:meth:`StreamLoader.materialize_window`).
        """
        from repro.streaming.views import MaterializedView
        if self.catalog.exists(name) or name in self._views:
            raise TableExistsError(name)
        view = MaterializedView(name, columns, types=types, owner=owner)
        self._views[name] = view
        self.catalog.create(TableMeta(name, "view", view.schema(),
                                      index_names=[]))
        return view

    def is_materialized_view(self, name: str) -> bool:
        from repro.streaming.views import MaterializedView
        return isinstance(self._views.get(name), MaterializedView)

    def drop_view(self, name: str) -> None:
        if name not in self._views:
            raise TableNotFoundError(name)
        del self._views[name]
        if self.catalog.exists(name) and self.catalog.get(name).kind == "view":
            self.catalog.drop(name)

    def view(self, name: str) -> ViewTable:
        try:
            view = self._views[name]
        except KeyError:
            raise TableNotFoundError(name) from None
        view.touch()
        return view

    def has_view(self, name: str) -> bool:
        return name in self._views

    def view_names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._views if n.startswith(prefix))

    def store_view_to_table(self, view_name: str, table_name: str,
                            userdata: dict | None = None) -> CommonTable:
        """STORE VIEW ... TO TABLE ... (auto-creates the table)."""
        view = self.view(view_name)
        rows = view.dataframe.collect()
        if table_name in self._tables:
            table = self._tables[table_name]
        else:
            schema = infer_schema(rows, view.dataframe.columns)
            table = self.create_table(table_name, schema, userdata)
        next_fid = table.row_count + 1
        coerced = []
        for offset, row in enumerate(rows):
            coerced.append(_coerce_row(row, table.schema, next_fid + offset))
        table.insert_rows(coerced, self.cluster.job())
        return table

    def expire_views(self, max_idle_seconds: float) -> list[str]:
        """Drop *cached* views idle for longer than ``max_idle_seconds``.

        Materialized views are durable pipeline outputs, not session
        caches — they never expire.
        """
        import time as _time
        now = _time.monotonic()
        stale = [name for name, view in self._views.items()
                 if now - view.last_used_at > max_idle_seconds
                 and not self.is_materialized_view(name)]
        for name in stale:
            self.drop_view(name)
        return stale

    # -- manipulation operations --------------------------------------------------------
    def insert(self, table_name: str, rows: list[dict]) -> QueryResult:
        table = self.table(table_name)
        job = self.cluster.job()
        table.insert_rows(rows, job)
        return QueryResult(rows=[], job=job,
                           extra={"inserted": len(rows)})

    def register_source(self, name: str, rows) -> None:
        """Register an external ("hive") source for LOAD statements."""
        self.sources.register(name, rows)

    def load(self, source: str, table_name: str, config: dict[str, str],
             row_filter=None, limit: int | None = None) -> QueryResult:
        """LOAD <source> TO geomesa:<table> CONFIG {...} [FILTER ...].

        ``source`` is ``hive:<name>`` for a registered source or
        ``file:<path>`` for CSV/GeoJSON/GPX/KML files.
        """
        scheme, _, locator = source.partition(":")
        if scheme == "hive" or scheme == "hbase":
            source_rows = self.sources.rows(locator)
        elif scheme == "file":
            source_rows = load_file(locator)
        else:
            raise ExecutionError(
                f"unknown LOAD source scheme {scheme!r}; use hive:, "
                f"hbase: or file:")
        table = self.table(table_name)
        job = self.cluster.job()
        mapped = []
        for source_row in source_rows:
            if row_filter is not None and not row_filter(source_row):
                continue
            mapped.append(apply_config(source_row, config))
            if limit is not None and len(mapped) >= limit:
                break
        job.charge_cpu_records(len(mapped), us_per_record=4.0)
        table.insert_rows(mapped, job)
        return QueryResult(rows=[], job=job, extra={"loaded": len(mapped)})

    # -- query operations -------------------------------------------------------------------
    def _plan(self, table, query: STQuery):
        """Pick (strategy_name, effective_query) per the planner mode."""
        if self.cost_based_planner:
            return choose_strategy_cost_based(table, query,
                                              self.cluster.model)
        return choose_strategy(table, query)

    def _charge_query_overhead(self, job, table, strategy_name: str,
                               query: STQuery) -> None:
        """Distributed-driver overhead, or the cheap local path when
        adaptive execution sees a small request (future work #4)."""
        if self.adaptive_execution and strategy_name in table.strategies:
            strategy = table.strategies[strategy_name]
            selectivity = strategy.estimate_selectivity(
                query, table.time_extent, table.data_envelope)
            estimated = selectivity * max(
                1, table.index_storage_bytes(strategy_name))
            if estimated <= self.oltp_threshold_bytes:
                job.charge_fixed("driver_local", self.local_overhead_ms)
                return
        job.charge_fixed("driver", self.cluster.model.query_overhead_ms)

    def spatial_range_query(self, table_name: str, envelope: Envelope,
                            predicate: str = "intersects",
                            ctx=None) -> QueryResult:
        """All records intersecting (or within) a spatial rectangle."""
        table = self.table(table_name)
        job = self.cluster.job()
        if ctx is not None:
            ctx.bind(job)
        query = STQuery(envelope=envelope)
        if table.strategies:
            strategy_name, effective = self._plan(table, query)
            self._charge_query_overhead(job, table, strategy_name,
                                        effective)
            rows = table.query(effective, predicate, job, strategy_name,
                               ctx)
            if effective is not query:
                rows = [r for r in rows if table._matches(r, query,
                                                          predicate)]
        else:
            job.charge_fixed("driver",
                             self.cluster.model.query_overhead_ms)
            rows = table.query(query, predicate, job, ctx=ctx)
        return QueryResult(rows, job)

    def st_range_query(self, table_name: str, envelope: Envelope | None,
                       t_min: float, t_max: float,
                       predicate: str = "intersects",
                       ctx=None) -> QueryResult:
        """All records in a spatial rectangle during [t_min, t_max]."""
        table = self.table(table_name)
        job = self.cluster.job()
        if ctx is not None:
            ctx.bind(job)
        query = STQuery(envelope, t_min, t_max)
        if table.strategies:
            strategy_name, effective = self._plan(table, query)
            self._charge_query_overhead(job, table, strategy_name,
                                        effective)
            rows = table.query(effective, predicate, job, strategy_name,
                               ctx)
            if effective is not query:
                rows = [r for r in rows if table._matches(r, query,
                                                          predicate)]
        else:
            job.charge_fixed("driver",
                             self.cluster.model.query_overhead_ms)
            rows = table.query(query, predicate, job, ctx=ctx)
        return QueryResult(rows, job)

    def knn(self, table_name: str, lng: float, lat: float,
            k: int, min_cell_km: float = 1.0) -> QueryResult:
        """The k records nearest to a query point (Algorithm 1)."""
        table = self.table(table_name)
        job = self.cluster.job()
        job.charge_fixed("driver", self.cluster.model.query_overhead_ms)
        result: KNNResult = knn_query(table, lng, lat, k, job,
                                      min_cell_km=min_cell_km)
        return QueryResult(result.rows, job, extra={
            "distances": result.distances,
            "areas_queried": result.areas_queried,
            "areas_pruned": result.areas_pruned,
        })

    # -- streaming (Section IX future work #1) ---------------------------------------------
    def create_topic(self, name: str):
        """Create a named streaming topic (the Kafka stand-in)."""
        from repro.streaming.stream import StreamTopic
        if name in self._topics:
            raise TableExistsError(name)
        topic = StreamTopic(name)
        self._topics[name] = topic
        return topic

    def topic(self, name: str):
        try:
            return self._topics[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def stream_load(self, topic_name: str, table_name: str,
                    config: dict[str, str], batch_size: int = 1000,
                    row_filter=None, start_offset: int = 0,
                    max_delay_s: float = 0.0, name: str | None = None,
                    time_field: str | None = None):
        """Bind a topic to a table; returns the micro-batch loader.

        ``start_offset`` resumes at a saved position; ``max_delay_s``
        bounds event-time out-of-orderness for the loader's watermark.
        Every loader is registered for the ``sys.streams`` table.
        """
        from repro.streaming.stream import StreamLoader
        self.table(table_name)  # validate early
        loader = StreamLoader(self, self.topic(topic_name), table_name,
                              config, batch_size, row_filter,
                              start_offset=start_offset,
                              max_delay_s=max_delay_s, name=name,
                              time_field=time_field)
        self._stream_loaders.append(loader)
        return loader

    def stream_loaders(self) -> list:
        """Every loader created through :meth:`stream_load`."""
        return list(self._stream_loaders)

    # -- SQL ----------------------------------------------------------------------------------
    def sql(self, statement: str, namespace: str = "", ctx=None):
        """Execute one JustQL statement; returns a ResultSet.

        ``ctx`` (a :class:`repro.resilience.RequestContext`) carries an
        optional deadline and partial-results mode down through planning,
        physical execution, and the store's region iteration.
        """
        from repro.sql.executor import execute_statement
        return execute_statement(self, statement, namespace, ctx)


def _placement_options(userdata: dict | None) -> tuple[int, int]:
    """Parse ``WITH (presplit=N, salt_buckets=K)`` placement userdata.

    The parser folds the WITH clause into userdata as ``just.presplit``
    / ``just.salt_buckets``, so USERDATA-only clients get the same
    options.  Validation of the ranges lives in :class:`KVTable`.
    """
    if not userdata:
        return 0, 0
    try:
        presplit = int(userdata.get("just.presplit", 0))
        salt_buckets = int(userdata.get("just.salt_buckets", 0))
    except (TypeError, ValueError) as exc:
        raise SchemaError(
            f"just.presplit / just.salt_buckets must be integers: "
            f"{exc}") from None
    return presplit, salt_buckets


def _attribute_fields(userdata: dict | None) -> list[str] | None:
    """Parse USERDATA {'just.attribute.indices': 'name,oid'}; None means
    "use the table type's default"."""
    if not userdata or "just.attribute.indices" not in userdata:
        return None
    return [f.strip() for f in
            userdata["just.attribute.indices"].split(",") if f.strip()]


# -- schema inference for STORE VIEW -----------------------------------------------

_INFER_ORDER = [
    (bool, FieldType.BOOLEAN),
    (int, FieldType.LONG),
    (float, FieldType.DOUBLE),
    (str, FieldType.STRING),
    (Point, FieldType.POINT),
    (LineString, FieldType.LINESTRING),
    (Polygon, FieldType.POLYGON),
    (Geometry, FieldType.GEOMETRY),
    (STSeries, FieldType.ST_SERIES),
    (TSeries, FieldType.T_SERIES),
]


def infer_schema(rows: list[dict], columns: list[str]) -> Schema:
    """Infer a stored-table schema from view rows.

    Numeric columns named like timestamps (``time``/``*_time``/``date``)
    become DATE so the inferred table gets a temporal index.  When no
    column is a usable primary key, a synthetic ``fid`` column is added.
    """
    if not rows:
        raise ExecutionError("cannot infer a schema from an empty view")
    fields: list[Field] = []
    for column in columns:
        sample = next((r[column] for r in rows
                       if r.get(column) is not None), None)
        if sample is None:
            fields.append(Field(column, FieldType.STRING))
            continue
        ftype = None
        for py_type, candidate in _INFER_ORDER:
            if isinstance(sample, py_type):
                ftype = candidate
                break
        if ftype is None:
            raise ExecutionError(
                f"cannot infer field type for column {column!r} "
                f"({type(sample).__name__})")
        lowered = column.lower()
        if ftype in (FieldType.LONG, FieldType.DOUBLE) and (
                lowered == "time" or lowered == "date"
                or lowered.endswith("_time") or lowered.endswith("_date")):
            ftype = FieldType.DATE
        fields.append(Field(column, ftype))
    pk_candidates = [f for f in fields
                     if f.name.lower() in ("fid", "id", "tid", "oid")
                     and f.ftype in (FieldType.STRING, FieldType.LONG,
                                     FieldType.INTEGER)]
    if pk_candidates:
        index = fields.index(pk_candidates[0])
        old = fields[index]
        fields[index] = Field(old.name, old.ftype, primary_key=True)
        return Schema(fields)
    return Schema([Field("fid", FieldType.LONG, primary_key=True)] + fields)


def _coerce_row(row: dict, schema: Schema, synthetic_fid: int) -> dict:
    """Fit a view row into a stored schema (adds a synthetic fid)."""
    out = {}
    for f in schema.fields:
        if f.name in row:
            out[f.name] = row[f.name]
        elif f.name == "fid" and f.primary_key:
            out[f.name] = synthetic_fid
        else:
            out[f.name] = None
    return out
