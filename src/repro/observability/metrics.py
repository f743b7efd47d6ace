"""A minimal metrics registry (counters, gauges, quantile histograms).

Mirrors the Prometheus client-library surface the HBase/OpenTelemetry
stacks expose: metrics are named, optionally labelled, created on first
use, and snapshot as plain JSON-safe numbers so the HTTP ``/metrics``
endpoint can serve them without any serialization glue.  Histograms keep
a bounded sample buffer and report nearest-rank p50/p95/p99, which is
what the benchmark harness needs for tail-latency attribution.
"""

from __future__ import annotations

from bisect import bisect_left

#: Default latency bucket bounds (simulated milliseconds).  Cumulative
#: ``le`` bucket counters make *windowed* latency SLIs exact: the SLO
#: layer computes the fraction of observations above a threshold from
#: two counter increases instead of from unwindowed quantiles.
DEFAULT_LATENCY_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
    2500.0, 5000.0)


def _escape_label_value(value) -> str:
    """Prometheus label-value escaping (backslash first, then quote/LF)."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _metric_key(name: str, labels: dict) -> str:
    """Flatten ``name`` + labels into one stable registry key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={_escape_label_value(labels[k])}"
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _format_bound(bound: float) -> str:
    """Compact, stable rendering of a bucket upper bound (``le``)."""
    return f"{bound:g}"


def _type_name(metric) -> str:
    if isinstance(metric, Counter):
        return "counter"
    if isinstance(metric, Gauge):
        return "gauge"
    return "histogram"


class Counter:
    """A monotonically increasing count (events, bytes, errors)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value (in-flight statements, cache fill)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Histogram:
    """A sample distribution with nearest-rank quantiles.

    ``count``/``sum`` are exact over every observation; quantiles are
    computed over a bounded sample buffer.  When the buffer fills it is
    halved by keeping every second sample (a deterministic decimation
    rather than a random reservoir, so tests are reproducible), and the
    sampling *stride* doubles: after ``k`` decimations only every
    ``2^k``-th new observation is retained, so retained samples keep
    uniform weight and the buffer stops churning through repeated
    halvings.  The very latest observation is always kept (provisionally,
    replaced by its successor when off-stride) so max-style quantiles
    track the newest data.  With the default 8192-sample buffer the
    reproduction's workloads never decimate.
    """

    __slots__ = ("name", "count", "sum", "_samples", "_max_samples",
                 "_stride", "_phase", "_tail_provisional", "_sorted",
                 "buckets", "_bucket_counts", "_bucket_exemplars",
                 "last_exemplar")

    def __init__(self, name: str, max_samples: int = 8192,
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._stride = 1
        self._phase = 0
        self._tail_provisional = False
        #: Sorted view of ``_samples``, invalidated on observe so one
        #: snapshot (p50+p95+p99) pays a single O(n log n) sort.
        self._sorted: list[float] | None = None
        self.buckets: tuple[float, ...] = (
            tuple(sorted(buckets)) if buckets else ())
        # Cumulative ``le`` counts, one per bound (no +Inf slot; that is
        # ``count``).  Exemplars keep one (stamp, exemplar) per bucket
        # plus an overflow slot, so alerts can link the most recent
        # observation above a threshold back to its trace.
        self._bucket_counts: list[int] = [0] * len(self.buckets)
        self._bucket_exemplars: list[tuple[int, object] | None] = (
            [None] * (len(self.buckets) + 1))
        self.last_exemplar: object | None = None

    def observe(self, value: float, exemplar: object = None) -> None:
        self.count += 1
        self.sum += value
        self._sorted = None
        if self.buckets:
            slot = bisect_left(self.buckets, value)
            for i in range(slot, len(self.buckets)):
                self._bucket_counts[i] += 1
        else:
            slot = 0
        if exemplar is not None:
            self.last_exemplar = exemplar
            if self.buckets:
                self._bucket_exemplars[slot] = (self.count, exemplar)
        if self._tail_provisional:
            # The previous observation was off-stride and kept only so
            # the buffer tail tracks the latest value; its successor
            # replaces it.
            self._samples.pop()
            self._tail_provisional = False
        self._phase += 1
        if self._phase >= self._stride:
            self._phase = 0
            if len(self._samples) >= self._max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2
            self._samples.append(value)
        else:
            self._samples.append(value)
            self._tail_provisional = True

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs (Prometheus ``le``)."""
        return list(zip(self.buckets, self._bucket_counts))

    def exemplar_above(self, threshold: float):
        """Most recent exemplar observed above ``threshold``, or None.

        Scans the overflow slot plus every bucket whose upper bound
        exceeds the threshold (bucket membership is approximate at the
        boundary bucket; exemplars are diagnostics, not accounting).
        """
        best: tuple[int, object] | None = None
        for i, entry in enumerate(self._bucket_exemplars):
            if entry is None:
                continue
            bound_above = (i >= len(self.buckets)
                           or self.buckets[i] > threshold)
            if bound_above and (best is None or entry[0] > best[0]):
                best = entry
        return best[1] if best is not None else None

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile over the retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        ordered = self._sorted
        rank = max(0, min(len(ordered) - 1,
                          int(q * len(ordered) + 0.5) - 1))
        return ordered[rank]

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def as_dict(self) -> dict:
        out = {"count": self.count, "sum": round(self.sum, 6),
               "mean": round(self.mean, 6),
               "p50": round(self.p50, 6), "p95": round(self.p95, 6),
               "p99": round(self.p99, 6)}
        if self.buckets:
            out["buckets"] = {_format_bound(bound): count
                              for bound, count in self.bucket_counts()}
        return out


def collected(kind: type, name: str, value, **labels) -> Counter | Gauge:
    """One collector reading: a detached ``Counter``/``Gauge`` holding
    ``value`` under the flattened ``name`` + ``labels`` key."""
    metric = kind(_metric_key(name, labels))
    metric.value = value
    return metric


class MetricsRegistry:
    """Named metrics, created on first use and shared by name.

    One registry serves a whole deployment (engine + store + service),
    and counts every event once.  Components without a counter of their
    own call :meth:`counter` / :meth:`gauge` / :meth:`histogram`, which
    return the same object for the same name + labels, exactly like a
    Prometheus client registry; components that keep one are read
    through :meth:`register_collector` instead.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._help: dict[str, str] = {}
        self._collectors: list = []

    def _get(self, name: str, labels: dict, cls, **kwargs):
        key = _metric_key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(key, **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {key!r} already registered as "
                            f"{type(metric).__name__}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(name, labels, Gauge)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None,
                  **labels) -> Histogram:
        """Get-or-create; ``buckets`` applies only on first creation."""
        return self._get(name, labels, Histogram, buckets=buckets)

    def register_collector(self, collect) -> None:
        """Read ``collect()`` — :func:`collected` readings — at every
        read of the registry (:meth:`items`, :meth:`snapshot`,
        :meth:`render_text`), from registration on."""
        self._collectors.append(collect)

    def _all(self) -> dict[str, Counter | Gauge | Histogram]:
        """Pushed metrics plus every collector's current readings."""
        metrics = dict(self._metrics)
        for collect in self._collectors:
            for metric in collect():
                metrics[metric.name] = metric
        return metrics

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric *base* name (no labels)."""
        self._help[name] = help_text

    def help_text(self, name: str) -> str | None:
        return self._help.get(name)

    def __contains__(self, key: str) -> bool:
        return key in self._all()

    def items(self) -> list[tuple[str, Counter | Gauge | Histogram]]:
        """(flattened key, metric) pairs, sorted by key."""
        return sorted(self._all().items())

    def __len__(self) -> int:
        return len(self._all())

    def snapshot(self) -> dict:
        """Every metric as JSON-safe data, keyed by flattened name."""
        out = {}
        for key, metric in self.items():
            if isinstance(metric, Histogram):
                out[key] = metric.as_dict()
            else:
                out[key] = metric.value
        return out

    def render_text(self) -> str:
        """Prometheus-exposition-style text (one ``name value`` per line).

        Histogram stat suffixes attach to the metric *name*, before any
        label braces (``name_p95{op=scan}``), the only form Prometheus
        scrapers parse.  Each metric base name gets a ``# TYPE`` line
        (and a ``# HELP`` line when :meth:`describe` registered one)
        before its first sample, and bucketed histograms additionally
        expose cumulative ``name_bucket{le=...}`` series.
        """
        lines: list[str] = []
        described: set[str] = set()
        for key, metric in self.items():
            base, brace, labels = key.partition("{")
            labelpart = brace + labels
            if base not in described:
                described.add(base)
                help_text = self._help.get(base)
                if help_text is not None:
                    escaped = (help_text.replace("\\", "\\\\")
                               .replace("\n", "\\n"))
                    lines.append(f"# HELP {base} {escaped}")
                lines.append(f"# TYPE {base} {_type_name(metric)}")
            if isinstance(metric, Histogram):
                stats = metric.as_dict()
                stats.pop("buckets", None)
                for stat, number in stats.items():
                    lines.append(f"{base}_{stat}{labelpart} {number}")
                if metric.buckets:
                    inner = labels[:-1] + "," if labelpart else ""
                    for bound, count in metric.bucket_counts():
                        lines.append(f"{base}_bucket{{"
                                     f"{inner}le={_format_bound(bound)}}}"
                                     f" {count}")
                    lines.append(f"{base}_bucket{{{inner}le=+Inf}} "
                                 f"{metric.count}")
            else:
                lines.append(f"{key} {metric.value}")
        return "\n".join(lines)
