"""Seeded benchmark inputs: every row and statement is a pure function of
the workload seed.

The engine only ever sees the generated rows (through a stream loader)
and the generated statement text (through the HTTP/JSON client); the
oracle sees the same :class:`Op` records to check each result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.datagen import OrderGenerator
from repro.datagen.ordergen import ORDER_TIME_END
from repro.geometry.distance import km_to_degrees

#: Rows in the read-only table of ``range`` and ``knn``.
READ_ROWS = 50_000
#: Rows loaded at set-up by ``ingest_mixed`` before the stream starts.
INGEST_BASE_ROWS = 10_000

#: The city: hotspot centres and spreads come from this fixed seed, and a
#: workload seed draws the orders and statements within it.  Letting the
#: seed redraw the hotspots too would change data density, and with it
#: every statement's cost, from seed to seed.
CITY_SEED = 20181001

TABLE = "orders"
_COLUMNS = ("(fid integer:primary key, time date, geom point, "
            "amount double, category string)")
#: ``presplit=5`` puts a region of every storage table on each of the
#: five region servers.  Index keys start with a shard byte below 0x04,
#: so the index rows all land in each index table's first region; salting
#: (``salt_buckets=5``) would spread them, but fans every range scan out
#: over five buckets and doubles kNN latency, which leaves too few kNN
#: statements in a run for a steady median.
READ_TABLE_DDL = f"CREATE TABLE {TABLE} {_COLUMNS} WITH (presplit=5)"
#: The ingest table starts as one region and splits by size.
INGEST_TABLE_DDL = f"CREATE TABLE {TABLE} {_COLUMNS}"

#: Source-event mapping for the stream loaders (the LOAD CONFIG form).
LOAD_CONFIG = {"fid": "fid", "time": "time",
               "geom": "lng_lat_to_point(lng, lat)",
               "amount": "amount", "category": "category"}

#: The base load arrives in seeded bursts of this many events, each
#: drained by one set-up poll.  With equal polls the poll latencies
#: bunched into one narrow peak per machine speed, and when the machine
#: switched between two speeds their median jumped from one peak to the
#: other (``write_p50_ms`` moved by up to 30% from run to run on
#: ``range`` and ``knn``); uneven bursts spread the latencies out, so the
#: median moves only in proportion to the time spent at each speed.
LOAD_BURST = (100, 900)
#: Burst and poll sizes come in rounds: each round of this many holds
#: every size of a design evenly spaced over the size range once, in
#: seeded order (:func:`design_sizes`).  Drawn uniformly, the share of
#: large bursts changed from seed to seed and moved the median poll
#: latency with it (``write_p50_ms`` spread 0.12 over ten seeds on
#: ``knn`` and ``ingest_mixed``); in rounds, runs of whole rounds poll
#: the same sizes and the seed draws only their order and content.
DESIGN_ROUND = 25

#: ``range``: window sides in km and spatio-temporal time spans in s.
WINDOW_KM = (1.0, 5.0)
ST_SPANS_S = (86_400.0, 7 * 86_400.0)
MIN_AMOUNT = 10.0

#: ``knn``: k values (150 is Table IV's default); per k and block, this
#: many data-located query points plus one uniform point (80/20), drawn
#: from design pools of this many order locations and uniform points.
KNN_KS = (10, 50, 150)
KNN_DATA_POINTS = 4
KNN_DATA_POOL = 1200
KNN_UNIFORM_POOL = 300

#: ``ingest_mixed`` stream shape.  Each timed poll drains a burst of
#: 50-250 events (150 on average, in rounds of :data:`DESIGN_ROUND`);
#: uneven polls keep the median poll latency steady for the reason given
#: at :data:`LOAD_BURST`.
POLL_EVENTS = (50, 250)
READS_PER_POLL = 6          # five recent-window reads + one view read
UPSERT_SHARE = 0.2
EVENT_GAP_S = 2.0           # mean event-time step between events
EVENT_JITTER_S = 30.0       # bounded disorder, below the loader's delay
MAX_DELAY_S = 60.0
RECENT_EVENTS = 2_000       # recent reads centre on one of these
RECENT_HOURS = (1.0, 3.0, 6.0)
VIEW = "order_windows"
VIEW_WINDOW_S = 3_600.0
VIEW_LOOKBACK_S = 6 * 3_600.0


@dataclass(frozen=True)
class Op:
    """One timed operation and the parameters its oracle needs.

    ``kind`` is ``s``/``st``/``agg`` (range), ``knn``, ``recent``/``view``
    (ingest reads) or ``poll`` (ingest writes, ``events`` holds the
    micro-batch published before the poll).
    """

    kind: str
    sql: str = ""
    envelope: tuple[float, float, float, float] | None = None
    t_range: tuple[float, float] | None = None
    point: tuple[float, float] | None = None
    k: int | None = None
    uniform: bool = False
    since: float | None = None
    events: tuple[dict, ...] = ()


def city(seed: int | str) -> OrderGenerator:
    """An Order generator over the fixed :data:`CITY_SEED` layout whose
    orders are drawn from ``seed``."""
    generator = OrderGenerator(CITY_SEED)
    generator.rng = random.Random(seed)
    return generator


def order_rows(seed: int, count: int) -> list[dict]:
    """``count`` generated Order rows (fids ``0..count-1``)."""
    return city(seed).generate(count)


def design_sizes(label: str, span: tuple[int, int]):
    """Endless sizes: rounds of :data:`DESIGN_ROUND` sizes evenly spaced
    over ``span``, each round shuffled by a generator seeded ``label``."""
    rng = random.Random(label)
    low, high = span
    design = [round(low + (high - low) * (i + 0.5) / DESIGN_ROUND)
              for i in range(DESIGN_ROUND)]
    while True:
        rng.shuffle(design)
        yield from list(design)


def load_bursts(seed: int, count: int) -> list[int]:
    """Sizes of the base-load bursts: :data:`LOAD_BURST` events each
    (the last one takes the rest), summing to ``count``."""
    design = design_sizes(f"load-{seed}", LOAD_BURST)
    sizes = []
    while count > 0:
        size = min(next(design), count)
        sizes.append(size)
        count -= size
    return sizes


def to_event(row: dict) -> dict:
    """A table row as a flat source event for :data:`LOAD_CONFIG`."""
    return {"fid": row["fid"], "time": row["time"],
            "lng": row["geom"].lng, "lat": row["geom"].lat,
            "amount": row["amount"], "category": row["category"]}


def _f(value: float) -> str:
    return repr(float(value))


def _window(rng: random.Random, lng: float, lat: float):
    half = km_to_degrees(rng.uniform(*WINDOW_KM)) / 2.0
    return (lng - half, lat - half, lng + half, lat + half)


def _mbr(env) -> str:
    return "st_makeMBR(" + ", ".join(_f(v) for v in env) + ")"


# -- range -------------------------------------------------------------------

def range_ops(seed: int, rows: list[dict], label: str = "timed"):
    """Endless blocks of three ``range`` statements: one spatial, one
    spatio-temporal and one GROUP BY, in seeded order, every window
    centred on a sampled row and never repeated."""
    rng = random.Random(f"range-{label}-{seed}")
    seen: set = set()
    while True:
        kinds = ["s", "st", "agg"]
        rng.shuffle(kinds)
        block = []
        for kind in kinds:
            while True:
                row = rng.choice(rows)
                env = _window(rng, row["geom"].lng, row["geom"].lat)
                if env not in seen:
                    seen.add(env)
                    break
            where = f"geom WITHIN {_mbr(env)}"
            if kind == "s":
                block.append(Op("s", f"SELECT fid, geom, time FROM {TABLE} "
                                     f"WHERE {where}", envelope=env))
            elif kind == "st":
                span = rng.choice(ST_SPANS_S)
                lo = row["time"] - rng.uniform(0.0, span)
                block.append(Op(
                    "st", f"SELECT fid, time, amount FROM {TABLE} "
                          f"WHERE {where} AND time BETWEEN {_f(lo)} "
                          f"AND {_f(lo + span)} AND amount > {MIN_AMOUNT!r}",
                    envelope=env, t_range=(lo, lo + span)))
            else:
                block.append(Op(
                    "agg", f"SELECT category, count(*), avg(amount) "
                           f"FROM {TABLE} WHERE {where} GROUP BY category",
                    envelope=env))
        yield block


# -- knn ---------------------------------------------------------------------

def data_envelope(rows: list[dict]) -> tuple[float, float, float, float]:
    lngs = [r["geom"].lng for r in rows]
    lats = [r["geom"].lat for r in rows]
    return (min(lngs), min(lats), max(lngs), max(lats))


def _chunked_distances(points, rows):
    """Yield ``(start, distances)``: each chunk of ``points`` against
    every row, brute force."""
    lng = np.array([r["geom"].lng for r in rows])
    lat = np.array([r["geom"].lat for r in rows])
    xy = np.array(points, dtype=float)
    # Small chunks keep the temporaries (4 x 16 x rows floats) well
    # below the engine's own footprint, which ``peak_rss_mb`` measures.
    for start in range(0, len(xy), 16):
        chunk = xy[start:start + 16]
        yield start, np.hypot(lng[None, :] - chunk[:, :1],
                              lat[None, :] - chunk[:, 1:])


def snap_to_rows(points, rows) -> list[tuple[float, float]]:
    """Each point moved onto its nearest row's location."""
    out = []
    for _start, dist in _chunked_distances(points, rows):
        for index in np.argmin(dist, axis=1):
            geom = rows[int(index)]["geom"]
            out.append((geom.lng, geom.lat))
    return out


def radius_ranked(points, rows) -> dict[int, list]:
    """``points`` sorted, for each k, by their distance to the k-th
    nearest row."""
    kth = [k - 1 for k in KNN_KS]
    radii = np.empty((len(points), len(KNN_KS)))
    for start, dist in _chunked_distances(points, rows):
        radii[start:start + len(dist)] = \
            np.partition(dist, kth, axis=1)[:, kth]
    return {k: [points[i] for i in np.argsort(radii[:, c], kind="stable")]
            for c, k in enumerate(KNN_KS)}


#: Steps of the golden-ratio and plastic-number low-discrepancy sequences.
_GOLDEN = 0.6180339887498949
_PLASTIC = 0.7548776662466927


def knn_ops(seed: int, rows: list[dict], label: str = "timed"):
    """Endless blocks of 15 ``geom IN st_KNN(point, k)`` statements.

    A block holds, for each k, four query points at data rows and one
    uniform over the data envelope (80/20).  A kNN statement's cost
    follows how far Algorithm 1 must expand and where its cells fall,
    and spans two orders of magnitude from point to point; drawing fresh
    points for every seed moved a run's median by a quarter.  So the
    probe targets are a fixed design drawn from the city (like the
    hotspot layout, not from the seed): a pool of order locations and a
    pool of uniform points, ranked per k by the distance to the k-th
    neighbour in this seed's rows and taken at evenly spaced quantiles
    -- one per quartile for the data points -- behind offsets that step
    along low-discrepancy sequences from block to block.  Each data
    target is then moved onto its nearest row of this seed's table, so
    the points sit at data locations and the seed still changes every
    neighbourhood.  ``seed`` orders the statements within a block.
    """
    rng = random.Random(f"knn-{label}-{seed}")
    design = random.Random(f"knn-design-{label}")
    env = data_envelope(rows)
    targets = [(r["geom"].lng, r["geom"].lat)
               for r in city(f"knn-targets-{label}").generate(KNN_DATA_POOL)]
    data = radius_ranked(snap_to_rows(targets, rows), rows)
    uniform = radius_ranked([(design.uniform(env[0], env[2]),
                              design.uniform(env[1], env[3]))
                             for _ in range(KNN_UNIFORM_POOL)], rows)
    offset, uniform_offset = design.random(), design.random()
    while True:
        offset = (offset + _GOLDEN) % 1.0
        uniform_offset = (uniform_offset + _PLASTIC) % 1.0
        block = []
        for k in KNN_KS:
            pool = data[k]
            for j in range(KNN_DATA_POINTS):
                lng, lat = pool[int((j + offset) / KNN_DATA_POINTS
                                    * len(pool))]
                block.append((lng, lat, k, False))
            lng, lat = uniform[k][int(uniform_offset * len(uniform[k]))]
            block.append((lng, lat, k, True))
        rng.shuffle(block)
        yield [Op("knn", f"SELECT fid, geom FROM {TABLE} WHERE geom IN "
                         f"st_KNN(st_makePoint({_f(lng)}, {_f(lat)}), {k})",
                  point=(lng, lat), k=k, uniform=uniform_point)
               for lng, lat, k, uniform_point in block]


# -- ingest_mixed ------------------------------------------------------------

def ingest_ops(seed: int, base_rows: list[dict]):
    """Endless cycles: one poll of a :data:`POLL_EVENTS` burst, then
    :data:`READS_PER_POLL` reads of what was just ingested.

    Event times advance monotonically with bounded jitter (below the
    loader's ``max_delay_s``, so no event is ever late); a fifth of the
    events re-use an existing fid at a new place and time (upserts).
    """
    rng = random.Random(f"ingest-{seed}")
    sizes = design_sizes(f"polls-{seed}", POLL_EVENTS)
    places = city(f"places-{seed}")
    next_fid = len(base_rows)
    clock = ORDER_TIME_END
    recent: list[dict] = []
    while True:
        batch = []
        for fresh in places.generate(next(sizes)):
            clock += rng.uniform(0.0, 2.0 * EVENT_GAP_S)
            if rng.random() < UPSERT_SHARE:
                fid = rng.randrange(next_fid)
            else:
                fid = next_fid
                next_fid += 1
            event = to_event(fresh)
            event["fid"] = fid
            event["time"] = clock + rng.uniform(0.0, EVENT_JITTER_S)
            batch.append(event)
        cycle = [Op("poll", events=tuple(batch))]
        recent = (recent + batch)[-RECENT_EVENTS:]
        now = max(event["time"] for event in recent)
        for _ in range(READS_PER_POLL - 1):
            event = rng.choice(recent)
            env = _window(rng, event["lng"], event["lat"])
            lo = now - rng.choice(RECENT_HOURS) * 3_600.0
            cycle.append(Op(
                "recent", f"SELECT fid, time, amount FROM {TABLE} "
                          f"WHERE geom WITHIN {_mbr(env)} "
                          f"AND time BETWEEN {_f(lo)} AND {_f(now)}",
                envelope=env, t_range=(lo, now)))
        since = now - VIEW_LOOKBACK_S
        cycle.append(Op("view", f"SELECT window_start, category, orders, "
                                f"avg_amount FROM {VIEW} "
                                f"WHERE window_start >= {_f(since)}",
                        since=since))
        yield cycle
