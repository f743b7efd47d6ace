"""Brute-force oracle: every timed result is checked against a plain
model of the generated rows, outside the timed interval.

The model keeps one numpy column per field, indexed by fid, plus a live
mask; ``ingest_mixed`` upserts rewrite a fid's slot after the engine
acknowledged the poll, so a stale row (old place or time still
indexed) or a ghost row (a fid the model does not hold there) shows up
as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import MAX_DELAY_S, MIN_AMOUNT, VIEW_WINDOW_S, Op

#: Result coordinates travel as 8-decimal WKT.
COORD_TOL = 1e-8
#: Aggregates (floating sums) may differ from the model in the last bits.
REL_TOL = 1e-9
#: kNN distances are compared as sorted lists, so ties never matter.
DIST_TOL = 1e-12


class TableModel:
    """The table's expected contents, and the stream's windowed view."""

    def __init__(self, rows: list[dict]):
        size = max(1024, 2 * len(rows))
        self.lng = np.zeros(size)
        self.lat = np.zeros(size)
        self.time = np.zeros(size)
        self.amount = np.zeros(size)
        self.category = np.empty(size, dtype=object)
        self.live = np.zeros(size, dtype=bool)
        self.upserts = 0
        self.events = 0
        #: (window_start, category) -> [count, amount sum], stream only.
        self.windows: dict[tuple[float, str], list] = {}
        self.max_event_time: float | None = None
        for row in rows:
            self._put(row["fid"], row["geom"].lng, row["geom"].lat,
                      row["time"], row["amount"], row["category"])

    def _grow(self, fid: int) -> None:
        size = len(self.live)
        while fid >= size:
            size *= 2
        for name in ("lng", "lat", "time", "amount", "category", "live"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=old.dtype) if old.dtype != object \
                else np.empty(size, dtype=object)
            new[:len(old)] = old
            setattr(self, name, new)

    def _put(self, fid, lng, lat, time, amount, category) -> None:
        if fid >= len(self.live):
            self._grow(fid)
        self.lng[fid] = lng
        self.lat[fid] = lat
        self.time[fid] = time
        self.amount[fid] = amount
        self.category[fid] = category
        self.live[fid] = True

    @property
    def live_count(self) -> int:
        return int(self.live.sum())

    def live_rows(self) -> list[dict]:
        """Every live row as table field values (for byte accounting)."""
        from repro.geometry.point import Point
        return [{"fid": int(fid), "time": float(self.time[fid]),
                 "geom": Point(float(self.lng[fid]), float(self.lat[fid])),
                 "amount": float(self.amount[fid]),
                 "category": self.category[fid]}
                for fid in np.flatnonzero(self.live)]

    def apply_events(self, events) -> None:
        """Fold one acknowledged poll's source events into the model."""
        for event in events:
            fid = event["fid"]
            if fid < len(self.live) and self.live[fid]:
                self.upserts += 1
            self._put(fid, event["lng"], event["lat"], event["time"],
                      event["amount"], event["category"])
            start = math.floor(event["time"] / VIEW_WINDOW_S) \
                * VIEW_WINDOW_S
            state = self.windows.setdefault((start, event["category"]),
                                            [0, 0.0])
            state[0] += 1
            state[1] += float(event["amount"])
            if self.max_event_time is None or \
                    event["time"] > self.max_event_time:
                self.max_event_time = event["time"]
        self.events += len(events)

    def mask(self, envelope, t_range=None, min_amount=None) -> np.ndarray:
        lo_x, lo_y, hi_x, hi_y = envelope
        mask = (self.live & (self.lng >= lo_x) & (self.lng <= hi_x)
                & (self.lat >= lo_y) & (self.lat <= hi_y))
        if t_range is not None:
            mask &= (self.time >= t_range[0]) & (self.time <= t_range[1])
        if min_amount is not None:
            mask &= self.amount > min_amount
        return mask

    def nearest_distances(self, lng: float, lat: float, k: int):
        """The k smallest planar distances from ``(lng, lat)``, sorted."""
        fids = np.flatnonzero(self.live)
        dist = np.hypot(self.lng[fids] - lng, self.lat[fids] - lat)
        k = min(k, len(dist))
        return np.sort(np.partition(dist, k - 1)[:k])


def _fid_rows(rows: list[dict]) -> dict | str:
    by_fid = {}
    for row in rows:
        fid = row.get("fid")
        if not isinstance(fid, int):
            return f"non-integer fid {fid!r}"
        if fid in by_fid:
            return f"fid {fid} returned twice"
        by_fid[fid] = row
    return by_fid


def _check_rows(model: TableModel, rows: list[dict], mask,
                fields: tuple[str, ...]) -> str | None:
    by_fid = _fid_rows(rows)
    if isinstance(by_fid, str):
        return by_fid
    expected = set(np.flatnonzero(mask).tolist())
    got = set(by_fid)
    if got != expected:
        missing = sorted(expected - got)[:5]
        extra = sorted(got - expected)[:5]
        return (f"{len(got)} rows, expected {len(expected)}; "
                f"missing {missing} extra {extra}")
    for fid, row in by_fid.items():
        if "geom" in fields:
            geom = row.get("geom")
            if geom is None or \
                    abs(geom.lng - model.lng[fid]) > COORD_TOL or \
                    abs(geom.lat - model.lat[fid]) > COORD_TOL:
                return f"fid {fid}: geom {geom!r} is stale"
        if "time" in fields and row.get("time") != model.time[fid]:
            return f"fid {fid}: time {row.get('time')!r} is stale"
        if "amount" in fields and row.get("amount") != model.amount[fid]:
            return f"fid {fid}: amount {row.get('amount')!r} is stale"
    return None


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _check_groups(model: TableModel, rows: list[dict], mask) -> str | None:
    fids = np.flatnonzero(mask)
    expected: dict[str, list] = {}
    for fid in fids:
        state = expected.setdefault(model.category[fid], [0, 0.0])
        state[0] += 1
        state[1] += float(model.amount[fid])
    got = {row.get("category"): row for row in rows}
    if len(got) != len(rows) or set(got) != set(expected):
        return f"groups {sorted(map(str, got))} != {sorted(expected)}"
    for category, (count, total) in expected.items():
        row = got[category]
        if row.get("count") != count or \
                not _close(row.get("avg_amount"), total / count):
            return f"group {category}: {row} != ({count}, {total / count})"
    return None


def _check_knn(model: TableModel, op: Op, rows: list[dict]) -> str | None:
    by_fid = _fid_rows(rows)
    if isinstance(by_fid, str):
        return by_fid
    lng, lat = op.point
    expected = model.nearest_distances(lng, lat, op.k)
    if len(by_fid) != len(expected):
        return f"{len(by_fid)} neighbours, expected {len(expected)}"
    for fid, row in by_fid.items():
        if fid >= len(model.live) or not model.live[fid]:
            return f"fid {fid} is not in the table"
        geom = row.get("geom")
        if geom is None or abs(geom.lng - model.lng[fid]) > COORD_TOL or \
                abs(geom.lat - model.lat[fid]) > COORD_TOL:
            return f"fid {fid}: geom {geom!r} is stale"
    fids = np.fromiter(by_fid, dtype=np.int64)
    got = np.sort(np.hypot(model.lng[fids] - lng, model.lat[fids] - lat))
    worst = float(np.max(np.abs(got - expected)))
    if worst > DIST_TOL:
        return f"distance list differs by {worst:.3g}"
    return None


def _check_view(model: TableModel, op: Op, rows: list[dict]) -> str | None:
    watermark = model.max_event_time - MAX_DELAY_S \
        if model.max_event_time is not None else -math.inf
    expected = {key: state for key, state in model.windows.items()
                if key[0] + VIEW_WINDOW_S <= watermark
                and key[0] >= op.since}
    got = {}
    for row in rows:
        key = (row.get("window_start"), row.get("category"))
        if key in got:
            return f"view window {key} returned twice"
        got[key] = row
    if set(got) != set(expected):
        return (f"view windows {len(got)} != {len(expected)}: "
                f"{sorted(set(got) ^ set(expected))[:4]}")
    for key, (count, total) in expected.items():
        row = got[key]
        if row.get("orders") != count or \
                not _close(row.get("avg_amount"), total / count):
            return f"view window {key}: {row} != ({count}, {total / count})"
    return None


def check(model: TableModel, op: Op, rows: list[dict]) -> str | None:
    """``None`` when ``rows`` is exactly what ``op`` should return, else
    a one-line description of the first difference."""
    if op.kind == "s":
        return _check_rows(model, rows, model.mask(op.envelope),
                           ("geom", "time"))
    if op.kind == "st":
        return _check_rows(model, rows,
                           model.mask(op.envelope, op.t_range, MIN_AMOUNT),
                           ("time", "amount"))
    if op.kind == "recent":
        return _check_rows(model, rows, model.mask(op.envelope, op.t_range),
                           ("time", "amount"))
    if op.kind == "agg":
        return _check_groups(model, rows, model.mask(op.envelope))
    if op.kind == "knn":
        return _check_knn(model, op, rows)
    if op.kind == "view":
        return _check_view(model, op, rows)
    raise ValueError(f"no oracle for operation kind {op.kind!r}")
