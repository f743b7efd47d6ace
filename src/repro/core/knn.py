"""k-NN query (Algorithm 1 of the paper).

The spatial range query is the building block: the search space is split
into areas kept in a priority queue ordered by their minimum distance to
the query point; areas are recursively quartered until smaller than the
system parameter ``g`` (1 km x 1 km), at which point a range query fetches
their records.  Expansion stops when the nearest unexplored area is
farther than the current k-th nearest record (Lemma 1, "area pruning").

The areas are the cells of the quad-tree that Z2/XZ2 normalisation
already lays over ``[-180, 180] x [-90, 90]`` (halved per level), not
quarters of the data envelope.  A leaf is therefore one Z2 curve cell:
on a z2 table its range query is one body range, one key range per
shard, where an unaligned 1 km box needs hundreds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.cluster.simclock import SimJob
from repro.curves.strategies import STQuery
from repro.curves.zorder import Z2Curve
from repro.errors import ExecutionError
from repro.geometry.distance import euclidean_distance, km_to_degrees
from repro.geometry.envelope import Envelope

#: Minimum queried area side (the ``g`` of Algorithm 1), in km.
DEFAULT_MIN_CELL_KM = 1.0

# The grid every spatial key normalises onto.  Its edges are exact
# binary fractions, so every cell corner below is computed exactly.
_CURVE = Z2Curve()
_BITS = Z2Curve.BITS_PER_DIM
_LNG = _CURVE.lng_dim
_LAT = _CURVE.lat_dim
_LNG_FINEST = (_LNG.high - _LNG.low) / (1 << _BITS)
_LAT_FINEST = (_LAT.high - _LAT.low) / (1 << _BITS)


@dataclass
class KNNResult:
    """Rows ordered nearest-first plus search diagnostics."""

    rows: list[dict]
    distances: list[float]
    areas_queried: int
    areas_pruned: int


def knn_query(table, lng: float, lat: float, k: int,
              job: SimJob | None = None,
              min_cell_km: float = DEFAULT_MIN_CELL_KM,
              search_area: Envelope | None = None) -> KNNResult:
    """Algorithm 1: k nearest records to ``(lng, lat)`` in ``table``.

    Distances are planar (degree-space) Euclidean, as in the paper.
    ``search_area`` defaults to the table's observed data envelope
    (falling back to the world) and bounds the expansion; an explicit
    one also bounds the result.  Without one, ``k`` at or above the
    table's row count asks for every row: one full scan and a distance
    sort answer it instead of an expansion down to ``g``-sized cells
    across the whole envelope.
    """
    if k <= 0:
        raise ExecutionError("k must be positive")
    clip = None if search_area is None else STQuery(envelope=search_area)
    if search_area is None and k >= table.row_count:
        return _every_row_by_distance(table, lng, lat, job)
    if search_area is None:
        search_area = table.data_envelope or Envelope.world()
        # Grow slightly so boundary records are not clipped away.
        search_area = search_area.buffer(1e-9, 1e-9)
    leaf_level = _leaf_level(km_to_degrees(min_cell_km))

    counter = itertools.count()
    # cq: max-heap of size k over candidate records -> store (-distance, n).
    cq: list[tuple[float, int, dict]] = []
    # aq: min-heap of grid cells (level, x, y) ordered by dA(q, a).
    aq: list[tuple[float, int, int, int, int]] = []

    def push(level: int, x: int, y: int) -> None:
        extent = _key_extent(level, x, y)
        if extent.intersects(search_area):
            heapq.heappush(aq, (extent.min_distance_to_point(lng, lat),
                                next(counter), level, x, y))

    push(*_root_cell(search_area, leaf_level))

    seen_fids: set[str] = set()
    areas_queried = 0
    areas_pruned = 0

    def dmax() -> float:
        return -cq[0][0] if len(cq) >= k else float("inf")

    while aq:
        d, _n, level, x, y = heapq.heappop(aq)
        if len(cq) == k and d > dmax():
            areas_pruned += 1 + len(aq)
            break  # Lemma 1: no remaining area can improve the result
        if level < leaf_level:
            for cx in (2 * x, 2 * x + 1):
                for cy in (2 * y, 2 * y + 1):
                    push(level + 1, cx, cy)
            continue
        areas_queried += 1
        # Every row the leaf's ranges cover is a candidate: ranking by
        # true distance makes an extra candidate harmless.
        rows = table.query(STQuery(envelope=_leaf_envelope(level, x, y)),
                           predicate=None, job=job)
        for row in rows:
            fid = table.schema.fid_of(row)
            if fid in seen_fids:
                continue  # extended objects span leaves
            seen_fids.add(fid)
            if clip is not None and not table._matches(row, clip,
                                                        "intersects"):
                continue
            env = table.record_envelope(row)
            distance = euclidean_distance(lng, lat, *env.center)
            if len(cq) < k:
                heapq.heappush(cq, (-distance, next(counter), row))
            elif distance < dmax():
                heapq.heapreplace(cq, (-distance, next(counter), row))

    ordered = sorted(cq, key=lambda item: -item[0])
    return KNNResult(
        rows=[row for _d, _n, row in ordered],
        distances=[-d for d, _n, _row in ordered],
        areas_queried=areas_queried,
        areas_pruned=areas_pruned,
    )


def _leaf_level(g_degrees: float) -> int:
    """First grid level whose cells are no wider and no taller than g."""
    level = 0
    while level < _BITS and (
            (_LNG.high - _LNG.low) / (1 << level) > g_degrees
            or (_LAT.high - _LAT.low) / (1 << level) > g_degrees):
        level += 1
    return level


def _root_cell(area: Envelope, leaf_level: int) -> tuple[int, int, int]:
    """The deepest cell, at most ``leaf_level`` deep, containing ``area``
    (the common prefix of its corners' Z2 cells)."""
    x_lo, y_lo, x_hi, y_hi = _CURVE.cell_of(area)
    level = leaf_level
    while level > 0:
        shift = _BITS - level
        if x_lo >> shift == x_hi >> shift and y_lo >> shift == y_hi >> shift:
            break
        level -= 1
    shift = _BITS - level
    return level, x_lo >> shift, y_lo >> shift


def _leaf_envelope(level: int, x: int, y: int) -> Envelope:
    """From the cell's lower corner to its last finest cell's lower
    corner: :meth:`Z2Curve.cell_of` maps it to exactly this cell."""
    shift = _BITS - level
    return _envelope(x << shift, y << shift,
                     ((x + 1) << shift) - 1, ((y + 1) << shift) - 1)


def _key_extent(level: int, x: int, y: int) -> Envelope:
    """Where a row whose key lies in the cell can lie.

    A coordinate just below an edge can normalise onto it, so the cell
    grows by one finest cell on its low sides; dA taken from this
    envelope keeps Lemma 1 exact on the cell's edges.
    """
    shift = _BITS - level
    return _envelope((x << shift) - 1, (y << shift) - 1,
                     (x + 1) << shift, (y + 1) << shift)


def _envelope(x0: int, y0: int, x1: int, y1: int) -> Envelope:
    """From finest cell ``(x0, y0)``'s lower corner to ``(x1, y1)``'s
    (:meth:`Dimension.denormalize`, inlined: kNN builds hundreds)."""
    return Envelope(_LNG.low + x0 * _LNG_FINEST, _LAT.low + y0 * _LAT_FINEST,
                    _LNG.low + x1 * _LNG_FINEST, _LAT.low + y1 * _LAT_FINEST)


def _every_row_by_distance(table, lng: float, lat: float,
                           job: SimJob | None) -> KNNResult:
    scored = []
    for row in table.full_scan(job):
        env = table.record_envelope(row)
        if env is not None:  # no geometry: no index finds it either
            scored.append((euclidean_distance(lng, lat, *env.center), row))
    scored.sort(key=lambda item: item[0])
    return KNNResult(rows=[row for _d, row in scored],
                     distances=[d for d, _row in scored],
                     areas_queried=0, areas_pruned=0)
