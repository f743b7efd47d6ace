"""k-NN query (Algorithm 1) vs brute force."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.knn import knn_query
from repro.curves import STQuery
from repro.errors import ExecutionError
from repro.geometry import Envelope
from repro.geometry.distance import euclidean_distance

from conftest import make_poi_rows

#: kNN leaves are grid cells of this level (1 km default ``g``).
LEAF_LEVEL = 16
#: One finest Z2 cell, in degrees, per axis.
FINEST_LNG = 360.0 / 2 ** 31
FINEST_LAT = 180.0 / 2 ** 31


def brute_force(rows, lng, lat, k):
    ranked = sorted(rows, key=lambda r: ((r["geom"].lng - lng) ** 2
                                         + (r["geom"].lat - lat) ** 2))
    return [r["fid"] for r in ranked[:k]]


def leaf_edge_lng(lng):
    """The leaf-grid edge at or below ``lng``."""
    step = 360.0 / 2 ** LEAF_LEVEL
    return -180.0 + math.floor((lng + 180.0) / step) * step


def leaf_edge_lat(lat):
    step = 180.0 / 2 ** LEAF_LEVEL
    return -90.0 + math.floor((lat + 90.0) / step) * step


def assert_oracle(result, rows, lng, lat, k, centre):
    """kNN equals brute force: identical sorted distances, and the fid
    set is right modulo ties at the k-th distance."""
    scored = sorted((euclidean_distance(lng, lat, *centre(r)), r["fid"])
                    for r in rows)
    expected = [d for d, _fid in scored[:k]]
    assert result.distances == expected
    kth = expected[-1]
    got = [r["fid"] for r in result.rows]
    assert len(set(got)) == len(got)
    assert {f for d, f in scored if d < kth} <= set(got)
    assert set(got) <= {f for d, f in scored if d <= kth}


def point_engine(rows):
    from repro import JustEngine, Schema
    from conftest import POI_SCHEMA_FIELDS
    engine = JustEngine()
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("poi", rows)
    return engine.table("poi")


class TestKNN:
    def test_matches_brute_force(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 10)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.25, 39.9, 10))

    def test_distances_sorted(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 25)
        assert result.distances == sorted(result.distances)

    def test_k_larger_than_dataset(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 10_000)
        assert len(result.rows) == 500

    def test_query_point_outside_data(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.9, 40.3, 5)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.9, 40.3, 5))

    def test_pruning_happens(self, poi_engine):
        table = poi_engine.table("poi")
        result = knn_query(table, 116.25, 39.9, 5)
        assert result.areas_pruned > 0

    def test_invalid_k(self, poi_engine):
        with pytest.raises(ExecutionError):
            knn_query(poi_engine.table("poi"), 116.25, 39.9, 0)

    def test_explicit_search_area(self, poi_engine, poi_rows):
        table = poi_engine.table("poi")
        area = Envelope(116.0, 39.8, 116.5, 40.1)
        result = knn_query(table, 116.25, 39.9, 3, search_area=area)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(poi_rows, 116.25, 39.9, 3))

    def test_explicit_search_area_bounds_the_result(self, poi_engine,
                                                    poi_rows):
        # Leaves straddle the small area's edges; k exceeds the rows
        # inside it, so only the area can keep outside rows out.
        table = poi_engine.table("poi")
        area = Envelope(116.2013, 39.8517, 116.2611, 39.9003)
        inside = [r for r in poi_rows
                  if area.contains_point(r["geom"].lng, r["geom"].lat)]
        k = 25
        assert 0 < len(inside) < k
        result = knn_query(table, 116.23, 39.87, k, search_area=area)
        assert all(area.contains_point(r["geom"].lng, r["geom"].lat)
                   for r in result.rows)
        assert {r["fid"] for r in result.rows} == \
            {r["fid"] for r in inside}

    @staticmethod
    def _k_around_row_count(extra, width, height):
        # k = n - 1 expands cells; k >= n answers with one full scan.
        from repro.geometry import Point
        rng = random.Random(5)
        rows = [dict(row, geom=Point(116.2 + rng.random() * width,
                                     39.9 + rng.random() * height))
                for row in make_poi_rows(120, seed=5)]
        table = point_engine(rows)
        n = len(rows)
        k = 10 * n if extra is None else n + extra
        lng, lat = 116.21, 39.93
        result = knn_query(table, lng, lat, k)
        assert {r["fid"] for r in result.rows} == \
            set(brute_force(rows, lng, lat, k))
        assert result.distances == pytest.approx(sorted(
            ((r["geom"].lng - lng) ** 2 + (r["geom"].lat - lat) ** 2) ** 0.5
            for r in rows)[:k])

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_k_around_row_count_matches_brute_force(self, extra):
        # The rows sit in a 5 km x 3 km patch.
        self._k_around_row_count(extra, 0.05, 0.03)

    @pytest.mark.parametrize("extra", [-1, 0, 1, None])
    def test_k_around_row_count_spread_matches_brute_force(self, extra):
        # The rows spread over 0.5 x 0.3 degrees: k = n - 1 visits
        # every 1 km leaf of the data envelope that holds a row.
        self._k_around_row_count(extra, 0.5, 0.3)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), k=st.integers(1, 30))
    def test_property_matches_brute_force(self, poi_engine_factory,
                                          seed, k):
        engine, rows = poi_engine_factory
        rng = random.Random(seed)
        lng = 116.0 + rng.random() * 0.5
        lat = 39.8 + rng.random() * 0.3
        table = engine.table("poi")
        result = knn_query(table, lng, lat, k)
        expected = brute_force(rows, lng, lat, k)
        # Sets compare (ties at equal distance may reorder).
        got_d = result.distances
        exp_d = sorted(((r["geom"].lng - lng) ** 2
                        + (r["geom"].lat - lat) ** 2) ** 0.5
                       for r in rows)[:k]
        assert got_d == pytest.approx(exp_d)
        del expected


@pytest.fixture(scope="module")
def poi_engine_factory():
    from repro import JustEngine, Schema
    from conftest import POI_SCHEMA_FIELDS
    engine = JustEngine()
    rows = make_poi_rows(300, seed=23)
    engine.create_table("poi", Schema(list(POI_SCHEMA_FIELDS)))
    engine.insert("poi", rows)
    return engine, rows


class TestKNNLeafEdges:
    """Brute-force oracles for points on and next to the grid leaves'
    edges, where a row's key cell and its true position part by at
    most one finest Z2 cell."""

    @staticmethod
    def _edge_rows():
        from repro.geometry import Point
        rng = random.Random(31)
        x0 = leaf_edge_lng(116.25)
        y0 = leaf_edge_lat(39.9)
        step_x = 360.0 / 2 ** LEAF_LEVEL
        step_y = 180.0 / 2 ** LEAF_LEVEL
        coords = []
        for i in range(-2, 3):
            for j in range(-2, 3):
                ex, ey = x0 + i * step_x, y0 + j * step_y
                coords.append((ex, ey))  # a leaf corner
                coords.append((ex, ey + rng.random() * step_y))
                coords.append((ex + rng.random() * step_x, ey))
                for f in (-1.0, -0.5, 0.5, 1.0):  # within a finest cell
                    coords.append((ex + f * FINEST_LNG,
                                   ey + rng.random() * step_y))
                    coords.append((ex + rng.random() * step_x,
                                   ey + f * FINEST_LAT))
                coords.append((math.nextafter(ex, -math.inf),
                               math.nextafter(ey, -math.inf)))
                coords.append((math.nextafter(ex, math.inf),
                               math.nextafter(ey, math.inf)))
        # Background rows, then the corners of the data envelope.
        for _ in range(200):
            coords.append((x0 + (rng.random() - 0.5) * 0.2,
                           y0 + (rng.random() - 0.5) * 0.1))
        coords += [(x0 - 0.15, y0 - 0.08), (x0 + 0.15, y0 + 0.08),
                   (x0 - 0.15, y0 + 0.08), (x0 + 0.15, y0 - 0.08)]
        rows = [dict(row, geom=Point(lng, lat)) for row, (lng, lat)
                in zip(make_poi_rows(len(coords), seed=31), coords)]
        return rows, x0, y0

    @pytest.fixture(scope="class")
    def edge_table(self):
        rows, x0, y0 = self._edge_rows()
        return point_engine(rows), rows, x0, y0

    @staticmethod
    def _centre(row):
        return row["geom"].lng, row["geom"].lat

    def _query_points(self, x0, y0):
        step_x = 360.0 / 2 ** LEAF_LEVEL
        step_y = 180.0 / 2 ** LEAF_LEVEL
        points = [(x0, y0), (x0 + step_x, y0 + step_y),
                  (x0 + FINEST_LNG / 2, y0 - FINEST_LAT / 2),
                  (math.nextafter(x0, -math.inf), y0 + step_y / 2),
                  (x0 + step_x / 2, math.nextafter(y0, math.inf)),
                  (x0 - 0.15, y0 - 0.08), (x0 + 0.15, y0 + 0.08),
                  (x0 + 0.4, y0 - 0.3)]  # outside the data
        return points

    @pytest.mark.parametrize("k", [1, 4, 9, 30, 150])
    def test_points_on_and_beside_leaf_edges(self, edge_table, k):
        table, rows, x0, y0 = edge_table
        for lng, lat in self._query_points(x0, y0):
            result = knn_query(table, lng, lat, k)
            assert_oracle(result, rows, lng, lat, k, self._centre)

    def test_row_keyed_into_the_leaf_beyond_its_edge(self):
        # ``near`` lies one ulp left of a leaf edge, but its coordinate
        # normalises onto the edge, so its key is in the right-hand
        # leaf.  A second row sits in the query's own leaf, nearer than
        # that leaf's edge yet farther than ``near``: dA must not take
        # the right-hand leaf's edge as exact, or it is never queried.
        from repro.curves.zorder import Z2Curve
        from repro.geometry import Point
        edge = leaf_edge_lng(116.25)
        lat = leaf_edge_lat(39.9) + 0.5 * 180.0 / 2 ** LEAF_LEVEL
        q_lng = edge - 1e-3
        near = math.nextafter(edge, -math.inf)
        assert Z2Curve().lng_dim.normalize(near) == \
            Z2Curve().lng_dim.normalize(edge)
        gap = near - q_lng
        rise = gap + (edge - q_lng - gap) / 2
        assert gap < rise < edge - q_lng
        rows = [dict(row, geom=Point(lng, la)) for row, (lng, la) in zip(
            make_poi_rows(3, seed=2),
            [(near, lat), (q_lng, lat + rise), (edge + 0.05, lat)])]
        table = point_engine(rows)
        result = knn_query(table, q_lng, lat, 1)
        assert [r["fid"] for r in result.rows] == [rows[0]["fid"]]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8])
    def test_ties_at_the_kth_distance(self, k):
        # Rings of equidistant rows around a leaf corner: each ring's
        # rows lie in different leaves and tie with one another.
        from repro.geometry import Point
        x0 = leaf_edge_lng(116.25)
        y0 = leaf_edge_lat(39.9)
        offsets = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        coords = [(x0 + dx * r, y0 + dy * r)
                  for r in (0.001, 0.002) for dx, dy in offsets]
        coords += [(x0 + 0.01, y0 + 0.01), (x0 - 0.02, y0 + 0.015)]
        rows = [dict(row, geom=Point(lng, lat)) for row, (lng, lat)
                in zip(make_poi_rows(len(coords), seed=3), coords)]
        table = point_engine(rows)
        result = knn_query(table, x0, y0, k)
        assert_oracle(result, rows, x0, y0, k, self._centre)

    @pytest.mark.parametrize("k", [1, 5, 20, 60])
    def test_xz2_polygons_match_brute_force_by_centre(self, k):
        from repro import JustEngine, Schema, Field, FieldType
        from repro.geometry import Polygon
        rng = random.Random(17)
        x0 = leaf_edge_lng(116.25)
        y0 = leaf_edge_lat(39.9)
        rows = []
        for fid in range(160):
            lng = x0 + (rng.random() - 0.5) * 0.1
            lat = y0 + (rng.random() - 0.5) * 0.06
            if fid % 4 == 0:  # centred on a leaf corner
                lng = x0 + (fid % 7 - 3) * 360.0 / 2 ** LEAF_LEVEL
                lat = y0
            w = rng.random() * 0.004 + 1e-6
            h = rng.random() * 0.003 + 1e-6
            rows.append({"fid": fid, "geom": Polygon([
                (lng - w, lat - h), (lng + w, lat - h),
                (lng + w, lat + h), (lng - w, lat + h)])})
        engine = JustEngine()
        engine.create_table("shapes", Schema([
            Field("fid", FieldType.INTEGER, primary_key=True),
            Field("geom", FieldType.POLYGON)]))
        engine.insert("shapes", rows)
        table = engine.table("shapes")
        assert set(table.strategies) == {"xz2"}

        def centre(row):
            return row["geom"].envelope.center

        for lng, lat in [(x0, y0), (x0 + 0.013, y0 - 0.007),
                         (x0 - 0.06, y0 + 0.05)]:
            result = knn_query(table, lng, lat, k)
            assert_oracle(result, rows, lng, lat, k, centre)
