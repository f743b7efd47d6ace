from collections import Counter
from itertools import islice

import pytest

from inputs import (
    DESIGN_ROUND,
    EVENT_JITTER_S,
    KNN_DATA_POINTS,
    KNN_KS,
    LOAD_BURST,
    POLL_EVENTS,
    READS_PER_POLL,
    radius_ranked,
    design_sizes,
    ingest_ops,
    knn_ops,
    load_bursts,
    order_rows,
    range_ops,
)


@pytest.fixture(scope="module")
def rows():
    return order_rows(3, 2000)


@pytest.mark.parametrize("make", [range_ops, knn_ops, ingest_ops])
def test_ops_are_a_pure_function_of_the_seed(rows, make):
    first = list(islice(make(3, rows), 6))
    again = list(islice(make(3, order_rows(3, 2000)), 6))
    other = list(islice(make(4, rows), 6))
    assert first == again
    assert first != other


def test_load_bursts_cover_the_rows_in_uneven_seeded_sizes():
    sizes = load_bursts(3, 50_000)
    assert sum(sizes) == 50_000
    assert all(LOAD_BURST[0] <= n <= LOAD_BURST[1] for n in sizes[:-1])
    assert 0 < sizes[-1] <= LOAD_BURST[1]
    assert sizes == load_bursts(3, 50_000) != load_bursts(4, 50_000)


def test_every_round_of_sizes_holds_the_same_design():
    def rounds(label):
        sizes = list(islice(design_sizes(label, POLL_EVENTS),
                            2 * DESIGN_ROUND))
        return sizes[:DESIGN_ROUND], sizes[DESIGN_ROUND:]

    first, second = rounds("a")
    assert sorted(first) == sorted(second) == sorted(rounds("b")[0])
    assert first != second and first != rounds("b")[0]
    assert len(set(first)) == DESIGN_ROUND
    assert POLL_EVENTS[0] <= min(first) and max(first) <= POLL_EVENTS[1]


def test_range_thirds_and_no_repeated_window(rows):
    blocks = list(islice(range_ops(3, rows), 100))
    for block in blocks:
        assert sorted(op.kind for op in block) == ["agg", "s", "st"]
    assert len({op.envelope for block in blocks for op in block}) == 300


def test_knn_blocks_fix_the_mix_and_spread_the_radius(rows):
    blocks = list(islice(knn_ops(3, rows), 3))
    pools = radius_ranked([op.point for b in blocks for op in b], rows)
    for block in blocks:
        assert len(block) == 15
        assert Counter(op.k for op in block) == {k: 5 for k in KNN_KS}
        assert sum(op.uniform for op in block) == 3
        for k in KNN_KS:
            data = [op.point for op in block if op.k == k and not op.uniform]
            assert len(data) == KNN_DATA_POINTS
            # Cheap to expensive: the k-th-neighbour radii differ.
            order = [pools[k].index(point) for point in data]
            assert len(set(order)) == KNN_DATA_POINTS
    statements = [op.sql for b in blocks for op in b]
    assert len(set(statements)) == len(statements)


def test_ingest_cycles_poll_then_reads(rows):
    cycles = list(islice(ingest_ops(3, rows), 10))
    for cycle in cycles:
        assert [op.kind for op in cycle] == \
            ["poll"] + ["recent"] * (READS_PER_POLL - 1) + ["view"]
        assert POLL_EVENTS[0] <= len(cycle[0].events) <= POLL_EVENTS[1]
    events = [e for cycle in cycles for e in cycle[0].events]
    # Bounded disorder: no event trails the running maximum by more than
    # the jitter, so the loader never drops one as late.
    running = float("-inf")
    for event in events:
        assert event["time"] > running - EVENT_JITTER_S
        running = max(running, event["time"])
    seen = {row["fid"] for row in rows}
    upserts = 0
    for event in events:
        upserts += event["fid"] in seen
        seen.add(event["fid"])
    assert 0.1 < upserts / len(events) < 0.3
