from itertools import islice

import pytest

import oracle
import workloads as wl
from inputs import (ingest_ops, knn_ops, load_bursts, order_rows,
                    range_ops, to_event)

ROWS = 3000


@pytest.fixture(scope="module")
def deployed():
    rows = order_rows(5, ROWS)
    inputs = wl.Inputs(rows, [to_event(r) for r in rows],
                       load_bursts(5, ROWS))
    return inputs, wl.deploy("range", inputs)


def fetch(dep, op):
    return list(dep.client.execute_query(op.sql))


def test_engine_results_pass_and_tampered_ones_fail(deployed):
    inputs, dep = deployed
    model = oracle.TableModel(inputs.base_rows)
    ops = [op for block in islice(range_ops(5, inputs.base_rows), 4)
           for op in block]
    ops += next(knn_ops(5, inputs.base_rows))[:6]
    for op in ops:
        rows = fetch(dep, op)
        assert oracle.check(model, op, rows) is None, op.sql
        if not rows:
            continue
        dropped = rows[1:]
        assert oracle.check(model, op, dropped) is not None
        first = dict(rows[0])
        if op.kind == "agg":
            first["avg_amount"] += 0.01
        elif op.kind == "knn":
            first["fid"] = next(f for f in range(ROWS)
                                if f not in {r["fid"] for r in rows})
        else:
            first["time"] = first["time"] + 1.0
        assert oracle.check(model, op, [first] + rows[1:]) is not None
        if op.kind != "agg":
            assert oracle.check(model, op, rows + rows[:1]) is not None


def test_stale_row_after_upsert_fails(deployed):
    inputs, dep = deployed
    model = oracle.TableModel(inputs.base_rows)
    op = next(op for block in range_ops(5, inputs.base_rows)
              for op in block if op.kind == "s" and len(fetch(dep, op)) > 2)
    rows = fetch(dep, op)
    moved = dict(to_event(inputs.base_rows[rows[0]["fid"]]))
    moved["lng"] += 1.0   # the model moves the row out of the window
    model.apply_events([moved])
    assert model.upserts == 1
    assert "missing" in oracle.check(model, op, rows)


def test_view_oracle_counts_only_finalized_windows():
    base = order_rows(5, 100)
    model = oracle.TableModel(base)
    cycle = next(ingest_ops(5, base))
    model.apply_events(cycle[0].events)
    view_op = cycle[-1]
    watermark = model.max_event_time - oracle.MAX_DELAY_S
    expected = [
        {"window_start": start, "category": category, "orders": count,
         "avg_amount": total / count}
        for (start, category), (count, total) in model.windows.items()
        if start + oracle.VIEW_WINDOW_S <= watermark
        and start >= view_op.since]
    assert oracle.check(model, view_op, expected) is None
    if expected:
        assert oracle.check(model, view_op, expected[1:]) is not None
