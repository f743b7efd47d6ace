import pytest

import oracle
import workloads as wl
from inputs import load_bursts, order_rows, to_event


def small_inputs(seed, count):
    rows = order_rows(seed, count)
    return wl.Inputs(rows, [to_event(r) for r in rows],
                     load_bursts(seed, count))


@pytest.mark.parametrize("workload", ["range", "ingest_mixed"])
def test_two_runs_with_one_seed_repeat_every_count(workload):
    inputs = small_inputs(9, 1500)

    def run():
        dep = wl.deploy(workload, inputs)
        model = oracle.TableModel(inputs.base_rows)
        before = dep.engine.store.stats.snapshot()
        log = wl.RunLog()
        wl.run_ops(dep, inputs.ops(workload, 9), model, float("inf"), log,
                   max_blocks=3)
        io = dep.engine.store.stats.snapshot().delta(before)
        return log, io, dict(dep.engine.events.total_by_kind)

    (log_a, io_a, ev_a), (log_b, io_b, ev_b) = run(), run()
    assert log_a.failures == [] and log_b.failures == []
    assert log_a.blocks == log_b.blocks == 3
    assert log_a.attempted == log_b.attempted
    assert log_a.read_sim_ms == log_b.read_sim_ms
    assert log_a.rows_by_kind == log_b.rows_by_kind
    assert io_a == io_b and ev_a == ev_b
