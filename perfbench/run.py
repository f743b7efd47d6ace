"""Wall-clock benchmark of the engine through its JSON service.

    python3 perfbench/run.py --workload range --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures the same ops once untraced and once with
every layer boundary wrapped, and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a detail report (and,
traced, every span) goes to ``.perfbench/`` under the repository root.
The exit code is 0 only when every result matched the oracle.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("range", "knn", "ingest_mixed")


def metric_units() -> dict:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _shares(counter) -> dict:
    total = sum(counter.values())
    return {str(k): round(v / total, 4) for k, v in sorted(counter.items())}


def properties(log, model) -> dict:
    """The run's workload properties, recorded beside its metrics."""
    from stats import median
    reads = sum(log.kinds[k] for k in log.kinds if k != "poll")
    sst = log.sstables
    step = max(1, len(sst) // 50)
    return {
        "op_shares": _shares(log.kinds),
        "rows_per_statement": {
            kind: {"mean": round(sum(v) / len(v), 2), "median": median(v),
                   "max": max(v), "statements": len(v)}
            for kind, v in sorted(log.rows_by_kind.items())},
        "k_shares": _shares(log.ks) if log.ks else {},
        "uniform_point_share": round(log.uniform_points / sum(
            log.ks.values()), 4) if log.ks else 0.0,
        "upsert_share": round(model.upserts / model.events, 4)
        if model.events else 0.0,
        "recent_read_share": round(log.kinds["recent"] / reads, 4)
        if reads else 0.0,
        "sstables_per_region_by_poll": [
            [i, round(v, 3)] for i, v in enumerate(sst)][::step],
    }


def untraced(workload: str, seed: int, seconds: float) -> dict:
    import stats
    import workloads as wl

    inputs = wl.Inputs.generate(workload, seed)
    run = wl.measure(workload, inputs, seed, seconds)
    setups, load_ms, log, model = run.setups_s, run.load_ms, run.log, \
        run.model
    warm = run.warmup
    if workload == "ingest_mixed":
        write_ms, rows_written = log.write_ms, log.rows_written
    else:  # no timed writes: the base-load polls of every set-up
        write_ms = load_ms
        rows_written = len(inputs.base_rows) * len(setups)
    read_pct = wl.READ_TAIL_PCT[workload]
    write_pct = wl.WRITE_TAIL_PCT[workload]
    metrics = {
        "setup_s": stats.median(setups),
        "read_p50_ms": stats.p50(log.read_ms),
        "read_tail_ms": stats.tail(log.read_ms, read_pct),
        "read_qps": log.reads / (sum(log.read_ms) / 1e3),
        "read_sim_p50_ms": stats.p50(log.read_sim_ms),
        "write_p50_ms": stats.p50(write_ms),
        "write_tail_ms": stats.tail(write_ms, write_pct),
        "ingest_rows_per_s": rows_written / (sum(write_ms) / 1e3),
        "space_amp": wl.space_amp(run.deployment.engine, model),
        "peak_rss_mb": peak_rss_mb(),
    }
    failures = warm.failures + log.failures
    write_wall_ms = log.write_wall_ms if workload == "ingest_mixed" \
        else None
    return {
        "metrics": metrics,
        "attempted": warm.attempted + log.attempted,
        "failures": failures,
        "notes": {
            "setup_s_each": setups,
            "read_tail_percentile": read_pct,
            "read_samples": log.reads,
            "write_tail_percentile": write_pct,
            "write_samples": len(write_ms),
            "write_source": "timed polls" if workload == "ingest_mixed"
            else "base-load polls of every set-up",
            "timed_seconds": round(log.busy_s, 3),
            "reference_seconds": round(log.scaled_s, 3),
            "speed_factor_p50": stats.median(log.factors),
            "speed_factor_p10_p90": [stats.percentile(log.factors, 10),
                                     stats.percentile(log.factors, 90)],
            "wall_setup_s": stats.median(run.setups_wall_s),
            "wall_read_p50_ms": stats.p50(log.read_wall_ms),
            "wall_write_p50_ms": stats.p50(write_wall_ms)
            if write_wall_ms else None,
            "failed_ratio": len(failures) / (warm.attempted
                                             + log.attempted),
        },
        "properties": properties(log, model),
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    import gc

    import layers
    import oracle
    import workloads as wl
    from tracer import Patcher, Tracer

    inputs = wl.Inputs.generate(workload, seed)

    def phase(tracer=None, max_blocks=None):
        dep = wl.fresh_deployment(workload, inputs)
        model = oracle.TableModel(inputs.base_rows)
        warm = wl.warm_up(dep, inputs, seed, model)
        engine = dep.engine
        io_before = engine.store.stats.snapshot()
        events_before = dict(engine.events.total_by_kind)
        batches_before = engine.metrics.counter("sql.batches").value
        log = wl.RunLog()
        budget = seconds / 2 if max_blocks is None else float("inf")
        if tracer is None:
            wl.run_ops(dep, inputs.ops(workload, seed), model, budget, log,
                       max_blocks=max_blocks)
        else:
            with Patcher() as patcher:
                layers.install(tracer, patcher)
                wl.run_ops(dep, inputs.ops(workload, seed), model, budget,
                           log, tracer, max_blocks)
        io = engine.store.stats.snapshot().delta(io_before)
        events = {kind: n - events_before.get(kind, 0)
                  for kind, n in engine.events.total_by_kind.items()}
        batches = engine.metrics.counter("sql.batches").value \
            - batches_before
        sstables = (sum(log.sstables) / len(log.sstables) if log.sstables
                    else layers.sstables_per_region(engine))
        return warm, log, model, io, events, batches, sstables

    # knn and ingest_mixed run a fixed block count here too, so the ops
    # behind their per-layer metrics do not change with machine speed.
    plain = phase(max_blocks=wl.block_count(workload, seconds / 2))
    gc.collect()
    tracer = Tracer()
    warm, log, model, io, events, batches, sstables = phase(
        tracer, max_blocks=plain[1].blocks)
    overhead = log.scaled_s / plain[1].scaled_s
    metrics = layers.layer_metrics(tracer, io, events, batches, sstables,
                                   overhead)
    roots_ns = sum(tracer.total[s] for s in tracer.trace_roots)
    self_ns = sum(tracer.self_ns)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.csv.gz"
    spans = tracer.write(trace_path)
    # The untraced and traced phases ran the same ops on fresh engines:
    # every count and every simulated latency must repeat exactly.
    same = (plain[1].read_sim_ms == log.read_sim_ms
            and plain[3] == io and plain[4] == events
            and plain[5] == batches
            and plain[1].rows_by_kind == log.rows_by_kind)
    failures = plain[0].failures + plain[1].failures + warm.failures \
        + log.failures
    if not same:
        failures.append("untraced and traced phases diverged: counters "
                        "or simulated latencies differ for one seed")
    return {
        "metrics": metrics,
        "attempted": (plain[0].attempted + plain[1].attempted
                      + warm.attempted + log.attempted),
        "failures": failures,
        "notes": {
            "ops": log.attempted,
            "untraced_seconds": round(plain[1].busy_s, 3),
            "traced_seconds": round(log.busy_s, 3),
            "spans": spans,
            "trace_file": str(trace_path.relative_to(ROOT)),
            "self_sum_ms": self_ns / 1e6,
            "root_sum_ms": roots_ns / 1e6,
            "root_over_measured_wall": roots_ns / 1e9 / log.busy_s,
            "repeatable": same,
            "io_counters": {k: v for k, v in vars(io).items()
                            if not k.startswith("per_server")},
            "events": events,
        },
        "properties": properties(log, model),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: engine sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run = traced if args.trace else untraced
    report = run(args.workload, args.seed, args.seconds)
    units = metric_units()
    report["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in report["metrics"].items()}
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1, default=str))

    for name, metric in report["metrics"].items():
        print(f"{name:32s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in report["notes"].items():
        print(f"# {name}: {value}")
    print(f"# properties: {json.dumps(report['properties'])[:2000]}")
    for failure in report["failures"][:20]:
        print(f"# FAILED {failure}")
    failed = len(report["failures"])
    print(json.dumps({"correct": failed == 0,
                      "attempted": report["attempted"],
                      "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
