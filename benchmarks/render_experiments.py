"""Render EXPERIMENTS.md from bench_results.json.

Run after ``pytest benchmarks/ --benchmark-only``:

    python benchmarks/render_experiments.py

Combines the measured figure tables with the paper's reported shapes so
EXPERIMENTS.md always reflects the latest benchmark run.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "bench_results.json"
OUTPUT = ROOT / "EXPERIMENTS.md"

#: Paper-side narrative per experiment: what Section VIII reports, and
#: which shape properties this reproduction is expected to preserve.
PAPER = {
    "Table I": {
        "paper": "Feature matrix of 12 systems: only JUST combines "
                 "scalability, SQL, updates, processing, S/ST and "
                 "non-point support.",
        "shape": "Matrix reproduced verbatim from the paper's rows.",
    },
    "Table II": {
        "paper": "Traj: 886.6M points / 314k records / 136 GB (2014-03); "
                 "Order: 71.0M points (2018-10..11); Synthetic: copy & "
                 "sample of Traj to 1.36 TB (2014-03..12).",
        "shape": "Generated at ~1/10000 volume with the same schema, "
                 "record-size ratio (Traj >> Order), skew, and time "
                 "spans; Synthetic is a jittered, time-shifted scale-up "
                 "of Traj.",
    },
    "Fig 10a": {
        "paper": "Order storage grows linearly; compressing the tiny "
                 "Order fields *increases* storage slightly.",
        "shape": "JUSTcompress >= JUST at every fraction; linear growth.",
    },
    "Fig 10b": {
        "paper": "Traj storage grows linearly; compression stores 136 GB "
                 "raw in ~30 GB (JUST well below JUSTnc).",
        "shape": "JUST < 0.7 x JUSTnc; linear growth.  Measured "
                 "compression ratio ~0.63 vs the paper's ~0.35 — the "
                 "generated GPS tracks carry more white noise than real "
                 "lorry traces, so DEFLATE finds less redundancy.",
    },
    "Fig 10c": {
        "paper": "Indexing Order: JUST slower than Spark systems "
                 "(indexing includes storing); Hadoop systems take hours "
                 "(not shown).",
        "shape": "JUST ~10x Spark load times, linear in data size.",
    },
    "Fig 10d": {
        "paper": "Indexing Traj: Simba OOM at 40%, SpatialSpark fails at "
                 "100%; JUST < JUSTnc (less write I/O).",
        "shape": "Same OOM crossovers; JUST < JUSTnc; JUST below the "
                 "Spark systems for trajectory rows.",
    },
    "Fig 11a": {
        "paper": "Spatial range (Order) vs data size: all grow; JUST "
                 "competitive with Spark systems, far ahead of "
                 "SpatialHadoop.",
        "shape": "Monotone growth; SpatialHadoop > 3x JUST (paper shows "
                 "an even larger gap as its job launch dominates a "
                 "longer-running cluster).",
    },
    "Fig 11b": {
        "paper": "Spatial range (Traj): Simba OOM > 20%, LocationSpark "
                 "OOM at 20%; JUST < JUSTnc (decompression beats the "
                 "extra disk I/O).",
        "shape": "Same OOM points; JUST < JUSTnc at every fraction.",
    },
    "Fig 11c": {
        "paper": "Bigger windows cost more for all systems (Order); "
                 "Simba/SpatialSpark slightly faster than JUST "
                 "(all-in-memory).",
        "shape": "Monotone in window size; Spark systems and JUST within "
                 "~2x of each other.",
    },
    "Fig 11d": {
        "paper": "Traj windows: JUST faster than SpatialSpark even with "
                 "SpatialSpark holding only 80% of the data.",
        "shape": "JUST below GeoSpark and SpatialSpark(80%) throughout.",
    },
    "Fig 12a": {
        "paper": "ST range (Order) vs data size: JUST fastest; among Z3 "
                 "variants longer periods do better (JUSTc < JUSTy < "
                 "JUSTd).",
        "shape": "JUST <= all variants at >= 60% data; variant ordering "
                 "JUSTc <= JUSTy <= JUSTd at 100%; JUSTd > 1.5x JUST "
                 "everywhere.",
    },
    "Fig 12b": {
        "paper": "ST range vs window (Order): JUST an order of magnitude "
                 "under ST-Hadoop (which holds only 20% of the data).",
        "shape": "ST-Hadoop(20%) > 5x JUST at every window; JUST leads "
                 "its variants.",
    },
    "Fig 12c": {
        "paper": "ST range vs window (Traj): JUST < JUSTnc < XZ3 "
                 "variants.",
        "shape": "Ordering preserved; the XZ3 year/century gaps are "
                 "larger here than the paper's because at g=8 the "
                 "century-period XZ3 cannot filter time at all and "
                 "degenerates to a full scan.",
    },
    "Fig 12d": {
        "paper": "ST range vs time window (Order): all grow; ST-Hadoop "
                 "~10x slower (11.3 s at 20% data); JUSTd degrades "
                 "fastest.",
        "shape": "Monotone in window; ST-Hadoop(20%) > 5x JUST up to 1d "
                 "windows; JUSTd > 3x JUST at 1m.",
    },
    "Fig 13a": {
        "paper": "k-NN (Order) vs data size: grows with data; JUST far "
                 "below GeoSpark/LocationSpark, competitive with Simba.",
        "shape": "JUST < GeoSpark and JUST < LocationSpark at every "
                 "data size; SpatialHadoop > JUST (expanding MapReduce "
                 "rounds).",
    },
    "Fig 13b": {
        "paper": "k-NN (Traj): Simba OOM at 40%; JUST slightly beats "
                 "JUSTnc.",
        "shape": "Same OOM point; JUST <= JUSTnc.",
    },
    "Fig 13c": {
        "paper": "k-NN vs k (Order): all grow mildly with k.",
        "shape": "Weakly monotone in k for JUST; JUST < GeoSpark at "
                 "every k.",
    },
    "Fig 13d": {
        "paper": "k-NN vs k (Traj): JUST a little better than JUSTnc.",
        "shape": "JUST <= JUSTnc at every k (k rescaled to the generated "
                 "record count; see harness.TRAJ_K_VALUES).",
    },
    "Fig 14a": {
        "paper": "Synthetic: indexing time and storage grow linearly; "
                 "1 TB indexed in ~1.5 h into 313 GB.",
        "shape": "Both series linear (5x data -> ~5x cost).",
    },
    "Fig 14b": {
        "paper": "Synthetic queries: k-NN and spatial range grow with "
                 "data; the ST range query is flat — per-period record "
                 "counts do not change when more periods are appended.",
        "shape": "S grows > 1.5x from 20% to 100%; ST stays within 1.5x "
                 "of its 20% value and sits below S at 100%.",
    },
    "Ablation A1": {
        "paper": "(design choice) Z2T period length vs query time window.",
        "shape": "Hour periods fan out badly on week-long queries; a day "
                 "is the sweet spot for the paper's workloads.",
    },
    "Ablation A2": {
        "paper": "(design choice) key-range decomposition budget.",
        "shape": "A starved budget (16 ranges) over-scans vs the default "
                 "256.",
    },
    "Ablation A3": {
        "paper": "(methodology) HBase block cache: the paper randomizes "
                 "queries to defeat it.",
        "shape": "A repeated identical query is far cheaper warm than "
                 "cold — which is why the harness clears caches between "
                 "queries.",
    },
    "Ablation A4": {
        "paper": "(design choice) shard-prefix count.",
        "shape": "Each extra shard multiplies per-query range fan-out; "
                 "writes spread further.  16 shards cost more per query "
                 "than 1.",
    },
    "Ablation A5": {
        "paper": "(design choice) GPS-list codec.",
        "shape": "gzip and zip both shrink the trajectory table vs "
                 "storing plain.",
    },
    "Ablation A6": {
        "paper": "(Table I) JUST is update-enabled; Spark systems "
                 "rebuild indexes on new data.",
        "shape": "Appending 1% new records costs JUST a small insert; "
                 "the GeoSpark path is a full reload, >5x more.",
    },
}

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure of the paper's evaluation (Section VIII), as
regenerated by ``pytest benchmarks/ --benchmark-only`` on the generated
laptop-scale datasets.  All "times" are **simulated milliseconds** from
the calibrated cluster cost model (see DESIGN.md §2); the claim preserved
is the *shape* of each result — who wins, by roughly what factor, where
the crossovers and failures fall — not the absolute numbers of the
authors' 5-node testbed.  Each figure's shape assertions are enforced by
the corresponding ``benchmarks/bench_*.py`` test, so a regression in any
shape fails the benchmark suite.

``OOM`` marks a simulated out-of-memory failure (the system's cached
footprint exceeded the cluster budget), matching the failures the paper
reports for the Spark-based systems.

Regenerate this file after a benchmark run with
``python benchmarks/render_experiments.py``.
"""


def render_table(entry: dict) -> str:
    series = entry["series"]
    params: list = []
    for values in series.values():
        for param in values:
            if param not in params:
                params.append(param)
    lines = ["| " + entry["param"] + " | "
             + " | ".join(str(p) for p in params) + " |",
             "|" + "---|" * (len(params) + 1)]
    for name, values in series.items():
        cells = []
        for param in params:
            value = values.get(param, values.get(str(param), "-"))
            if isinstance(value, float):
                cells.append(f"{value:.1f}")
            else:
                cells.append(str(value))
        lines.append("| " + name + " | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> None:
    results = json.loads(RESULTS.read_text())
    parts = [HEADER]
    order = list(PAPER)
    for figure_id in order:
        parts.append(f"\n## {figure_id}")
        entry = results.get(figure_id)
        narrative = PAPER[figure_id]
        if entry is not None:
            parts.append(f"\n*{entry['title']}*\n")
        parts.append(f"**Paper:** {narrative['paper']}\n")
        parts.append(f"**Reproduced shape:** {narrative['shape']}\n")
        if entry is None:
            parts.append("_Not present in the last benchmark run._\n")
            continue
        parts.append("**Measured:**\n")
        parts.append(render_table(entry))
        parts.append("")
    extras = sorted(set(results) - set(order))
    for figure_id in extras:
        entry = results[figure_id]
        parts.append(f"\n## {figure_id}\n")
        parts.append(f"*{entry['title']}*\n")
        parts.append(render_table(entry))
        parts.append("")
    OUTPUT.write_text("\n".join(parts))
    print(f"wrote {OUTPUT} ({len(results)} experiments)")


if __name__ == "__main__":
    main()
