"""What every metric means, and which end-to-end metric each layer moves.

Names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root (``end_to_end`` and ``per_layer``); this module explains
them.  The end-to-end metrics are what a user of the system sees; every
workload reports all of them (the untraced run).  Their meaning per
workload:

=============  ==============================================================
setup_s        median set-up, from generated rows in memory to ready to
               answer: build + save + mmap load + server start (serve-http,
               7 per run), sharded build + worker launch (cluster-rpc, 3),
               100k build (engine-scale, 3), base build + WAL + snapshot
               (ingest-mixed, one per round)
p50_ms         median latency of the query operation at light load: /knn at
               40 req/s, one ``ClusterIndex.knn`` caller, single ``knn`` with
               one worker, ``DynamicIndex.knn`` while the pending writes are
               under half the compaction threshold
busy_p50_ms    the same at the loaded condition: /knn at 160 req/s, nproc
               concurrent cluster callers, ``knn_batch`` of 64 with nproc
               workers (batch wall time per query), ``DynamicIndex.knn``
               once the pending writes pass half the threshold
ops_per_s      work completed per second: closed-loop /knn capacity with
               nproc connections, cluster queries with nproc callers,
               ``knn_batch`` queries (batch_qps), inserted rows over the
               whole ingest wall time including queries and compactions
               (insert_rows_per_s)
rss_mb         peak RSS of the run, plus the shard workers on cluster-rpc
disk_amp       bytes on disk (snapshot, plus WAL on ingest-mixed) over the
               raw float64 bytes of the live rows
=============  ==============================================================

The load conditions of a workload run in turn, a share of every 4-second
slice each, so each samples the whole run.

Failed operations (typed errors, non-200 answers, 503 sheds, partial
cluster answers, timed-out searches) are the JSON line's ``failed`` out of
``attempted``; a failed request counts as missing every latency target
(``inf`` in the percentiles).

``MOVES`` maps each per-layer metric (the traced run) to the end-to-end
metric and workload it should move.  Ladder-derived "self" figures are a
layer's median minus the median of the layer beneath it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_spec() -> dict:
    """``BENCHMARK.json`` as ``{"end_to_end": {name: spec}, ...}``."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {key: {entry["name"]: entry for entry in spec[key]}
            for key in ("end_to_end", "per_layer")}


MOVES = {
    # serve.routes
    "routes.knn_ms": "p50_ms on serve-http",
    "routes.self_ms": "p50_ms on serve-http",
    # serve.app
    "app.knn_ms": "p50_ms on serve-http",
    "app.self_ms": "p50_ms on serve-http",
    # serve.batching, parallel.batching
    "batching.wait_ms": "p50_ms and busy_p50_ms on serve-http",
    "batching.mean_batch_size": "busy_p50_ms on serve-http",
    # obs.metrics
    "metrics.scrape_ms": "none gated (observability)",
    # index.search
    "search.knn_ms": "p50_ms on engine-scale",
    "search.self_ms": "p50_ms on engine-scale",
    "search.summarize_ms": "p50_ms on engine-scale",
    "search.approximate_ms": "p50_ms on engine-scale",
    "search.traversal_ms": "p50_ms on engine-scale",
    "search.refinement_ms": "p50_ms on engine-scale",
    "search.finalize_ms": "p50_ms on engine-scale",
    "search.leaves_visited": "p50_ms on engine-scale",
    "search.series_lower_bounds": "p50_ms on engine-scale",
    "search.exact_distances": "p50_ms on engine-scale",
    "search.pruning_ratio": "p50_ms on engine-scale",
    "search.refine_yield": "p50_ms on engine-scale",
    # transforms.sfa
    "sfa.transform_us": "p50_ms on cluster-rpc and engine-scale",
    # core.simd
    "simd.lb_block_us": "p50_ms and ops_per_s on engine-scale",
    "simd.lb_block_bytes": "p50_ms and ops_per_s on engine-scale",
    # core.distance
    "distance.ed_block_us": "p50_ms and ops_per_s on engine-scale",
    "distance.ed_block_bytes": "p50_ms and ops_per_s on engine-scale",
    # index.batch_search, parallel.pool
    "batch_search.ms_per_query": "busy_p50_ms and ops_per_s on engine-scale",
    "pool.speedup": "ops_per_s on engine-scale",
    # index.tree
    "tree.build_s": "setup_s on engine-scale",
    "tree.num_leaves": "p50_ms on engine-scale",
    "tree.avg_leaf_size": "p50_ms on engine-scale",
    "tree.shard_avg_leaf_size": "p50_ms on cluster-rpc",
    # index.persistence
    "persistence.save_s": "setup_s on serve-http and cluster-rpc",
    "persistence.load_s": "setup_s on serve-http and cluster-rpc",
    "persistence.bytes_per_row": "disk_amp on serve-http and cluster-rpc",
    # index.sharded
    "sharded.knn_ms": "p50_ms on cluster-rpc",
    "sharded.shard_search_ms": "p50_ms on cluster-rpc",
    "sharded.self_ms": "p50_ms on cluster-rpc",
    # cluster.client, cluster.worker
    "rpc.shard_knn_ms": "p50_ms on cluster-rpc",
    "rpc.response_bytes": "p50_ms on cluster-rpc",
    "cluster.knn_ms": "p50_ms on cluster-rpc",
    "cluster.transport_ms": "p50_ms on cluster-rpc",
    # cluster.supervisor
    "supervisor.launch_s": "setup_s on cluster-rpc",
    "supervisor.restarts": "failed count on cluster-rpc",
    # index.dynamic
    "dynamic.insert_batch_ms": "ops_per_s on ingest-mixed",
    "dynamic.delete_us": "ops_per_s on ingest-mixed",
    "dynamic.knn_ms": "p50_ms on ingest-mixed",
    "dynamic.delta_rows": "p50_ms on ingest-mixed",
    "dynamic.compacting_knn_ms": "ops_per_s on ingest-mixed",
    "dynamic.compactions": "ops_per_s on ingest-mixed",
    "dynamic.compact_s": "busy_p50_ms and ops_per_s on ingest-mixed",
    # index.wal
    "wal.bytes_per_row": "disk_amp on ingest-mixed",
    "wal.overhead_ms": "ops_per_s on ingest-mixed",
    # the ladder and the harness (diagnostics, not gated)
    "ladder.app_over_search": "diagnostic",
    "ladder.routes_over_app": "diagnostic",
    "ladder.sharded_over_search": "diagnostic",
    "ladder.cluster_over_sharded": "diagnostic",
    "loadgen.late_p99_ms": "diagnostic",
    "e2e.p99_ms": "diagnostic",
    "e2e.p99_samples": "diagnostic",
    "e2e.busy_p99_ms": "diagnostic",
    "e2e.busy_p99_samples": "diagnostic",
    "e2e.failed_frac": "diagnostic",
    "trace.overhead": "diagnostic",
}


def format_report(workload: str, machine: dict, metrics: dict, specs: dict,
                  samples: dict, tally) -> str:
    """Readable lines: machine, each metric with unit and sample count (or
    the layer's target), then the operation count."""
    lines = [f"layerbench {workload}: nproc={machine['nproc']} "
             f"python={machine['python']} numpy={machine['numpy']}"]
    width = max(len(name) for name in specs)
    for name, spec in specs.items():
        value = metrics[name]
        shown = f"{value:.6g}" if math.isfinite(value) else str(value)
        note = (f"n={samples[name]}" if name in samples
                else f"-> {MOVES[name]}" if name in MOVES else "")
        lines.append(f"  {name:<{width}}  {shown:>12} {spec['unit']:<6} "
                     f"{note}".rstrip())
    lines.append(f"  operations: {tally.attempted} attempted, "
                 f"{tally.failed} failed")
    return "\n".join(lines)
