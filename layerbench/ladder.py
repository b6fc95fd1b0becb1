"""The traced run: the workload traced and untraced, then the layer ladder.

The ladder times calls into each layer's public functions, one layer at a
time, over the same seeded rows, and reads the counters the program already
exposes (``SearchStats``, the engine's ``trace=`` phases, ``/stats``,
``/metrics``, the shard RPC's ``stats``).  Every timed call is a span; a
layer's "self" figure is its median minus the median of the layer beneath
it, and ``search.self_ms`` is the engine call's span minus its phase spans.
"""

from __future__ import annotations

import json

import numpy as np

from repro.cluster import ClusterIndex
from repro.core.distance import squared_euclidean_batch
from repro.core.simd import batch_lower_bound
from repro.index.dynamic import DynamicIndex
from repro.index.persistence import load_index, save_index
from repro.index.sharded import ShardedIndex
from repro.index.stats import compute_structure_stats
from repro.serve import IndexServer, SearchApp, ServeConfig

from common import (
    K,
    LEAF_SIZE,
    NullTracer,
    OracleMismatch,
    Phase,
    Tally,
    check_answer,
    dir_bytes,
    lendb,
    median,
    nproc,
    open_loop,
    percentile,
)
from workloads import (
    ENGINE_CORPUS_SEED,
    HIGH_RATE,
    INSERT_ROWS,
    Context,
    HttpClient,
    http_get,
    ingest_inputs,
    ingest_round,
    sofa_factory,
    traced_knn,
)

#: Queries per ladder step, and passes over them.
LADDER_QUERIES = 64
PASSES = 2
BUILDS = 3
#: Repetitions of each kernel call.
KERNEL_REPEATS = 200
#: Seconds of the ladder's open loop at the serving layer's high rate.
BURST_S = 2.0


class Ladder:
    """One pass down the layers; fills ``self.metrics``."""

    def __init__(self, ctx: Context, engine_rows: int) -> None:
        self.ctx = ctx
        self.tracer = ctx.tracer
        self.tally = Tally()
        self.metrics: "dict[str, float]" = {}
        self.rows, self.queries = lendb(ctx.seed, ctx.scale.base_rows,
                                        LADDER_QUERIES)
        if engine_rows == ctx.scale.base_rows:
            self.engine_rows, self.engine_queries = self.rows, self.queries
        else:
            self.engine_rows, self.engine_queries = lendb(
                ctx.seed, engine_rows, LADDER_QUERIES,
                corpus_seed=ENGINE_CORPUS_SEED)

    # ---------------------------------------------------------------- helpers

    def timed(self, name: str, call, request=None):
        with self.tracer.span(name, request=request):
            return call()

    def ms(self, name: str) -> float:
        return median(self.tracer.durations_ms(name))

    def each_query(self, name: str, call) -> list:
        """``call(query)`` under a span, for every query, ``PASSES`` times."""
        results = []
        for number in range(PASSES):
            for position, query in enumerate(self.queries):
                results.append(self.timed(name, lambda: call(query),
                                          f"{name}-{number}-{position}"))
        return results

    # ----------------------------------------------------------------- layers

    def tree_and_search(self) -> None:
        """index.tree, index.search, transforms.sfa, core.simd/distance."""
        m, tracer = self.metrics, self.tracer
        index = None
        for number in range(BUILDS):
            index = None
            index = self.timed("tree.build",
                               lambda: sofa_factory().build(self.engine_rows),
                               f"build-{number}")
        m["tree.build_s"] = self.ms("tree.build") / 1e3
        structure = compute_structure_stats(index.tree)
        m["tree.num_leaves"] = structure.num_leaves
        m["tree.avg_leaf_size"] = structure.average_leaf_size
        half = (self.rows.shape[0] + 1) // 2
        m["tree.shard_avg_leaf_size"] = float(np.mean([
            compute_structure_stats(sofa_factory().build(part).tree)
            .average_leaf_size
            for part in (self.rows[:half], self.rows[half:])]))

        results = []
        for number in range(PASSES):
            for position, query in enumerate(self.engine_queries):
                results.append(traced_knn(index, query, tracer,
                                          f"search-{number}-{position}",
                                          num_workers=1))
        m["search.knn_ms"] = self.ms("search.knn")
        m["search.self_ms"] = median(tracer.self_ms("search.knn"))
        for phase in ("summarize", "approximate", "traversal", "refinement",
                      "finalize"):
            durations = tracer.durations_ms(f"search.{phase}")
            m[f"search.{phase}_ms"] = median(durations) if durations else 0.0
        stats = [result.stats for result in results[:LADDER_QUERIES]]
        m["search.leaves_visited"] = np.mean([s.leaves_visited
                                              for s in stats])
        m["search.series_lower_bounds"] = np.mean([s.series_lower_bounds
                                                   for s in stats])
        exact = np.mean([s.exact_distances for s in stats])
        m["search.exact_distances"] = exact
        m["search.pruning_ratio"] = np.mean([s.pruning_ratio for s in stats])
        m["search.refine_yield"] = K / exact
        self.engine_index = index

        summarization = index.tree.summarization
        query = self.engine_queries[0]
        summary = summarization.transform(query)
        for number in range(KERNEL_REPEATS):
            self.timed("sfa.transform",
                       lambda: summarization.transform(query), number)
        m["sfa.transform_us"] = self.ms("sfa.transform") * 1e3
        lower, upper, rows = [], [], 0
        for leaf in index.tree.leaves():
            lower.append(leaf.lower)
            upper.append(leaf.upper)
            rows += leaf.size
            if rows >= LEAF_SIZE:
                break
        lower = np.ascontiguousarray(np.vstack(lower)[:LEAF_SIZE])
        upper = np.ascontiguousarray(np.vstack(upper)[:LEAF_SIZE])
        for number in range(KERNEL_REPEATS):
            self.timed("simd.lb_block", lambda: batch_lower_bound(
                summary, lower, upper, summarization.weights), number)
        m["simd.lb_block_us"] = self.ms("simd.lb_block") * 1e3
        m["simd.lb_block_bytes"] = lower.nbytes + upper.nbytes + summary.nbytes
        block = np.ascontiguousarray(self.engine_rows[:LEAF_SIZE])
        for number in range(KERNEL_REPEATS):
            self.timed("distance.ed_block",
                       lambda: squared_euclidean_batch(query, block), number)
        m["distance.ed_block_us"] = self.ms("distance.ed_block") * 1e3
        m["distance.ed_block_bytes"] = block.nbytes + query.nbytes

    def batch_search(self) -> None:
        """index.batch_search and the worker pool behind it."""
        index, m = self.engine_index, self.metrics
        for workers in (1, nproc()):
            for number in range(PASSES + 1):
                self.timed(f"batch_search.workers-{workers}",
                           lambda: index.knn_batch(self.engine_queries, k=K,
                                                   num_workers=workers),
                           number)
        many = self.ms(f"batch_search.workers-{nproc()}")
        m["batch_search.ms_per_query"] = many / LADDER_QUERIES
        m["pool.speedup"] = self.ms("batch_search.workers-1") / many

    def serving(self) -> None:
        """index.persistence, serve.app, batching, serve.routes, obs.metrics."""
        m, scratch = self.metrics, self.ctx.scratch
        index = (self.engine_index if self.engine_rows is self.rows
                 else sofa_factory().build(self.rows))
        base = [index.knn(query, k=K, num_workers=1)
                for query in self.queries]
        self.base_answers = base
        for result, query in zip(base, self.queries):
            check_answer(result.indices, result.distances, self.rows, query,
                         "ladder engine")
        self.each_query("ladder.search",
                        lambda q: index.knn(q, k=K, num_workers=1))
        self.search_ms = self.ms("ladder.search")
        for number in range(BUILDS):
            path = scratch / f"ladder-snapshot-{number}"
            self.timed("persistence.save", lambda: save_index(index, path),
                       number)
            self.timed("persistence.load", lambda: load_index(path),
                       number)
        m["persistence.save_s"] = self.ms("persistence.save") / 1e3
        m["persistence.load_s"] = self.ms("persistence.load") / 1e3
        m["persistence.bytes_per_row"] = dir_bytes(path) / self.rows.shape[0]

        app = SearchApp(ServeConfig())
        app.load_snapshot("bench", path)
        try:
            answers = self.each_query(
                "app.knn", lambda q: app.knn("bench", q, k=K))
            self.compare("app", [(a["ids"], a["distances"])
                                 for a in answers])
            app_ms = self.ms("app.knn")
            report = app.stats()["indexes"]["bench"]["search"]
            engine_ms = report["wall_time_s"] / report["queries"] * 1e3
            m["app.knn_ms"] = app_ms
            m["app.self_ms"] = app_ms - self.search_ms
            m["batching.wait_ms"] = (
                np.mean(self.tracer.durations_ms("app.knn")) - engine_ms)
            server = IndexServer(app).start()
            try:
                self.routes(server, app_ms)
            finally:
                server.stop()
        finally:
            app.close()
        m["ladder.app_over_search"] = app_ms / self.search_ms

    def routes(self, server: IndexServer, app_ms: float) -> None:
        m = self.metrics
        client = HttpClient(server.host, server.port)
        try:
            def post(query):
                body = json.dumps({"query": query.tolist(), "k": K}).encode()
                status, raw = client.post("/bench/knn", body)
                self.tally.count(status != 200)
                return json.loads(raw)

            answers = self.each_query("routes.knn", post)
            self.compare("routes", [(a["ids"], a["distances"])
                                    for a in answers])
            for number in range(20):
                status, _ = self.timed(
                    "metrics.scrape",
                    lambda: http_get(server.host, server.port, "/metrics"),
                    number)
                self.tally.count(status != 200)
            before = json.loads(http_get(server.host, server.port,
                                          "/stats")[1])
            burst = Phase()
            bodies = [json.dumps({"query": q.tolist(), "k": K}).encode()
                      for q in self.queries]
            open_loop(burst, lambda i: client.post(
                "/bench/knn", bodies[i % len(bodies)])[0] == 200,
                HIGH_RATE, BURST_S, nproc())
            after = json.loads(http_get(server.host, server.port,
                                         "/stats")[1])
        finally:
            client.close()
        self.tally.add(burst.tally)
        routes_ms = self.ms("routes.knn")
        m["routes.knn_ms"] = routes_ms
        m["routes.self_ms"] = routes_ms - app_ms
        m["ladder.routes_over_app"] = routes_ms / app_ms
        m["metrics.scrape_ms"] = self.ms("metrics.scrape")
        first = before["indexes"]["bench"]["batching"]
        last = after["indexes"]["bench"]["batching"]
        m["batching.mean_batch_size"] = (
            (last["batched_queries"] - first["batched_queries"])
            / max(1, last["batches"] - first["batches"]))
        self.burst_late_ms = burst.late_ms

    def compare(self, layer: str, answers) -> None:
        """Every answer equals the in-process engine's, bit for bit."""
        for number, (ids, distances) in enumerate(answers):
            want = self.base_answers[number % LADDER_QUERIES]
            if (list(ids) != [int(r) for r in want.indices]
                    or list(distances) != [float(d)
                                           for d in want.distances]):
                raise OracleMismatch(f"ladder {layer}: answer {number} "
                                     f"differs from the engine's")

    def sharding(self) -> None:
        """index.sharded, cluster.client/worker, cluster.supervisor."""
        m, scratch = self.metrics, self.ctx.scratch
        path = scratch / "ladder-sharded"
        sharded = ShardedIndex.build(self.rows, path, num_shards=2,
                                     index_factory=sofa_factory)
        try:
            answers = self.each_query("sharded.knn",
                                      lambda q: sharded.knn(q, k=K))
        finally:
            sharded.close()
        self.compare("sharded", [(r.indices, r.distances) for r in answers])
        sharded_ms = self.ms("sharded.knn")
        m["sharded.knn_ms"] = sharded_ms
        m["sharded.self_ms"] = sharded_ms - self.search_ms
        m["ladder.sharded_over_search"] = sharded_ms / self.search_ms

        cluster = self.timed("supervisor.launch",
                             lambda: ClusterIndex.launch(path))
        try:
            answers = self.each_query("cluster.knn",
                                      lambda q: cluster.knn(q, k=K))
            for result in answers:
                self.tally.count(bool(result.stats.partial))
            self.compare("cluster", [(r.indices, r.distances)
                                     for r in answers])
            host, port = cluster.supervisor.endpoint(0)
            client = HttpClient(host, port)
            sizes, search_ms = [], []
            try:
                def shard_knn(query):
                    body = json.dumps({"query": query.tolist(),
                                       "k": K}).encode()
                    status, raw = client.post("/shard/shard_knn", body)
                    self.tally.count(status != 200)
                    sizes.append(len(raw))
                    search_ms.append(
                        json.loads(raw)["stats"]["wall_time_s"] * 1e3)

                self.each_query("rpc.shard_knn", shard_knn)
            finally:
                client.close()
            m["supervisor.restarts"] = sum(
                worker["restarts"] for worker in cluster.supervisor.report())
        finally:
            cluster.close()
        cluster_ms = self.ms("cluster.knn")
        m["supervisor.launch_s"] = self.ms("supervisor.launch") / 1e3
        m["cluster.knn_ms"] = cluster_ms
        m["rpc.shard_knn_ms"] = self.ms("rpc.shard_knn")
        m["rpc.response_bytes"] = median(sizes)
        m["sharded.shard_search_ms"] = median(search_ms)
        m["cluster.transport_ms"] = cluster_ms - sharded_ms
        m["ladder.cluster_over_sharded"] = cluster_ms / sharded_ms

    def dynamic(self) -> None:
        """index.dynamic and index.wal, over one ingest round."""
        m = self.metrics
        base, stream, queries = ingest_inputs(self.ctx)
        samples = {"light": [], "busy": [], "compacting": []}
        figures = ingest_round(self.ctx, 0, base, stream, queries, samples)
        self.tally.add(figures.tally)
        m["dynamic.insert_batch_ms"] = self.ms("dynamic.insert_batch")
        m["dynamic.delete_us"] = self.ms("dynamic.delete") * 1e3
        m["dynamic.knn_ms"] = self.ms("dynamic.knn")
        m["dynamic.delta_rows"] = float(np.mean(figures.delta_rows))
        m["dynamic.compacting_knn_ms"] = (median(samples["compacting"])
                                          if samples["compacting"] else 0.0)
        m["dynamic.compactions"] = figures.compactions
        m["dynamic.compact_s"] = (median(figures.compaction_s)
                                  if figures.compaction_s else 0.0)
        m["wal.bytes_per_row"] = figures.wal_bytes / figures.inserted
        # The same inserts with and without a log, interleaved.
        plain = DynamicIndex(sofa_factory().build(base))
        logged = DynamicIndex(sofa_factory().build(base),
                              wal_dir=self.ctx.scratch / "ladder-wal",
                              wal_fsync="batch")
        try:
            for number in range(stream.shape[0] // INSERT_ROWS):
                batch = stream[number * INSERT_ROWS:(number + 1)
                               * INSERT_ROWS]
                for name, index in (("wal.without", plain),
                                    ("wal.with", logged)):
                    self.timed(name, lambda: index.insert_batch(batch),
                               number)
        finally:
            logged.close()
        m["wal.overhead_ms"] = self.ms("wal.with") - self.ms("wal.without")


def traced_run(workload, args, scratch, tracer, scale):
    """Untraced and traced workload runs, then the ladder; per-layer metrics."""
    half = args.seconds / 2
    untraced = workload(Context(args.seed, half, scratch, NullTracer(),
                                scale))
    traced = workload(Context(args.seed, half, scratch, tracer, scale))
    engine_rows = (scale.engine_rows if args.workload == "engine-scale"
                   else scale.base_rows)
    ladder = Ladder(Context(args.seed, half, scratch, tracer, scale),
                    engine_rows)
    ladder.tree_and_search()
    ladder.batch_search()
    ladder.serving()
    ladder.sharding()
    ladder.dynamic()
    m = ladder.metrics
    m["trace.overhead"] = (median(traced.light_ms)
                           / median(untraced.light_ms))
    m["e2e.p99_ms"] = percentile(untraced.light_ms, 99)
    m["e2e.p99_samples"] = len(untraced.light_ms)
    m["e2e.busy_p99_ms"] = percentile(untraced.busy_ms, 99)
    m["e2e.busy_p99_samples"] = len(untraced.busy_ms)
    m["loadgen.late_p99_ms"] = percentile(
        untraced.late_ms or ladder.burst_late_ms, 99)
    tally = Tally().add(untraced.tally).add(traced.tally).add(ladder.tally)
    m["e2e.failed_frac"] = tally.failed / tally.attempted
    return m, tally
