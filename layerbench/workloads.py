"""The four workloads of the layer-ladder benchmark.

Each workload builds its system from seeded inputs, times its set-up
several times, drives its query loop for a share of the run's seconds,
checks the answers against the brute-force oracle off the clock, and
returns the end-to-end metrics (see ``metrics.py`` for their meaning on
each workload).  Every server, worker process and scratch directory is torn
down in ``finally`` blocks, so a failed run leaks nothing into the next.
"""

from __future__ import annotations

import gc
import http.client
import json
import shutil
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import ClusterIndex
from repro.core.normalization import znormalize_batch
from repro.index.dynamic import DynamicIndex
from repro.index.persistence import save_index
from repro.index.sharded import ShardedIndex
from repro.index.sofa import SofaIndex
from repro.obs.trace import Trace
from repro.serve import IndexServer, SearchApp, ServeConfig

from common import (
    K,
    LEAF_SIZE,
    OracleMismatch,
    Phase,
    Tally,
    check_answer,
    closed_loop,
    dir_bytes,
    interleave,
    lendb,
    median,
    nproc,
    open_loop,
    peak_rss_mb,
    raw_bytes,
)

#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3
SERVE_SETUPS = 7
#: Every load condition runs a share of each slice of this many seconds, in
#: turn, so each samples the whole run.
SLICE_S = 4.0
NUM_QUERIES = 256
#: Every served answer is compared with the engine's; every ORACLE_EVERY-th
#: query's engine answer is also checked against the brute-force oracle.
ORACLE_EVERY = 4
#: serve-http open-loop rates (requests per second).
LOW_RATE = 40.0
HIGH_RATE = 160.0
#: engine-scale batch size, and its query pool.
BATCH = 64
ENGINE_QUERIES = 1024
#: engine-scale draws its 100k rows from one fixed corpus and the run seed
#: picks the held-out queries and their order.  Per-seed corpora differ too
#: much at this size: the work per query (leaves visited) of two seeds'
#: corpora differed by 37%, which would swamp any change being measured.
ENGINE_CORPUS_SEED = 0
#: ingest-mixed mix per iteration, and iterations per round.
INSERT_ROWS = 32
DELETES = 2
QUERIES_PER_ITERATION = 4
ITERATIONS = 80
#: ingest-mixed: check the queries of every CHECK_EVERY-th iteration and
#: every CHECK_EVERY-th query issued while a compaction is in flight.
CHECK_EVERY = 8
#: ingest-mixed: longest wait for a background compaction's swap.
COMPACTION_WAIT_S = 60.0


@dataclass
class Scale:
    base_rows: int = 4000
    engine_rows: int = 100_000


SMOKE = Scale(base_rows=1000, engine_rows=3000)


@dataclass
class Context:
    seed: int
    seconds: float
    scratch: "object"
    tracer: "object"
    scale: Scale = field(default_factory=Scale)


@dataclass
class Outcome:
    """What one workload run measured."""

    metrics: dict
    tally: Tally
    #: Latency samples (ms) of the light and the loaded phase.
    light_ms: list
    busy_ms: list
    #: Set-ups timed, and operations behind ``ops_per_s``.
    setups: int
    ops: int
    #: How late each open-loop request was sent (ms), where there is one.
    late_ms: list = field(default_factory=list)

    @property
    def samples(self) -> dict:
        """Sample count behind each end-to-end metric."""
        return {"setup_s": self.setups, "p50_ms": len(self.light_ms),
                "busy_p50_ms": len(self.busy_ms), "ops_per_s": self.ops}


def sofa_factory():
    return SofaIndex(leaf_size=LEAF_SIZE)


def stop_all(stop, items) -> None:
    """``stop(item)`` for every item at once; each stop waits out a poll."""
    threads = [threading.Thread(target=stop, args=(item,)) for item in items]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def timed_setups(count: int, start, stop) -> "tuple[list, object]":
    """Time ``start(attempt)`` ``count`` times; keep the last system.

    The others are stopped together once all are timed; on failure every
    system started so far is stopped.
    """
    seconds, systems = [], []
    try:
        for attempt in range(count):
            began = time.perf_counter()
            systems.append(start(attempt))
            seconds.append(time.perf_counter() - began)
    except BaseException:
        stop_all(stop, systems)
        raise
    stop_all(stop, systems[:-1])
    return seconds, systems[-1]


def _merge(*tallies: Tally) -> Tally:
    total = Tally()
    for tally in tallies:
        total.add(tally)
    return total


# ---------------------------------------------------------------- serve-http


def http_get(host: str, port: int, path: str) -> "tuple[int, bytes]":
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def start_server(rows: np.ndarray, path) -> "tuple[IndexServer, SofaIndex]":
    """Build, snapshot, load (mmap) and serve ``rows``; return when ready."""
    index = sofa_factory().build(rows)
    save_index(index, path)
    app = SearchApp(ServeConfig())
    try:
        app.load_snapshot("bench", path)
        server = IndexServer(app).start()
    except BaseException:
        app.close()
        raise
    try:
        while http_get(server.host, server.port, "/readyz")[0] != 200:
            time.sleep(0.001)
    except BaseException:
        server.stop()
        raise
    return server, index


class HttpClient:
    """One persistent keep-alive connection per calling thread."""

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self._local = threading.local()
        self._connections: "list[http.client.HTTPConnection]" = []
        self._lock = threading.Lock()

    def post(self, path: str, body: bytes) -> "tuple[int, bytes]":
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(self.host, self.port,
                                                    timeout=30)
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        try:
            connection.request("POST", path, body,
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            connection.close()
            self._local.connection = None
            raise

    def close(self) -> None:
        with self._lock:
            for connection in self._connections:
                connection.close()
            self._connections.clear()


def serve_http(ctx: Context) -> Outcome:
    rows, queries = lendb(ctx.seed, ctx.scale.base_rows, NUM_QUERIES)
    bodies = [json.dumps({"query": query.tolist(), "k": K}).encode()
              for query in queries]
    order = np.random.default_rng(ctx.seed).permutation(NUM_QUERIES)
    tracer = ctx.tracer
    setups, (server, index) = timed_setups(
        SERVE_SETUPS,
        lambda attempt: start_server(rows,
                                     ctx.scratch / f"snapshot-{attempt}"),
        lambda started: started[0].stop())
    try:
        snapshot = ctx.scratch / f"snapshot-{SERVE_SETUPS - 1}"
        expected = []
        for query in queries:
            result = index.knn(query, k=K)
            expected.append(([int(r) for r in result.indices],
                             [float(d) for d in result.distances]))
        client = HttpClient(server.host, server.port)
        answers: "list[tuple[int, bytes]]" = []

        def sender(name: str):
            def send(i: int) -> bool:
                position = int(order[i % NUM_QUERIES])
                with tracer.span("workload.knn", request=f"{name}-{i}"):
                    status, raw = client.post("/bench/knn", bodies[position])
                if status != 200:
                    return False
                answers.append((position, raw))
                return True
            return send

        low, high, capacity = Phase(), Phase(), Phase()
        try:
            for i in range(16):  # warm the path off the clock
                sender("warm")(i)
            interleave([
                (lambda s: open_loop(low, sender("low"), LOW_RATE, s,
                                     nproc()), 0.4),
                (lambda s: open_loop(high, sender("high"), HIGH_RATE, s,
                                     nproc()), 0.35),
                (lambda s: closed_loop(capacity, sender("capacity"),
                                       nproc(), s), 0.25),
            ], ctx.seconds, SLICE_S)
            rss = peak_rss_mb()
        finally:
            client.close()
        for position, raw in answers:
            payload = json.loads(raw)
            if (payload["ids"], payload["distances"]) != expected[position]:
                raise OracleMismatch(
                    f"serve-http: /knn answer for query {position} differs "
                    f"from the engine's")
        for position in range(0, NUM_QUERIES, ORACLE_EVERY):
            check_answer(*expected[position], rows, queries[position],
                         f"serve-http query {position}")
        metrics = {
            "setup_s": median(setups),
            "p50_ms": median(low.latencies),
            "busy_p50_ms": median(high.latencies),
            "ops_per_s": capacity.completed_per_s,
            "rss_mb": rss,
            "disk_amp": dir_bytes(snapshot) / raw_bytes(rows.shape[0]),
        }
        return Outcome(metrics, _merge(low.tally, high.tally, capacity.tally),
                       low.latencies, high.latencies, SERVE_SETUPS,
                       capacity.tally.succeeded,
                       low.late_ms + high.late_ms)
    finally:
        server.stop()


# --------------------------------------------------------------- cluster-rpc


def launch_cluster(rows: np.ndarray, path) -> ClusterIndex:
    """Build a 2-shard snapshot of ``rows`` and launch its worker processes."""
    sharded = ShardedIndex.build(rows, path, num_shards=2,
                                 index_factory=sofa_factory)
    sharded.close()
    return ClusterIndex.launch(path)


def cluster_rpc(ctx: Context) -> Outcome:
    rows, queries = lendb(ctx.seed, ctx.scale.base_rows, NUM_QUERIES)
    order = np.random.default_rng(ctx.seed).permutation(NUM_QUERIES)
    reference = sofa_factory().build(rows)
    expected = [reference.knn(query, k=K) for query in queries]
    tracer = ctx.tracer
    setups, cluster = timed_setups(
        SETUPS,
        lambda attempt: launch_cluster(rows,
                                       ctx.scratch / f"sharded-{attempt}"),
        ClusterIndex.close)
    try:
        snapshot = ctx.scratch / f"sharded-{SETUPS - 1}"
        answers = []

        def call(i: int) -> bool:
            position = int(order[i % NUM_QUERIES])
            with tracer.span("workload.knn", request=str(i)):
                result = cluster.knn(queries[position], k=K)
            answers.append((position, result))
            return not result.stats.partial

        for i in range(8):  # warm connections and worker caches
            call(i)
        single, concurrent = Phase(), Phase()
        interleave([
            (lambda s: closed_loop(single, call, 1, s), 0.55),
            (lambda s: closed_loop(concurrent, call, nproc(), s), 0.45),
        ], ctx.seconds, SLICE_S)
        pids = [worker["pid"] for worker in cluster.supervisor.report()
                if worker["pid"] is not None]
        rss = peak_rss_mb(pids)
        for position, result in answers:
            want = expected[position]
            if not (np.array_equal(result.indices, want.indices)
                    and np.array_equal(result.distances, want.distances)):
                raise OracleMismatch(
                    f"cluster-rpc: answer for query {position} differs from "
                    f"the unsharded engine's")
        for position in range(0, NUM_QUERIES, ORACLE_EVERY):
            check_answer(expected[position].indices,
                         expected[position].distances, rows,
                         queries[position], f"cluster-rpc query {position}")
        metrics = {
            "setup_s": median(setups),
            "p50_ms": median(single.latencies),
            "busy_p50_ms": median(concurrent.latencies),
            "ops_per_s": concurrent.completed_per_s,
            "rss_mb": rss,
            "disk_amp": dir_bytes(snapshot) / raw_bytes(rows.shape[0]),
        }
        return Outcome(metrics, _merge(single.tally, concurrent.tally),
                       single.latencies, concurrent.latencies, SETUPS,
                       concurrent.tally.succeeded)
    finally:
        cluster.close()


# -------------------------------------------------------------- engine-scale


def traced_knn(index, query, tracer, request, **options):
    """``index.knn`` inside a span, with the engine's phases as children.

    The engine reports each phase's duration in order and the phases
    partition its wall time, so they are laid end to end from the call's
    start.
    """
    if not tracer.enabled:
        return index.knn(query, k=K, **options)
    trace = Trace()
    with tracer.span("search.knn", request=request) as parent:
        start = time.perf_counter()
        result = index.knn(query, k=K, trace=trace, **options)
    cursor = start
    for name, seconds in trace.breakdown().items():
        tracer.add(f"search.{name}", cursor, cursor + seconds, parent,
                   request)
        cursor += seconds
    return result


def engine_scale(ctx: Context) -> Outcome:
    rows, queries = lendb(ctx.seed, ctx.scale.engine_rows, ENGINE_QUERIES,
                          corpus_seed=ENGINE_CORPUS_SEED)
    order = np.random.default_rng(ctx.seed).permutation(queries.shape[0])
    tracer = ctx.tracer
    setups, index = [], None
    for _ in range(SETUPS):
        index = None  # free the previous 100k build before the next one
        start = time.perf_counter()
        index = sofa_factory().build(rows)
        setups.append(time.perf_counter() - start)
    index.knn(queries[0], k=K, num_workers=1)
    index.knn_batch(queries[:8], k=K, num_workers=nproc())
    answers: "dict[int, object]" = {}
    batched: "dict[int, object]" = {}

    def call(i: int) -> bool:
        position = int(order[i % queries.shape[0]])
        result = traced_knn(index, queries[position], tracer, f"single-{i}",
                            num_workers=1)
        answers.setdefault(position, result)
        return not result.stats.timed_out

    def run_batch(number: int) -> bool:
        first = (number * BATCH) % queries.shape[0]
        members = order[first:first + BATCH]
        with tracer.span("workload.knn_batch", request=f"batch-{number}"):
            results = index.knn_batch(queries[members], k=K,
                                      num_workers=nproc())
        for position, result in zip(members, results):
            batched.setdefault(int(position), result)
        return not any(result.stats.timed_out for result in results)

    single, batches = Phase(), Phase()
    interleave([
        (lambda s: closed_loop(single, call, 1, s), 0.65),
        (lambda s: closed_loop(batches, run_batch, 1, s), 0.35),
    ], ctx.seconds, SLICE_S)
    for position, result in batched.items():
        other = answers.get(position)
        if other is not None and not (
                np.array_equal(result.indices, other.indices)
                and np.array_equal(result.distances, other.distances)):
            raise OracleMismatch(
                f"engine-scale: knn_batch and knn disagree on query "
                f"{position}")
    for position in list(batched)[:16]:
        result = batched[position]
        check_answer(result.indices, result.distances, rows,
                     queries[position], f"engine-scale query {position}")
    snapshot = ctx.scratch / "engine-snapshot"
    save_index(index, snapshot)
    disk = dir_bytes(snapshot) / raw_bytes(rows.shape[0])
    shutil.rmtree(snapshot, ignore_errors=True)
    per_query = [ms / BATCH for ms in batches.latencies]
    metrics = {
        "setup_s": median(setups),
        "p50_ms": median(single.latencies),
        "busy_p50_ms": median(per_query),
        "ops_per_s": BATCH * batches.completed_per_s,
        "rss_mb": peak_rss_mb(),
        "disk_amp": disk,
    }
    return Outcome(metrics, _merge(single.tally, batches.tally),
                   single.latencies, per_query, SETUPS,
                   BATCH * batches.tally.succeeded)


# -------------------------------------------------------------- ingest-mixed


class Mirror:
    """The benchmark's own copy of a dynamic index's rows, by current id.

    A compaction renumbers the survivors (base order, then insert order), so
    on every generation swap the mirror drops its dead rows the same way.
    Inserts commute with that renumbering; deletes are only issued while no
    compaction is in flight, so they never race one.
    """

    def __init__(self, dynamic: DynamicIndex, capacity: int) -> None:
        base = np.asarray(dynamic.tree.dataset.values)
        self.values = np.empty((capacity, base.shape[1]))
        self.values[:base.shape[0]] = base
        self.alive = np.zeros(capacity, dtype=bool)
        self.alive[:base.shape[0]] = True
        self.count = base.shape[0]
        self.tree = dynamic.tree
        self.swaps = 0

    def append(self, matrix: np.ndarray) -> None:
        end = self.count + matrix.shape[0]
        self.values[self.count:end] = matrix
        self.alive[self.count:end] = True
        self.count = end

    def sync(self, dynamic: DynamicIndex) -> bool:
        """Follow a generation swap; ``True`` if one happened."""
        tree = dynamic.tree
        if tree is self.tree:
            return False
        survivors = np.flatnonzero(self.alive[:self.count])
        self.values[:survivors.size] = self.values[survivors]
        self.alive[:self.count] = False
        self.alive[:survivors.size] = True
        self.count = survivors.size
        self.tree = tree
        self.swaps += 1
        return True

    def snapshot(self) -> "tuple[np.ndarray, np.ndarray]":
        rows = np.flatnonzero(self.alive[:self.count])
        return self.values[rows], rows


def check_live(result, query, states, what: str) -> None:
    """The answer must be exact over one of ``states`` (before/after swap)."""
    error = None
    for values, rows in states:
        positions = np.searchsorted(rows, result.indices)
        if (positions >= rows.size).any() or not np.array_equal(
                rows[np.minimum(positions, rows.size - 1)], result.indices):
            error = OracleMismatch(f"{what}: answer holds a dead or unknown "
                                   f"row {result.indices.tolist()}")
            continue
        try:
            check_answer(positions, result.distances, values, query, what)
            return
        except OracleMismatch as mismatch:
            error = mismatch
    raise error


@dataclass
class IngestRound:
    """What one ingest round measured."""

    setup_s: float
    inserted: int
    wall_s: float
    disk_amp: float
    wal_bytes: int
    tally: Tally
    compactions: int
    #: Seconds from the insert that started each compaction to its swap.
    compaction_s: list
    #: Buffered delta rows at each query.
    delta_rows: list


def ingest_round(ctx: Context, number: int, base, stream, queries,
                 samples) -> IngestRound:
    """One fixed stream over a fresh dynamic index.

    A compaction started by an insert runs in the background.  Until its
    generation swap the loop keeps querying (the ``compacting`` samples)
    rather than block its next write on the rebuild, so the wall time still
    holds the whole compaction.  Other queries are ``busy`` once the pending
    writes reach half the compaction threshold, ``light`` before.
    """
    directory = ctx.scratch / f"round-{number}"
    rng = np.random.default_rng(ctx.seed + number)
    tracer = ctx.tracer
    tally = Tally()
    start = time.perf_counter()
    dynamic = DynamicIndex(sofa_factory().build(base), auto_compact=True,
                           wal_dir=directory / "wal", wal_fsync="batch")
    try:
        dynamic.save(directory / "snapshot")
        setup = time.perf_counter() - start
        mirror = Mirror(dynamic, base.shape[0] + stream.shape[0])
        normalized = znormalize_batch(stream)
        checking, asked, delta_rows = 0.0, 0, []

        def ask(request: str, phase: str, check: bool) -> None:
            nonlocal checking, asked
            query = queries[asked % queries.shape[0]]
            asked += 1
            delta_rows.append(dynamic.delta_count)
            if check:
                pause = time.perf_counter()
                mirror.sync(dynamic)
                before = mirror.snapshot()
                checking += time.perf_counter() - pause
            with tracer.span("dynamic.knn", request=request):
                t0 = time.perf_counter()
                result = dynamic.knn(query, k=K)
                elapsed = (time.perf_counter() - t0) * 1e3
            tally.count(bool(result.stats.timed_out))
            samples[phase].append(elapsed)
            if check:
                pause = time.perf_counter()
                states = [before]
                if mirror.sync(dynamic):
                    states.append(mirror.snapshot())
                check_live(result, query, states,
                           f"ingest-mixed round {number} query {request}")
                checking += time.perf_counter() - pause

        triggered, compaction_s, inserted = None, [], 0
        begin = time.perf_counter()
        for iteration in range(ITERATIONS):
            request = f"{number}-{iteration}"
            with tracer.span("ingest.iteration", request=request):
                limit = time.perf_counter() + COMPACTION_WAIT_S
                overlapped = 0
                while (triggered is not None and dynamic.needs_compaction
                       and time.perf_counter() < limit):
                    ask(request, "compacting", overlapped % CHECK_EVERY == 0)
                    overlapped += 1
                if triggered is not None and not dynamic.needs_compaction:
                    compaction_s.append(time.perf_counter() - triggered)
                triggered = None
                mirror.sync(dynamic)
                for _ in range(DELETES):
                    victim = int(rng.choice(np.flatnonzero(mirror.alive)))
                    with tracer.span("dynamic.delete", request=request):
                        dynamic.delete(victim)
                    mirror.alive[victim] = False
                    tally.count(False)
                loaded = (dynamic.delta_fraction
                          >= dynamic.compact_threshold / 2)
                for _ in range(QUERIES_PER_ITERATION):
                    ask(request, "busy" if loaded else "light",
                        iteration % CHECK_EVERY == 0)
                first = iteration * INSERT_ROWS
                with tracer.span("dynamic.insert_batch", request=request):
                    dynamic.insert_batch(stream[first:first + INSERT_ROWS])
                tally.count(False)
                inserted += INSERT_ROWS
                mirror.append(normalized[first:first + INSERT_ROWS])
                mirror.sync(dynamic)
                # auto_compact started a background merge iff this holds.
                if dynamic.needs_compaction:
                    triggered = time.perf_counter()
        wall = time.perf_counter() - begin - checking
        if dynamic.needs_compaction:
            dynamic.compact_in_background().wait()
        mirror.sync(dynamic)
        values, _ = mirror.snapshot()
        wal_bytes = dir_bytes(directory / "wal")
        disk = ((dir_bytes(directory / "snapshot") + wal_bytes)
                / raw_bytes(values.shape[0]))
        return IngestRound(setup, inserted, wall, disk, wal_bytes, tally,
                           mirror.swaps, compaction_s, delta_rows)
    finally:
        dynamic.close()
        shutil.rmtree(directory, ignore_errors=True)
        # Free this round's index now, not whenever a cycle collection runs,
        # so peak RSS does not depend on how many rounds fit in the run.
        gc.collect()


def ingest_inputs(ctx: Context):
    """Base rows, the inserted stream and the query pool of one seed."""
    rows, queries = lendb(ctx.seed,
                          ctx.scale.base_rows + ITERATIONS * INSERT_ROWS,
                          NUM_QUERIES)
    return rows[:ctx.scale.base_rows], rows[ctx.scale.base_rows:], queries


def ingest_mixed(ctx: Context) -> Outcome:
    base, stream, queries = ingest_inputs(ctx)
    samples = {"light": [], "busy": [], "compacting": []}
    rounds = []
    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or len(rounds) < 2:
        rounds.append(ingest_round(ctx, len(rounds), base, stream, queries,
                                   samples))
    metrics = {
        "setup_s": median([r.setup_s for r in rounds]),
        "p50_ms": median(samples["light"]),
        "busy_p50_ms": median(samples["busy"]),
        "ops_per_s": (sum(r.inserted for r in rounds)
                      / sum(r.wall_s for r in rounds)),
        "rss_mb": peak_rss_mb(),
        "disk_amp": median([r.disk_amp for r in rounds]),
    }
    return Outcome(metrics, _merge(*(r.tally for r in rounds)),
                   samples["light"], samples["busy"], len(rounds),
                   sum(r.inserted for r in rounds))


WORKLOADS = {
    "serve-http": serve_http,
    "cluster-rpc": cluster_rpc,
    "engine-scale": engine_scale,
    "ingest-mixed": ingest_mixed,
}
