"""Process-isolated sharded serving: the coordinator side.

:class:`ClusterIndex` is a :class:`~repro.index.sharded.ShardedIndex` whose
shard engines live in *separate supervised processes* instead of in-process
threads.  Only the three attempt/probe seams change — everything above them
(scatter orchestration, retry/backoff, the health board, quarantine, the
canonical candidate-union merge, degraded-answer policy, metrics, tracing)
is inherited unchanged, which is the point: a worker process dying under
``kill -9`` surfaces as an ordinary transient shard failure and takes
exactly the code path a wedged in-process engine would.

Identity contract (inherited, now across a process boundary):

* **Healthy cluster** — answers are bit-identical to the in-process
  :class:`~repro.index.sharded.ShardedIndex` over the same snapshot, which
  is itself bit-identical to one unsharded index over the same rows.  A
  worker answers with shard-local ids and canonical squared distances: it
  normalizes the same query bits (JSON numbers whose ``repr`` round-trips
  float64 exactly) and applies the same per-row ``einsum`` as the
  in-process shard, and the squared distances return by the same exact
  round trip, so the coordinator's ``(squared, row)`` merge sees the bits
  it would in process.
* **Degraded cluster** — with ``degraded="allow"``, answers during a worker
  outage are bit-identical to an index over the surviving shards' rows,
  flagged ``partial=True`` with ``coverage < 1``.
* The cross-shard best-so-far is forwarded to workers as a *frozen*
  threshold snapshot per attempt.  A frozen bound is merely looser than the
  live heap, so it can only under-prune — admissible by the same argument
  as the in-process tandem heap.

Recovery loop: worker dies → connection failures are transients → the board
quarantines the shard → the supervisor restarts the process with backoff →
the inherited probe loop RPC-probes the worker → readmission resets the
supervisor's breaker and backoff ladder (:meth:`probe_shard`), and coverage
returns to 1.  The cluster is read-only: shard-local writes would desync
the coordinator's global id maps, so mutations must go through a writable
in-process index and a republished snapshot.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.core.errors import ReadOnlyIndexError, ShardError
from repro.index.search import SearchStats, stats_from_payload
from repro.index.sharded import _SHARD_READMITS, ShardedIndex, _Shard
from repro.index.shard_health import SupervisorPolicy

from repro.cluster.client import RemoteShardClient
from repro.cluster.supervisor import ShardSupervisor


class ClusterIndex(ShardedIndex):
    """Scatter-gather over supervised per-shard worker processes.

    Construct with :meth:`launch`, which reads the sharded manifest, spawns
    one worker per shard under a :class:`~repro.cluster.supervisor
    .ShardSupervisor`, waits for readiness, and returns a read-only index
    whose ``knn`` / ``knn_batch`` match the in-process
    :class:`~repro.index.sharded.ShardedIndex` bit for bit.
    """

    def __init__(self, path, shards, *, supervisor: ShardSupervisor,
                 clients: "list[RemoteShardClient]",
                 probe_timeout_s: float = 2.0, **kwargs) -> None:
        kwargs["writable"] = False
        super().__init__(path, shards, **kwargs)
        self._supervisor = supervisor
        self._clients = clients
        self._probe_timeout_s = float(probe_timeout_s)

    # ---------------------------------------------------------------- launch

    @classmethod
    def launch(cls, path, *, degraded: str = "allow", retry=None, health=None,
               policy: "SupervisorPolicy | None" = None,
               host: str = "127.0.0.1", mmap: bool = True,
               verify: str = "lazy", gather_grace_s: float = 0.25,
               probe_timeout_s: float = 2.0,
               start_timeout_s: float = 30.0) -> "ClusterIndex":
        """Spawn one supervised worker per shard and attach to the cluster.

        Blocks until every worker answers ``/readyz`` (or raises a typed
        error after ``start_timeout_s``).  ``policy`` tunes supervision
        (restart backoff, heartbeats, the crash-loop breaker); ``retry`` /
        ``health`` tune the inherited answer-path fault handling.
        """
        path = Path(path)
        manifest = cls._read_manifest(path)
        shards = []
        for index, entry in enumerate(manifest["shards"]):
            globals_map = cls._globals_from_manifest(entry["globals"])
            shards.append(_Shard(index, path / entry["dir"], globals_map,
                                 int(entry.get("num_surviving",
                                               globals_map.shape[0]))))
        index_name = "shard"
        supervisor = ShardSupervisor(
            path, [shard.path for shard in shards], policy=policy, host=host,
            index_name=index_name, mmap=mmap, verify=verify)
        clients = [
            RemoteShardClient(shard.index,
                              (lambda i=shard.index: supervisor.endpoint(i)),
                              index_name=index_name)
            for shard in shards
        ]
        cluster = cls(path, shards, supervisor=supervisor, clients=clients,
                      probe_timeout_s=probe_timeout_s,
                      series_length=int(manifest["series_length"]),
                      next_global=int(manifest["next_global"]),
                      index_type=manifest.get("index_type", "sofa"),
                      degraded=degraded, retry=retry, health=health,
                      verify=verify, mmap=mmap,
                      gather_grace_s=gather_grace_s)
        supervisor._on_crash_loop = cluster._on_crash_loop
        supervisor.start()
        try:
            supervisor.wait_ready(start_timeout_s)
        except BaseException:
            supervisor.stop()
            raise
        return cluster

    @property
    def supervisor(self) -> ShardSupervisor:
        return self._supervisor

    def _on_crash_loop(self, shard: int, error: BaseException) -> None:
        """Breaker tripped: quarantine now so queries skip the thrashing
        shard instead of paying connection-refused retries each scatter."""
        if self._closed:
            return
        self._board.record_persistent(shard, error)
        self._note_quarantine(shard)

    # ------------------------------------------------------ remote attempts

    def _slice_timeout(self, shard: _Shard,
                       slice_deadline: "float | None") -> "float | None":
        if slice_deadline is None:
            return None
        timeout_s = slice_deadline - time.monotonic()
        if timeout_s <= 0:
            raise TimeoutError(
                f"shard {shard.index}: deadline slice expired")
        return timeout_s

    def _attempt_knn(self, shard: _Shard, slice_deadline: "float | None",
                     query: np.ndarray, normalized: np.ndarray, k: int,
                     global_best, offered: "list[bool]"):
        """One remote attempt: RPC the worker, translate ids, offer bounds.

        The shared best-so-far is snapshotted into the request (``None``
        while still infinite); the worker holds it frozen for the whole
        search.  Results are offered back to the live heap so shards that
        answer later, and retries, start from a tighter bound.  The worker
        normalizes the raw query itself, so ``normalized`` goes unused.
        """
        timeout_s = self._slice_timeout(shard, slice_deadline)
        threshold = float(global_best.threshold)
        payload = self._clients[shard.index].knn_once(
            query, k, timeout_s,
            threshold if np.isfinite(threshold) else None)
        surviving = int(payload["surviving"])
        global_ids = shard.globals_map[
            np.asarray(payload["ids"], dtype=np.int64)]
        squared = np.asarray(payload["squared"], dtype=np.float64)
        stats = stats_from_payload(payload["stats"])
        if global_ids.size:
            offered[shard.index] = True
            global_best.offer_block(squared, global_ids)
        # Keep the coordinator's surviving-row bookkeeping exact even while
        # the engine lives elsewhere: num_surviving sums these hints.
        shard.num_surviving_hint = surviving
        return (global_ids, squared), stats, surviving

    def _attempt_batch(self, shard: _Shard, slice_deadline: "float | None",
                       matrix: np.ndarray, normalized: np.ndarray, k: int):
        timeout_s = self._slice_timeout(shard, slice_deadline)
        payload = self._clients[shard.index].knn_batch_once(
            matrix, k, timeout_s)
        surviving = int(payload["surviving"])
        globals_map = shard.globals_map
        results = [
            (globals_map[np.asarray(entry["ids"], dtype=np.int64)],
             np.asarray(entry["squared"], dtype=np.float64))
            for entry in payload["results"]]
        stats = [stats_from_payload(entry) for entry in payload["stats"]]
        if len(results) != matrix.shape[0] or len(stats) != matrix.shape[0]:
            raise ShardError(
                f"shard {shard.index} worker answered {len(results)} results "
                f"for {matrix.shape[0]} queries")
        shard.num_surviving_hint = surviving
        return results, stats, surviving

    # --------------------------------------------------------------- health

    def probe_shard(self, index: int) -> bool:
        """RPC-probe the shard's worker; readmit and reset backoff on pass.

        The worker answers ``shard_probe`` with a real shard-local 1-NN, so
        a readmission means the restarted process actually serves queries —
        the same standard the in-process probe applies.  Success also resets
        the supervisor's crash-loop breaker and restart ladder
        (:meth:`~repro.cluster.supervisor.ShardSupervisor.note_recovered`):
        the shard has proven itself healthy, so the next failure starts a
        fresh escalation instead of inheriting stale history.
        """
        try:
            self._clients[index].probe(timeout_s=self._probe_timeout_s)
        except Exception as error:  # noqa: BLE001 — probe failed, stay out
            self._board.record_transient(index, error)
            return False
        self._board.readmit(index)
        _SHARD_READMITS.labels(shard=str(index)).inc()
        self._supervisor.note_recovered(index)
        return True

    # ------------------------------------------------------------ lifecycle

    def save(self) -> "ClusterIndex":
        raise ReadOnlyIndexError(
            "a cluster index is a read-only serving view; snapshots are "
            "written by the in-process index that built them")

    def close(self) -> None:
        """Stop the probe loop, scatter pool and connections, then workers."""
        super().close()
        for client in self._clients:
            client.close()
        self._supervisor.stop()
