"""HTTP client for one shard worker: the remote half of the scatter.

:class:`RemoteShardClient` speaks the worker-mode RPC routes of
:mod:`repro.serve` (``/{index}/shard_knn``, ``shard_knn_batch``,
``shard_probe``) over plain ``http.client``.  Each calling
thread keeps one persistent HTTP/1.1 connection to the worker and reuses it
across calls.  The cached connection is dropped when the resolved endpoint
changes (a restarted worker binds a new ephemeral port), when a call fails
in any way (so a late answer to an abandoned request can never be read as
the next call's), and when the worker announces it will close.
:meth:`RemoteShardClient.close` closes every thread's connection.

Failure translation mirrors the in-process shard boundary:

* transport failures (refused, reset, timeout — what a ``kill -9``'d worker
  produces) raise as-is; the scatter's retry loop classifies them transient,
* a worker answering with a typed ``CorruptionError`` payload re-raises as
  :class:`~repro.core.errors.CorruptionError`, so the persistent-failure
  path (immediate quarantine, reload before readmission) fires exactly as it
  would in process,
* any other typed error payload becomes a transient
  :class:`~repro.core.errors.ShardError` naming the shard and the worker's
  verdict.

The RPC carries only what the coordinator's merge uses: shard-local ids and
their canonical squared distances.  The query travels as JSON numbers;
Python's ``repr`` emits the shortest string that round-trips the float64
bit pattern and ``json`` parses back to the same bits, so the worker
normalizes the same query bits and applies the same per-row ``einsum`` the
in-process shard would, and its squared distances return to the
coordinator bit for bit by the same round trip.
"""

from __future__ import annotations

import json
import threading
import time
from http.client import HTTPConnection

from repro.core.errors import CorruptionError, ShardError
from repro.obs.metrics import get_registry

#: Socket-level slack on top of the engine's search budget: a worker that
#: answers exactly at its deadline still needs transport time to deliver.
_TRANSPORT_GRACE_S = 0.25

_SHARD_RPC_SECONDS = get_registry().histogram(
    "repro_shard_rpc_seconds",
    "Coordinator-side latency of one shard RPC, by outcome: ok, rejected "
    "(the worker answered with an error), or transport (no usable "
    "answer).", labelnames=("shard", "outcome"))


class RemoteShardClient:
    """Per-shard RPC client; the engine-side of one cluster shard.

    ``resolve`` is a zero-argument callable returning the worker's current
    ``(host, port)`` or ``None`` — normally the supervisor's endpoint
    registry, so a restarted worker is re-resolved on the next call without
    any coordination.
    """

    def __init__(self, shard: int, resolve, *, index_name: str = "shard",
                 default_timeout_s: float = 30.0) -> None:
        self.shard = int(shard)
        self._resolve = resolve
        self._index_name = index_name
        self._default_timeout_s = float(default_timeout_s)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: "list[HTTPConnection]" = []
        self._closed = False
        self._rpc_seconds = {
            outcome: _SHARD_RPC_SECONDS.labels(shard=str(self.shard),
                                               outcome=outcome)
            for outcome in ("ok", "rejected", "transport")}

    # ------------------------------------------------------------ transport

    def _connection(self, endpoint: "tuple[str, int]",
                    timeout: float) -> HTTPConnection:
        """This thread's connection to ``endpoint``, opened on first use."""
        local = self._local
        connection = getattr(local, "connection", None)
        if connection is not None:
            if local.endpoint == endpoint and not self._closed:
                if connection.sock is not None:
                    connection.sock.settimeout(timeout)
                return connection
            self._discard(connection)
        if self._closed:
            raise ShardError(f"shard {self.shard} client is closed")
        host, port = endpoint
        connection = HTTPConnection(host, port, timeout=timeout)
        connection.connect()
        # Never reconnect implicitly: a socket reopened behind the registry's
        # back would outlive close().  A closed connection fails its call and
        # is replaced by a registered one.
        connection.auto_open = 0
        with self._lock:
            registered = not self._closed
            if registered:
                self._connections.append(connection)
        if not registered:
            connection.close()
            raise ShardError(f"shard {self.shard} client is closed")
        local.connection, local.endpoint = connection, endpoint
        return connection

    def _discard(self, connection: HTTPConnection) -> None:
        if getattr(self._local, "connection", None) is connection:
            self._local.connection = None
        with self._lock:
            if connection in self._connections:
                self._connections.remove(connection)
        connection.close()

    def _request(self, path: str, body: dict,
                 timeout_s: "float | None") -> "tuple[int, dict]":
        endpoint = self._resolve()
        if endpoint is None:
            raise ShardError(
                f"shard {self.shard} has no live worker endpoint "
                f"(worker down or restarting)")
        if timeout_s is None:
            timeout_s = self._default_timeout_s
        connection = self._connection(endpoint,
                                      timeout_s + _TRANSPORT_GRACE_S)
        try:
            connection.request("POST", path,
                               body=json.dumps(body).encode("utf-8"),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            raw = response.read()
            status = response.status
        except BaseException:
            self._discard(connection)
            raise
        if status != 200 or response.will_close:
            self._discard(connection)
        try:
            decoded = json.loads(raw) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._discard(connection)
            raise ShardError(
                f"shard {self.shard} worker sent an unparseable response "
                f"({error})") from None
        return status, decoded

    def _rpc(self, action: str, body: dict,
             timeout_s: "float | None") -> dict:
        started = time.perf_counter()
        try:
            status, payload = self._request(
                f"/{self._index_name}/{action}", body, timeout_s)
        except Exception:
            self._rpc_seconds["transport"].observe(
                time.perf_counter() - started)
            raise
        self._rpc_seconds["ok" if status == 200 else "rejected"].observe(
            time.perf_counter() - started)
        if status == 200:
            return payload
        error = payload.get("error", {}) if isinstance(payload, dict) else {}
        error_type = error.get("type", "HTTPError")
        message = error.get("message", f"HTTP {status}")
        if error_type == "CorruptionError":
            # Persistent: the worker's snapshot is damaged.  Re-raising the
            # same type routes the coordinator into immediate quarantine +
            # reload-before-readmission, exactly like an in-process shard.
            raise CorruptionError(
                f"shard {self.shard} worker: {message}")
        raise ShardError(
            f"shard {self.shard} worker answered {status} "
            f"({error_type}): {message}")

    # ----------------------------------------------------------------- RPCs

    def knn_once(self, query, k: int, timeout_s: "float | None",
                 threshold: "float | None") -> dict:
        """One scatter attempt: shard-local ids, squared, stats."""
        return self._rpc("shard_knn", {
            "query": query.tolist(),
            "k": int(k),
            "timeout_s": timeout_s,
            "threshold": threshold,
        }, timeout_s)

    def knn_batch_once(self, matrix, k: int,
                       timeout_s: "float | None") -> dict:
        """One batched scatter attempt over all queries at once."""
        return self._rpc("shard_knn_batch", {
            "queries": matrix.tolist(),
            "k": int(k),
            "timeout_s": timeout_s,
        }, timeout_s)

    def probe(self, timeout_s: "float | None" = None) -> dict:
        """The readmission probe: a real shard-local 1-NN on the worker."""
        return self._rpc("shard_probe", {}, timeout_s)

    def close(self) -> None:
        """Close every thread's connection; later calls raise ShardError."""
        with self._lock:
            self._closed = True
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
