"""Shared pieces of the layer-ladder benchmark.

Inputs, summary statistics, the brute-force oracle, the span recorder,
resource probes (peak RSS, bytes on disk) and the open-loop load generator.
Nothing here imports a layer beyond the ones it needs for the oracle, so
every workload module can use it.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from repro.baselines.serial_scan import SerialScan
from repro.core.series import Dataset
from repro.datasets.registry import load_dataset

#: The paper's high-frequency case, as every workload uses it.
DATASET = "LenDB"
SERIES_LENGTH = 256
LEAF_SIZE = 100
K = 10


# ----------------------------------------------------------------- inputs


def lendb(seed: int, num_rows: int, num_queries: int,
          corpus_seed: "int | None" = None):
    """Seeded LenDB-style rows plus held-out queries, as plain arrays.

    The corpus is generated from ``corpus_seed`` (default: ``seed``); ``seed``
    picks which of its series are held out as queries, and their order.
    """
    dataset = load_dataset(DATASET, num_series=num_rows + num_queries,
                           seed=seed if corpus_seed is None else corpus_seed)
    rows, queries = dataset.split(num_queries,
                                  rng=np.random.default_rng(seed))
    return (np.ascontiguousarray(rows.values),
            np.ascontiguousarray(queries.values))


def nproc() -> int:
    return max(1, len(os.sched_getaffinity(0)))


# ------------------------------------------------------------- statistics


def percentile(values, q: float) -> float:
    """``q``-th percentile, a measured sample (failures enter as ``inf``)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q,
                               method="higher"))


def median(values) -> float:
    return percentile(values, 50)


class Tally:
    """Attempted and failed operations of one phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._lock = threading.Lock()

    def count(self, failed: bool) -> None:
        with self._lock:
            self.attempted += 1
            self.failed += int(failed)

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed

    def add(self, other: "Tally") -> "Tally":
        self.attempted += other.attempted
        self.failed += other.failed
        return self


# ------------------------------------------------------------------ oracle


class OracleMismatch(AssertionError):
    """An answer differs from the brute-force oracle."""


def oracle_knn(values: np.ndarray, query: np.ndarray, k: int = K):
    """Exact k-NN by the serial-scan baseline over already-normalized rows."""
    scan = SerialScan().build(Dataset(values, name="oracle", normalize=False,
                                      validate=False))
    return scan.knn(query, k=k)


def check_answer(ids, distances, values: np.ndarray, query: np.ndarray,
                 what: str, k: int = K) -> None:
    """Raise :class:`OracleMismatch` unless ``ids`` is an exact k-NN answer.

    Exact means: the ids are distinct rows, each reported distance is that
    row's true distance, and the sorted distances equal the oracle's k
    smallest.  Equal distances may order their rows differently between
    kernels, so ids are compared only through their distances.
    """
    ids = np.asarray(ids, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    oracle_ids, oracle_distances = oracle_knn(values, query, k)
    if ids.shape != oracle_ids.shape or np.unique(ids).size != ids.size:
        raise OracleMismatch(f"{what}: got ids {ids.tolist()}, "
                             f"oracle {oracle_ids.tolist()}")
    if np.array_equal(ids, oracle_ids) and np.allclose(
            distances, oracle_distances, rtol=1e-9, atol=1e-9):
        return
    if ids.min() < 0 or ids.max() >= values.shape[0]:
        raise OracleMismatch(f"{what}: ids {ids.tolist()} out of range")
    _, true = oracle_knn(values[ids], query, ids.size)
    reported = np.sort(distances)
    if not (np.allclose(reported, true, rtol=1e-9, atol=1e-9)
            and np.allclose(reported, oracle_distances, rtol=1e-9,
                            atol=1e-9)):
        raise OracleMismatch(
            f"{what}: distances {reported.tolist()} differ from the "
            f"oracle's {oracle_distances.tolist()}")


# ------------------------------------------------------------------- spans


class Tracer:
    """In-memory spans: name, start, end, parent, request id.

    Spans nest through a per-thread stack, so a span opened inside another
    on the same thread records it as its parent.  ``add`` records a span
    measured elsewhere (the engine's own phase list) under an explicit
    parent.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.add(name, start, end, parent, request, span_id)

    def add(self, name: str, start: float, end: float, parent=None,
            request=None, span_id=None) -> int:
        span_id = next(self._ids) if span_id is None else span_id
        with self._lock:
            self.spans.append({"id": span_id, "name": name, "start": start,
                               "end": end, "parent": parent,
                               "request": request})
        return span_id

    def durations_ms(self, name: str) -> "list[float]":
        return [(s["end"] - s["start"]) * 1e3 for s in self.spans
                if s["name"] == name]

    def self_ms(self, name: str) -> "list[float]":
        """Each ``name`` span's duration minus the time its children cover."""
        children: "dict[int, list]" = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        out = []
        for s in self.spans:
            if s["name"] != name:
                continue
            covered, cursor = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], [])):
                start, end = max(start, cursor), min(end, s["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            out.append((s["end"] - s["start"] - covered) * 1e3)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                handle.write(json.dumps(s) + "\n")


class NullTracer:
    """The untraced run: every span is a no-op."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str, request=None):
        return self._null


# --------------------------------------------------------------- resources


def peak_rss_mb(pids=()) -> float:
    """Peak RSS of this process plus the given child processes, in MiB."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


def raw_bytes(num_rows: int) -> int:
    return num_rows * SERIES_LENGTH * 8


@contextmanager
def scratch_dir(root: Path):
    """A temporary directory inside the checkout, removed on every exit."""
    root.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=root))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            root.rmdir()
        except OSError:
            pass


# ------------------------------------------------------------ load shaping


class Phase:
    """Samples of one load condition, gathered over interleaved slices.

    Latencies are in ms, with failures as ``inf``; ``late_ms`` is how long
    after its due time each open-loop request was sent; ``elapsed_s`` is
    the wall time the phase ran; ``issued`` numbers requests across slices.
    """

    def __init__(self) -> None:
        self.latencies: "list[float]" = []
        self.late_ms: "list[float]" = []
        self.tally = Tally()
        self.elapsed_s = 0.0
        self.issued = 0
        self._lock = threading.Lock()

    def next_request(self) -> int:
        with self._lock:
            self.issued += 1
            return self.issued - 1

    def record(self, ok: bool, latency_ms: float) -> None:
        self.tally.count(not ok)
        with self._lock:
            self.latencies.append(latency_ms if ok else float("inf"))

    @property
    def completed_per_s(self) -> float:
        return self.tally.succeeded / self.elapsed_s


def _attempt(call, *args) -> bool:
    try:
        return bool(call(*args))
    except Exception:  # noqa: BLE001 - a failed operation is counted
        traceback.print_exc(file=sys.stderr)
        return False


def open_loop(phase: Phase, send, rate: float, duration_s: float,
              connections: int) -> None:
    """Send ``rate`` requests per second for ``duration_s`` seconds.

    Request ``n`` of the slice is due at ``start + n / rate`` whatever
    happened before, so a stall delays later requests too; ``connections``
    threads share the schedule and each takes the next due request when
    free.  Latency is counted from the due time.  ``send(i)`` gets the
    phase-wide request number and returns ``True`` on success.
    """
    total = max(1, int(rate * duration_s))
    slots = itertools.count()
    lock = threading.Lock()
    start = time.perf_counter() + 0.005

    def loop() -> None:
        while True:
            with lock:
                slot = next(slots)
            if slot >= total:
                return
            due = start + slot / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            ok = _attempt(send, phase.next_request())
            phase.record(ok, (time.perf_counter() - due) * 1e3)
            with phase._lock:
                phase.late_ms.append((sent - due) * 1e3)

    _run_threads(phase, loop, connections)


def closed_loop(phase: Phase, call, callers: int, duration_s: float) -> None:
    """``callers`` threads each call ``call(i)`` back to back.

    ``i`` is the phase-wide operation number; ``call`` returns ``True`` on
    success.
    """
    deadline = time.perf_counter() + duration_s

    def loop() -> None:
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            ok = _attempt(call, phase.next_request())
            phase.record(ok, (time.perf_counter() - start) * 1e3)

    _run_threads(phase, loop, callers)


def _run_threads(phase: Phase, target, count: int) -> None:
    begin = time.perf_counter()
    threads = [threading.Thread(target=target, name=f"load-{n}")
               for n in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.elapsed_s += time.perf_counter() - begin


def interleave(steps, seconds: float, slice_s: float) -> None:
    """Run ``steps`` — ``(step, share)`` pairs, ``step(duration_s)`` — in turn.

    Each pass gives every step ``share * slice_s`` seconds; a run makes
    ``seconds / slice_s`` passes (at least one), so every load condition
    samples the whole run, and a slow machine does not change how many
    slices each condition gets.
    """
    for _ in range(max(1, round(seconds / slice_s))):
        for step, share in steps:
            step(share * slice_s)
