"""Structured tracing and metrics for the runtime and autotuner.

The scheduler simulation, the task recorder, and the genetic autotuner
all accept an optional :class:`TraceSink`.  When no sink is attached
(the default) the instrumented code pays a single ``is None`` branch per
site — nothing is allocated, formatted, or stored — so production runs
and benchmarks are unaffected.  When a sink is attached, every
interesting transition is captured three ways:

* **events** — an ordered list of dicts (``{"kind": ..., "t": ..., ...}``)
  suitable for JSONL export and trace diffing.  Event kinds emitted by
  the scheduler: ``run_begin``, ``spawn`` (a task pushed on a deque),
  ``task_start``, ``task_finish``, ``steal``, ``idle``, ``busy``,
  ``run_end``.  The task recorder emits ``task_recorded``; the autotuner
  emits ``candidate`` and ``generation``.
* **counters** — monotonically increasing named integers
  (``scheduler.steals``, ``tuner.evaluations``, ``tuner.cache_hits``;
  parallel tuning adds ``tuner.pool.dispatches``, ``tuner.pool.batches``,
  ``tuner.cache.misses``, and ``tuner.cache.disk_hits``; the
  fault-tolerance layer adds ``tuner.pool.timeouts``,
  ``tuner.pool.retries``, ``tuner.pool.rebuilds``,
  ``tuner.pool.quarantines``, ``tuner.degraded_serial``, and
  ``tuner.cache.corrupt_lines`` — every recovery action is counted,
  so ``repro tune`` can summarise what it survived; the static verifier
  suite adds ``analysis.diagnostics.<CODE>`` per emitted diagnostic
  code plus ``analysis.errors`` / ``analysis.warnings`` /
  ``analysis.infos`` totals when a sink is passed to
  :func:`repro.analysis.run_check` or
  :func:`repro.analysis.record_report`; the execution engine adds
  ``exec.plan_hits`` / ``exec.plan_misses`` (one per transform frame:
  its run plan was replayed from cache / built first),
  ``exec.closure_calls``, ``exec.vectorized_blocks``,
  ``exec.vectorized_cells``, ``exec.vector_fallbacks``, and
  ``exec.geom_cache_hits`` / ``exec.geom_cache_misses`` /
  ``exec.geom_cache_evictions`` (one lookup per instance-rule step —
  counted by the geometry cache while a plan is built and by the replay
  on a plan hit, whose geometry *was* served from cache) when a sink is
  passed to ``CompiledTransform.run``; the batch execution engine adds
  ``batch.requests``, ``batch.buckets``, ``batch.stacked_steps``,
  ``batch.stacked_requests``, ``batch.fallbacks``, and
  ``batch.deadline_skips`` (requests resolved to a structured
  deadline-exceeded error by an expired gather budget); the serve
  daemon adds ``serve.requests``, ``serve.compiles`` /
  ``serve.program_hits`` (cold-start vs warm program accounting),
  ``serve.config_hits`` / ``serve.config_misses`` (registry lookups),
  ``serve.version_bumps``, ``serve.runs``, ``serve.batches``,
  ``serve.batch_requests``, ``serve.tune_jobs``, ``serve.connections``
  (sockets accepted) and ``serve.wire.packed`` / ``serve.wire.plain``
  (``/run`` and ``/batch`` requests asking for out-of-band reply arrays
  — a framed reply — or for nested lists), ``serve.bad_requests`` (a
  ``Content-Length`` the daemon refused to read by: not a non-negative
  integer, or above the body limit); the serving resilience layer adds
  ``serve.shed.capacity`` /
  ``serve.shed.queue_timeout`` / ``serve.shed.draining`` /
  ``serve.shed.injected`` (admission sheds by reason),
  ``serve.deadline.expired`` / ``serve.deadline.batch_requests``,
  ``serve.drain.begun`` / ``serve.drain.completed`` /
  ``serve.drain.forced``, ``serve.conn_dropped`` (client hangups while
  replying), and ``serve.store.write_failures``; the retrying
  :class:`~repro.serve.client.ServeClient` counts
  ``serve.retry.attempts`` / ``serve.retry.recoveries`` /
  ``serve.retry.giveups`` on its own sink).
* **histograms** — power-of-two bucketed distributions
  (``scheduler.deque_depth``, ``scheduler.task_duration``,
  ``tuner.pool.batch_size``, ``tuner.pool.batch_latency_ms``,
  ``batch.requests_per_sec``; the serve daemon adds per-endpoint
  request-latency histograms ``serve.request_ms``, ``serve.run_ms``,
  ``serve.batch_ms``, and ``serve.compile_ms``).

The per-batch latency histogram is the one deliberately wall-clock
(hence nondeterministic) metric; it never enters the event stream, so
exported JSONL traces stay byte-identical across runs and worker counts
— ``candidate`` events are emitted in deterministic batch order whether
tuning runs serially or on a process pool.

Because everything recorded is a pure function of (graph, machine,
workers, seed), two runs with identical inputs produce byte-identical
JSONL — the determinism invariant the stress harness checks.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterator, List


class Histogram:
    """Power-of-two bucketed distribution of non-negative values.

    ``buckets[k]`` counts observations ``v`` with ``2**(k-1) < v <= 2**k``
    (bucket 0 holds ``v <= 1``, including zero).  Tracks count / sum /
    min / max exactly so means are not bucket-quantized.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError("histograms record non-negative values")
        bucket = 0 if value <= 1 else math.ceil(math.log2(value))
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class TraceSink:
    """Collects events, counters, and histograms from instrumented code.

    One sink may be shared by several producers (recorder, scheduler,
    tuner); events interleave in emission order.  ``capture_events=False``
    keeps only counters/histograms — useful when tracing a tuning run
    whose per-task event stream would be enormous.
    """

    def __init__(self, capture_events: bool = True) -> None:
        self.capture_events = capture_events
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one structured event (skipped when capture_events=False)."""
        if not self.capture_events:
            return
        event: Dict[str, Any] = {"kind": kind}
        event.update(fields)
        self.events.append(event)

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- inspection --------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def events_of(self, kind: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["kind"] == kind]

    def summary(self) -> Dict[str, Any]:
        return {
            "events": len(self.events),
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def clear(self) -> None:
        self.events.clear()
        self.counters.clear()
        self.histograms.clear()

    # -- export ------------------------------------------------------------

    def jsonl_lines(self) -> Iterator[str]:
        """Every event as one canonical JSON line (sorted keys, so equal
        traces serialize to identical bytes)."""
        for event in self.events:
            yield json.dumps(event, sort_keys=True, default=str)

    def to_jsonl(self) -> str:
        return "".join(line + "\n" for line in self.jsonl_lines())

    def write_jsonl(self, path: str) -> int:
        """Dump all events to ``path``; returns the number of lines."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.jsonl_lines():
                handle.write(line + "\n")
                lines += 1
        return lines


class ThreadSafeSink(TraceSink):
    """A :class:`TraceSink` whose recording methods are guarded by one
    lock, for producers that emit from several threads at once (the
    serve daemon's request handlers and job workers).  Single-threaded
    producers should keep using :class:`TraceSink` — the bare dict
    updates there are cheaper and deterministic ordering is theirs to
    guarantee anyway.
    """

    def __init__(self, capture_events: bool = False) -> None:
        super().__init__(capture_events=capture_events)
        import threading

        self._lock = threading.Lock()

    def emit(self, kind: str, **fields: Any) -> None:
        with self._lock:
            super().emit(kind, **fields)

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            super().count(name, delta)

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            super().observe(name, value)


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a trace back (inverse of :meth:`TraceSink.write_jsonl`)."""
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
