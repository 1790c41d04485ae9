"""Chaos harness for the fault-tolerance layer: the tuner and the daemon.

The sibling of :mod:`repro.observe.stress`: where that harness throws
seeded random task graphs at the scheduler, this one throws seeded fault
plans at the two places that must recover from them, and asserts one
invariant for each.  :func:`sweep` re-runs either check under many
injector seeds (``seed=N`` appended to the plan).

**Tuning** (:func:`check_fault_tolerance`): a tuning run under injected
worker faults produces a tuned configuration and history byte-identical
to a fault-free run with the same seed.  That holds because every
measurement is a pure function of its identity (a retry reproduces the
lost value) and the injector's default at-most-once policy bounds the
recovery attempts needed.

**Serving** (:func:`check_serve_resilience`, :func:`check_store_recovery`):
under any injected transport / handler / store fault schedule against a
live daemon (real sockets, real handler threads, the retrying
:class:`~repro.serve.client.ServeClient`), every request receives either
the byte-identical fault-free response or exactly one well-formed
structured error — never a hang, a duplicate side effect, or a corrupt
artifact; and a publish sequence under ``store-io-fail`` survives a
kill-and-restart with exactly the acknowledged versions.

What replays identically: fault decisions are pure functions of
``(seed, kind, request rid, attempt)``, the client's backoff jitter is
seeded and response bodies carry no wall-clock content, so a
``conn-drop``, ``slow-handler``, ``shed-storm`` or ``store-io-fail``
plan gives the same parity / structured-error split and the same client
and server counters on every run.  A plan with ``drain-race`` does not:
which requests are still in flight when the injected drain flips depends
on thread interleaving, so only the invariant holds there, not the
split.
"""

from __future__ import annotations

import json
import tempfile
import threading
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar,
)

from repro.autotuner.parallel import EvaluatorSpec, tune_from_spec
from repro.autotuner.tuner import TuneResult
from repro.faults.injector import FaultInjector
from repro.faults.recovery import RetryPolicy
from repro.observe.trace import ThreadSafeSink, TraceSink
from repro.serve.app import ServeApp, ServeError
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.daemon import ServeDaemon
from repro.serve.resilience import ResilienceConfig

Report = TypeVar("Report")


def sweep(
    check: Callable[[str], Report], inject: str, seeds: Iterable[int]
) -> List[Report]:
    """``check`` re-run on ``inject`` under each injector seed, so one
    plan is verified across many distinct crash / retry / shed
    interleavings."""
    return [check(f"{inject},seed={seed}") for seed in seeds]


# ---------------------------------------------------------------------------
# tuning under worker faults

#: GeneticTuner settings for a small-but-real tuning run: several
#: generations, real mutation and tunable search, seconds not minutes.
DEFAULT_TUNER_KWARGS: Dict[str, Any] = {
    "min_size": 16,
    "max_size": 64,
    "population_size": 4,
    "tunable_rounds": 1,
    "refine_passes": 0,
}


@dataclass
class FaultToleranceReport:
    """What one :func:`check_fault_tolerance` run observed."""

    baseline: TuneResult
    faulty: TuneResult
    counters: Dict[str, int]
    degraded: bool


def _history_rows(result: TuneResult) -> List[tuple]:
    return [
        (log.size, log.best_time, log.best_lineage, log.population,
         log.evaluated)
        for log in result.history
    ]


def check_fault_tolerance(
    spec: EvaluatorSpec,
    inject: str,
    jobs: int = 2,
    measure_timeout: float = 0.5,
    max_retries: int = 3,
    tuner_kwargs: Optional[Dict[str, Any]] = None,
    **evaluator_kwargs: Any,
) -> FaultToleranceReport:
    """Tune once fault-free and once under ``inject``; assert parity.

    Raises ``AssertionError`` if the faulty run's tuned configuration or
    generation history differs from the baseline; returns the report
    (including the recovery counters the faulty run emitted) on success.
    """
    tuner_kwargs = dict(DEFAULT_TUNER_KWARGS, **(tuner_kwargs or {}))
    baseline, _ = tune_from_spec(spec, tuner_kwargs)
    sink = TraceSink(capture_events=False)
    faulty, evaluator = tune_from_spec(
        spec,
        tuner_kwargs,
        jobs=jobs,
        sink=sink,
        measure_timeout=measure_timeout,
        max_retries=max_retries,
        injector=FaultInjector.parse(inject),
        **evaluator_kwargs,
    )
    assert (
        faulty.config.to_json() == baseline.config.to_json()
        and faulty.best_time == baseline.best_time
        and _history_rows(faulty) == _history_rows(baseline)
    ), (
        f"tuning under injected faults {inject!r} diverged from the "
        f"fault-free run: {faulty.config.to_json()} != "
        f"{baseline.config.to_json()}"
    )
    return FaultToleranceReport(
        baseline=baseline,
        faulty=faulty,
        counters=dict(sink.counters),
        degraded=evaluator.degraded,
    )


# ---------------------------------------------------------------------------
# serving under transport / handler / store faults

#: The machine-readable reasons a structured error may carry.
VALID_REASONS = frozenset(
    {"capacity", "queue_timeout", "draining", "deadline_exceeded",
     "store_io"}
)

#: HTTP statuses a structured (non-parity) outcome may have.  429/503
#: are sheds, 504 is a deadline — never a 500, never a hang.
VALID_STATUSES = frozenset({429, 503, 504})

#: The program the schedule exercises (same shape the serve tests use).
SCALE = """
transform Scale
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a * 2.0 + 1.0; }
}
"""

#: The combined fault plan: every transport/handler kind at once.
#: ``hang=0.05`` keeps an injected slow handler at 50 ms, and the small
#: probabilities keep most requests on the parity path so both arms of
#: the invariant are exercised in one run.
COMBINED_INJECT = (
    "conn-drop:0.3,slow-handler:0.3,shed-storm:0.3,drain-race:0.05,"
    "hang=0.05"
)

#: One plan per serve-side fault kind.
KIND_INJECTS: Dict[str, str] = {
    "conn-drop": "conn-drop:0.5",
    "slow-handler": "slow-handler:0.5,hang=0.05",
    "shed-storm": "shed-storm:0.5",
    "drain-race": "drain-race:0.1",
    "store-io-fail": "store-io-fail:0.5",
}


@dataclass
class ServeChaosReport:
    """What one serving check observed."""

    inject: str
    requests: int = 0
    parity: int = 0
    structured_errors: int = 0
    violations: List[str] = field(default_factory=list)
    server_counters: Dict[str, int] = field(default_factory=dict)
    client_counters: Dict[str, int] = field(default_factory=dict)
    hung_threads: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.hung_threads


def _schedule(requests: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """A deterministic ``(rid, route, payload-args)`` schedule mixing
    /run and /batch traffic; payloads vary per rid so parity is not
    trivially satisfied by identical responses."""
    plan = []
    for index in range(requests):
        rid = f"r{index}"
        if index % 3 == 2:
            lines = [
                json.dumps(
                    {
                        "transform": "Scale",
                        "inputs": {"A": [[float(index), float(lane)]]},
                    }
                )
                for lane in range(3)
            ]
            plan.append((rid, "batch", {"lines": lines}))
        else:
            plan.append(
                (
                    rid,
                    "run",
                    {
                        "transform": "Scale",
                        "inputs": {
                            "A": [[float(index), float(index) + 0.5]]
                        },
                    },
                )
            )
    return plan


def _issue(
    client: ServeClient,
    phash: str,
    rid: str,
    route: str,
    spec: Dict[str, Any],
) -> Tuple[str, Any]:
    """One scheduled request → ``("ok", canonical-bytes)`` or
    ``("error", (status, reason))`` or ``("crash", repr)``."""
    try:
        if route == "run":
            response = client.run(
                phash, spec["transform"], spec["inputs"], rid=rid
            )
        else:
            response = client.batch(phash, spec["lines"], rid=rid)
        return "ok", json.dumps(response, sort_keys=True)
    except ServeClientError as exc:
        return "error", (exc.status, exc.reason)
    except Exception as exc:  # transport giveup or worse
        return "crash", f"{type(exc).__name__}: {exc}"


def _run_schedule(
    daemon: ServeDaemon,
    phash: str,
    plan: Sequence[Tuple[str, str, Dict[str, Any]]],
    retry: RetryPolicy,
    client_sink: Optional[ThreadSafeSink] = None,
    workers: int = 4,
) -> Dict[str, Tuple[str, Any]]:
    """Drive the schedule through ``workers`` concurrent retrying
    clients; returns rid → outcome."""
    outcomes: Dict[str, Tuple[str, Any]] = {}
    lock = threading.Lock()
    pending = list(plan)

    def worker() -> None:
        client = ServeClient(
            port=daemon.port, timeout=30.0, retry=retry, sink=client_sink
        )
        while True:
            with lock:
                if not pending:
                    return
                rid, route, spec = pending.pop(0)
            outcome = _issue(client, phash, rid, route, spec)
            with lock:
                outcomes[rid] = outcome

    threads = [
        threading.Thread(target=worker, name=f"chaos-client-{i}")
        for i in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    hung = [t.name for t in threads if t.is_alive()]
    if hung:
        raise AssertionError(f"chaos clients hung: {hung}")
    return outcomes


def check_serve_resilience(
    inject: str,
    requests: int = 24,
    workers: int = 4,
    max_concurrency: int = 4,
) -> ServeChaosReport:
    """Assert the serving invariant for one fault plan (see module
    docstring).  Raises ``AssertionError`` on any violation; returns
    the report on success."""
    report = ServeChaosReport(inject=inject, requests=requests)
    plan = _schedule(requests)
    resilience = ResilienceConfig(
        max_concurrency=max_concurrency,
        # Roomy enough that the worker fleet alone can't overflow the
        # accept queue in the fault-free baseline (batches weigh their
        # line count); overload-shedding has its own benchmark gate.
        max_queue=4 * max_concurrency,
        queue_timeout_s=10.0,
        drain_timeout_s=2.0,
        retry_after_s=0.01,
    )
    retry = RetryPolicy(retries=4, backoff_s=0.01, max_backoff_s=0.2)

    # Phase 1: fault-free baseline — canonical bytes per rid.
    baseline_app = ServeApp(resilience=resilience)
    baseline = ServeDaemon(baseline_app, port=0).start_background()
    try:
        client = ServeClient(port=baseline.port, retry=retry)
        phash = client.compile(SCALE)["program"]
        expected = _run_schedule(baseline, phash, plan, retry,
                                 workers=workers)
    finally:
        baseline.stop()
    for rid, (state, value) in sorted(expected.items()):
        assert state == "ok", (
            f"fault-free baseline failed for {rid}: {value}"
        )

    # Phase 2: same schedule against a faulted daemon.
    injector = FaultInjector.parse(inject)
    sink = ThreadSafeSink(capture_events=False)
    client_sink = ThreadSafeSink(capture_events=False)
    app = ServeApp(sink=sink, resilience=resilience, injector=injector)
    daemon = ServeDaemon(app, port=0).start_background()
    try:
        client = ServeClient(port=daemon.port, retry=retry)
        assert client.compile(SCALE)["program"] == phash
        observed = _run_schedule(
            daemon, phash, plan, retry,
            client_sink=client_sink, workers=workers,
        )
    finally:
        daemon.stop()

    for rid, _route, _spec in plan:
        state, value = observed.get(rid, ("crash", "no outcome recorded"))
        if state == "ok":
            if value == expected[rid][1]:
                report.parity += 1
            else:
                report.violations.append(
                    f"{rid}: response diverged from fault-free bytes"
                )
        elif state == "error":
            status, reason = value
            if status in VALID_STATUSES and reason in VALID_REASONS:
                report.structured_errors += 1
            else:
                report.violations.append(
                    f"{rid}: unstructured error status={status} "
                    f"reason={reason!r}"
                )
        else:
            report.violations.append(f"{rid}: {value}")

    report.hung_threads = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("chaos-client-") and thread.is_alive()
    ]
    report.server_counters = dict(sink.counters)
    report.client_counters = dict(client_sink.counters)
    assert report.ok, (
        f"serving invariant violated under {inject!r}: "
        f"{report.violations or report.hung_threads}"
    )
    return report


def check_store_recovery(
    inject: str = KIND_INJECTS["store-io-fail"],
    publishes: int = 6,
) -> ServeChaosReport:
    """Assert durable-before-acknowledged publishing under injected
    store I/O failures across a simulated crash-and-restart."""
    from repro.compiler import ChoiceConfig

    report = ServeChaosReport(inject=inject, requests=publishes)
    injector = FaultInjector.parse(inject)
    sink = ThreadSafeSink(capture_events=False)
    with tempfile.TemporaryDirectory() as root:
        app = ServeApp(store_dir=root, sink=sink, injector=injector)
        phash = app.compile({"source": SCALE})["program"]
        acked = 0
        for index in range(publishes):
            config = ChoiceConfig()
            config.set_tunable("Scale.__leaf_path__", index % 2)
            try:
                entry = app.publish_config(
                    phash, "xeon8", "any", config, attempt=0
                )
            except ServeError as exc:
                if exc.code != "store_io":
                    report.violations.append(
                        f"publish {index}: unexpected error "
                        f"{exc.code!r}: {exc.message}"
                    )
                    continue
                report.structured_errors += 1
                # The retry contract: a second attempt of the same
                # publish must land durably (at-most-once injection).
                entry = app.publish_config(
                    phash, "xeon8", "any", config, attempt=1
                )
            acked = entry.version
            if entry.version != index + 1:
                report.violations.append(
                    f"publish {index}: version {entry.version}, "
                    f"expected {index + 1}"
                )
            report.parity += 1
        # Simulated crash: no drain, no close ordering — just restart
        # over the same artifact directory.
        app.close()
        recovered = ServeApp(store_dir=root)
        try:
            version = recovered.registry.current_version(
                phash, "xeon8", "any"
            )
            if version != acked:
                report.violations.append(
                    f"recovered version {version} != acknowledged {acked}"
                )
        finally:
            recovered.close()
    report.server_counters = dict(sink.counters)
    assert report.ok, (
        f"store recovery invariant violated under {inject!r}: "
        f"{report.violations}"
    )
    return report
