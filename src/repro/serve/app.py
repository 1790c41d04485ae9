"""Transport-independent serve-daemon logic.

:class:`ServeApp` implements every endpoint as a plain
``payload dict → response dict`` method, so the HTTP layer
(:mod:`repro.serve.daemon`) is pure marshaling and the test suite can
drive the daemon — including its concurrency — without sockets.

The contract (see README "Serving" for the client view):

================  ======  ===============================================
endpoint          method  semantics
================  ======  ===============================================
/health           GET     liveness + registry sizes
/ready            GET     readiness; 503 while draining or saturated
/compile          POST    ``{source}`` → compile-once registration
/programs/<hash>  GET     registered? → ``{program, transforms}``, or 404
/run              POST    ``{program, transform, inputs, sizes?, machine?,
                          config?, arrays?}`` → outputs; inline ``config`` wins
/batch            POST    ``{program, lines, strict?, config?, arrays?}``
                          → the records ``repro batch`` emits for them
/tune             POST    enqueue a background tuning job → ``{job}``
/jobs/<id>        GET     job state; ``done`` carries the published version
/check            POST    ``{program}`` → static-verifier diagnostics
/stats            GET     counters, histograms, registry + job snapshots
/shutdown         POST    clean stop (drain jobs, flush artifacts)
================  ======  ===============================================

Every array position (``/run`` inputs, the inputs of a ``/batch`` line)
takes a nested list or an ndarray — the view a frame's array reference
was resolved to before the payload got here (:mod:`repro.serve.records`;
this module never sees bytes).  ``"arrays": "packed"`` asks for output
arrays as ndarrays, which the transport moves out of band; without it
they are nested lists.  A ``/batch`` line is a JSONL string or the
request mapping itself.

Hot path (``/run`` and ``/batch`` with a registered config): program
lookup and config lookup are dict reads of immutable entries, execution
reuses the resident :class:`CompiledTransform`, its cached run plans
(keyed by config content, shapes and sizes) and the per-program
:class:`BatchEngine` — **zero program parsing and zero config
serialization per request**.  Cold paths (first compile, inline
configs, tuning) pay their costs once and register the result.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.analysis.check import check_source
from repro.autotuner.parallel import source_spec, tune_from_spec
from repro.autotuner.tuner import tune_limits
from repro.compiler import ChoiceConfig
from repro.compiler.codegen import ExecutionError, normalize_sizes
from repro.faults import Deadline
from repro.observe import ThreadSafeSink
from repro.runtime import MACHINES

from repro.serve.jobs import Job, JobQueue, QueueDraining
from repro.serve.records import WireError, decode_array, encode_array
from repro.serve.records import malformed_record, result_record
from repro.serve.registry import (
    ANY_BUCKET,
    ConfigEntry,
    ProgramEntry,
    ServeRegistry,
    bucket_for,
    config_digest,
)
from repro.serve.resilience import (
    AdmissionController,
    ResilienceConfig,
    ServeError,
    ShedError,
    request_deadline,
)
from repro.serve.store import ArtifactStore

__all__ = ["ServeApp", "ServeError", "ShedError"]


class ServeApp:
    """The daemon's brain: registry + artifact store + job queue, with
    an :class:`AdmissionController` in front of the work routes.

    ``injector`` (dev/test only) enables the deterministic serve-side
    fault kinds of :mod:`repro.faults`, each decided by :meth:`_fires`:
    ``slow-handler`` and ``drain-race`` fire at dispatch and
    ``shed-storm`` forces an admission shed (all in :meth:`_admit`),
    ``store-io-fail`` fires inside the artifact store, and the daemon
    acts on ``conn-drop``.  Fault identities key off the request's
    optional ``rid`` payload field so a fault plan replays identically
    across runs.
    """

    def __init__(
        self,
        store_dir: Optional[str] = None,
        sink=None,
        machine: str = "xeon8",
        tune_workers: int = 1,
        resilience: Optional[ResilienceConfig] = None,
        injector=None,
    ) -> None:
        if machine not in MACHINES:
            raise ValueError(f"unknown machine profile {machine!r}")
        self.sink = sink if sink is not None else ThreadSafeSink()
        self.machine = machine
        self.resilience = resilience or ResilienceConfig()
        self.injector = injector
        self.admission = AdmissionController(self.resilience, sink=self.sink)
        self.registry = ServeRegistry(sink=self.sink)
        self.store = (
            ArtifactStore(store_dir, injector=injector) if store_dir else None
        )
        self.jobs = JobQueue(self._run_job, workers=tune_workers)
        self.recovered = (
            self.store.recover_into(self.registry)
            if self.store is not None
            else {"programs": 0, "configs": 0, "skipped": 0}
        )
        self._publish_lock = threading.Lock()
        self._closed = threading.Event()

    # -- endpoints ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness: always answers while the process is up, draining
        or not (readiness is :meth:`ready_probe`'s job)."""
        return {
            "ok": True,
            "programs": len(self.registry.programs()),
            "entries": len(self.registry.entries()),
            "machine": self.machine,
            "recovered": self.recovered,
            "draining": self.admission.draining,
        }

    def ready_probe(self) -> Dict[str, Any]:
        """Readiness: accepting new work (not draining, accept queue
        below high-water).  The daemon maps ``ready=False`` to 503 so
        load balancers stop routing here before requests get shed."""
        verdict = self.admission.ready()
        verdict["admission"] = self.admission.snapshot()
        return verdict

    def compile(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ServeError(400, "compile needs a non-empty 'source'")
        started = time.perf_counter()
        try:
            entry, cached = self.registry.register_program(source)
        except Exception as exc:
            raise ServeError(400, f"compile failed: {exc}")
        if self.store is not None:
            # Unconditionally (re)persist: content-addressed writes are
            # idempotent, and acknowledging a compile that isn't on disk
            # would let a crash forget it — a retried compile after a
            # store failure must land the artifact even though the
            # registry already has the program cached.
            try:
                self.store.save_program(
                    entry.phash, source, {"transforms": entry.transforms()}
                )
            except OSError as exc:
                raise self._store_io_error(exc)
        self._observe("serve.compile_ms", started)
        self.sink.count("serve.requests")
        return {
            "program": entry.phash,
            "transforms": entry.transforms(),
            "cached": cached,
        }

    def run(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        started = time.perf_counter()
        deadline = request_deadline(
            payload, self.resilience.default_deadline_ms
        )
        with self._admit("run", payload, deadline=deadline):
            packed = self._packed_reply(payload)
            entry = self._program(payload)
            transform = self._transform(entry, payload)
            machine = self._machine(payload)
            try:
                inputs, shapes = self._inputs(payload.get("inputs"))
            except (TypeError, ValueError) as exc:
                raise ServeError(400, f"bad input arrays: {exc}")
            try:
                sizes = normalize_sizes(payload.get("sizes")) or None
            except ExecutionError as exc:
                raise ServeError(400, f"bad sizes: {exc}")
            bucket = bucket_for(shapes, sizes)

            config, version, hit = self._resolve_config(
                payload, entry.phash, machine, bucket
            )
            # The execution boundary: if queueing/admission consumed the
            # whole budget, don't start work that nobody is waiting for.
            self.admission.check_deadline(deadline)
            try:
                result = transform.run(inputs, config, sizes=sizes)
            except Exception as exc:
                raise ServeError(400, f"{type(exc).__name__}: {exc}")
        self._observe("serve.run_ms", started)
        self.sink.count("serve.requests")
        self.sink.count("serve.runs")
        return {
            "outputs": {
                name: encode_array(matrix.data, packed)
                for name, matrix in result.outputs.items()
            },
            "meta": {
                "bucket": bucket,
                "machine": machine,
                "version": version,
                "registry_hit": hit,
                "rule_applications": result.rule_applications,
                "tasks": len(result.graph),
                "sizes": result.sizes,
            },
        }

    def batch(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        started = time.perf_counter()
        lines = payload.get("lines")
        if not isinstance(lines, list):
            raise ServeError(400, "batch needs 'lines': a list of JSONL strings")
        deadline = request_deadline(
            payload, self.resilience.default_deadline_ms
        )
        # Cost-aware admission: a batch weighs its request count, so a
        # 1024-line batch and 1024 /run calls occupy the limiter alike
        # (clamped so one maximal batch fills — not exceeds — it).
        with self._admit("batch", payload, len(lines), deadline):
            return self._batch_admitted(payload, lines, deadline, started)

    def _batch_admitted(
        self,
        payload: Mapping[str, Any],
        lines: List[Any],
        deadline: Optional[Deadline],
        started: float,
    ) -> Dict[str, Any]:
        packed = self._packed_reply(payload)
        entry = self._program(payload)
        machine = self._machine(payload)
        strict = bool(payload.get("strict"))
        default_config: Optional[ChoiceConfig] = None
        if payload.get("config") is not None:
            default_config = self._parse_config(payload["config"])

        # Parse outside the engine lock; only submit/gather hold it.
        entries: List[Tuple] = []  # ("submit", t, inputs, cfg, sizes)
        for lineno, line in enumerate(lines, start=1):
            if isinstance(line, str):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
            try:
                # A mapping line is the request (its inputs may be frame
                # views); any other value fails below as its own record.
                request = json.loads(line) if isinstance(line, str) else line
                transform = entry.program.transform(request["transform"])
                inputs, shapes = self._line_inputs(request.get("inputs"))
                sizes = normalize_sizes(request.get("sizes")) or None
                config = default_config
                if request.get("config") is not None:
                    config = ChoiceConfig.from_dict(request["config"])
            except Exception as exc:
                if strict:
                    raise ServeError(400, f"request line {lineno}: {exc}")
                entries.append(
                    (
                        "malformed",
                        lineno,
                        f"{type(exc).__name__}: {exc}",
                    )
                )
                continue
            if config is None:
                registered = self.registry.lookup(
                    entry.phash,
                    machine,
                    bucket_for(shapes, sizes),
                )
                if registered is not None:
                    config = registered.config
            entries.append(("submit", transform, inputs, config, sizes))

        with entry.engine_lock:
            submitted: List[int] = []  # engine ids, in submission order
            for item in entries:
                if item[0] != "submit":
                    continue
                _, transform, inputs, config, sizes = item
                submitted.append(
                    entry.engine.submit(transform, inputs, config, sizes)
                )
            results = {
                result.request_id: result
                for result in entry.engine.gather(deadline=deadline)
            }

        # Records in line order; submitted requests are renumbered from
        # 0 so a long-lived engine emits the ids a fresh CLI run would.
        records: List[Dict[str, Any]] = []
        position = 0
        for item in entries:
            if item[0] == "malformed":
                records.append(malformed_record(item[1], item[2]))
            else:
                records.append(
                    result_record(
                        results[submitted[position]], position, packed
                    )
                )
                position += 1

        failed = sum(1 for record in records if not record["ok"])
        expired = sum(
            1
            for record in records
            if not record["ok"]
            and str(record.get("error", "")).startswith("DeadlineExceeded")
        )
        if expired:
            self.sink.count("serve.deadline.batch_requests", expired)
        self._observe("serve.batch_ms", started)
        self.sink.count("serve.requests")
        self.sink.count("serve.batches")
        self.sink.count("serve.batch_requests", len(records))
        return {
            "results": records,
            "failed": failed,
            "machine": machine,
        }

    def tune(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        with self._admit("tune", payload):
            entry = self._program(payload)
            transform = self._transform(entry, payload)
            machine = self._machine(payload)
            try:
                min_size, max_size, population, jobs = tune_limits(
                    payload.get("min_size", 16),
                    payload.get("max_size", 64),
                    payload.get("population", 6),
                    payload.get("jobs", 1),
                )
            except ValueError as exc:
                raise ServeError(400, f"bad tune request: {exc}")
            job_payload = {
                "program": entry.phash,
                "transform": transform.name,
                "machine": machine,
                "bucket": str(payload.get("bucket") or ANY_BUCKET),
                "min_size": min_size,
                "max_size": max_size,
                "population": population,
                "jobs": jobs,
            }
            key = payload.get("idempotency_key")
            try:
                job_id, deduped = self.jobs.submit(
                    "tune", job_payload, idempotency_key=key
                )
            except QueueDraining:
                raise self.admission.draining_shed("tune")
            self.sink.count("serve.requests")
            if not deduped:
                self.sink.count("serve.tune_jobs")
            return {"job": job_id, "state": "queued", "deduped": deduped}

    def program_info(self, phash: str) -> Dict[str, Any]:
        """``GET /programs/<hash>``: the client's ensure-program probe."""
        entry = self._program({"program": phash})
        return {"program": entry.phash, "transforms": entry.transforms()}

    def job(self, job_id: str) -> Dict[str, Any]:
        try:
            return self.jobs.get(job_id)
        except KeyError as exc:
            raise ServeError(404, str(exc))

    def check(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        entry = self._program(payload)
        report = check_source(entry.source, path=entry.phash)
        self.sink.count("serve.requests")
        return {
            "clean": report.clean,
            "summary": report.summary_line(),
            "diagnostics": [d.to_dict() for d in report.sorted()],
        }

    def stats(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.sink.counters.items())),
            "histograms": {
                name: hist.summary()
                for name, hist in sorted(self.sink.histograms.items())
            },
            "programs": self.registry.programs(),
            "entries": self.registry.entries(),
            "jobs": self.jobs.jobs(),
            "admission": self.admission.snapshot(),
        }

    # -- drain / shutdown ---------------------------------------------------

    @property
    def draining(self) -> bool:
        return self.admission.draining

    def begin_drain(self) -> bool:
        """Flip the draining flag (idempotent): new work routes shed
        with a structured 503 while admitted requests and the currently
        running tune job finish; queued tune jobs are cancelled."""
        if not self.admission.begin_drain():
            return False
        self.sink.count("serve.drain.begun")
        self.jobs.drain()
        return True

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until in-flight requests and the running tune job
        finish, bounded by the hard drain timeout.  Returns True on a
        clean drain; a forced drain (timeout hit) is counted too."""
        deadline = Deadline.after(
            self.resilience.drain_timeout_s if timeout is None else timeout
        )
        clean = self.admission.wait_idle(deadline.remaining_s())
        clean = self.jobs.wait_idle(deadline.remaining_s()) and clean
        self.sink.count(
            "serve.drain.completed" if clean else "serve.drain.forced"
        )
        return clean

    def close(self) -> None:
        """Drain job workers; artifacts are already durable (atomic,
        fsync'd per-publish writes), so close is idempotent and fast."""
        if not self._closed.is_set():
            self._closed.set()
            self.jobs.close()

    # -- deterministic fault hooks (dev/test; see repro.faults) -------------

    def _fires(self, kind: str, route: str, payload: Mapping[str, Any]) -> bool:
        """Does the injected fault ``kind`` fire on this request?  Only a
        request carrying a ``rid`` can fault; its identity is
        ``route|rid`` (``conn|route|rid`` for ``conn-drop``) at the
        client's ``attempt``."""
        rid = payload.get("rid")
        if self.injector is None or rid is None:
            return False
        try:
            attempt = int(payload.get("attempt", 0) or 0)
        except (TypeError, ValueError):
            attempt = 0
        prefix = "conn|" if kind == "conn-drop" else ""
        return self.injector.fires(kind, f"{prefix}{route}|{rid}", attempt)

    @contextlib.contextmanager
    def _admit(
        self,
        route: str,
        payload: Mapping[str, Any],
        cost: int = 1,
        deadline: Optional[Deadline] = None,
    ) -> Iterator[None]:
        """Admission for a work route, with the dispatch-time faults."""
        with self.admission.admit(
            route,
            cost=cost,
            deadline=deadline,
            forced_shed=self._fires("shed-storm", route, payload),
        ):
            if self._fires("slow-handler", route, payload):
                # A pathologically slow handler, bounded so an injected
                # plan can't wedge a test run.
                time.sleep(min(self.injector.hang_seconds, 5.0))
            if self._fires("drain-race", route, payload):
                # Shutdown racing an in-flight request: this request is
                # already admitted and must complete; everything after
                # it sheds.
                self.begin_drain()
            yield

    # -- tuning worker ------------------------------------------------------

    def _run_job(self, job: Job) -> Dict[str, Any]:
        if job.kind != "tune":
            raise ValueError(f"unknown job kind {job.kind!r}")
        payload = job.payload
        entry = self.registry.program(payload["program"])
        result, _ = tune_from_spec(
            source_spec(entry.source, payload["transform"], payload["machine"]),
            {
                "min_size": payload["min_size"],
                "max_size": payload["max_size"],
                "population_size": payload["population"],
            },
            jobs=payload["jobs"],
        )
        published = self.publish_config(
            payload["program"],
            payload["machine"],
            payload["bucket"],
            result.config,
            origin="tune",
            meta={
                "transform": payload["transform"],
                "best_time": result.best_time,
            },
        )
        return {
            "program": payload["program"],
            "transform": payload["transform"],
            "machine": payload["machine"],
            "bucket": payload["bucket"],
            "version": published.version,
            "digest": published.digest,
            "best_time": result.best_time,
        }

    def publish_config(
        self,
        phash: str,
        machine: str,
        bucket: str,
        config: ChoiceConfig,
        origin: str = "publish",
        meta: Optional[Mapping[str, Any]] = None,
        attempt: int = 0,
    ) -> ConfigEntry:
        """Version-bump the registry and persist the artifact — the one
        write path shared by tune jobs, recovery reseeding, and tests.

        Durable-before-acknowledged: the version is reserved, the
        artifact is written (fsync'd) to the store, and only then does
        the registry bump commit.  A store write failure (including an
        injected ``store-io-fail``) therefore leaves the registry — and
        every client that could have observed the version — untouched,
        so a crash-and-restart can never regress an acknowledged
        version.  ``attempt`` is the caller's retry counter; a retried
        publish reserves the same version and lands durably.
        """
        with self._publish_lock:
            version = (
                self.registry.current_version(phash, machine, bucket) + 1
            )
            if self.store is not None:
                try:
                    self.store.save_config(
                        phash,
                        machine,
                        bucket,
                        config,
                        meta={
                            "version": version,
                            "digest": config_digest(config),
                            "origin": origin,
                            **dict(meta or {}),
                        },
                        attempt=attempt,
                    )
                except OSError as exc:
                    raise self._store_io_error(exc)
            return self.registry.publish(
                phash,
                machine,
                bucket,
                config,
                origin=origin,
                meta=meta,
                version=version,
            )

    # -- shared request plumbing --------------------------------------------

    def _program(self, payload: Mapping[str, Any]) -> ProgramEntry:
        phash = payload.get("program")
        if not isinstance(phash, str):
            raise ServeError(400, "missing 'program' hash")
        try:
            return self.registry.program(phash)
        except KeyError as exc:
            raise ServeError(404, str(exc))

    def _transform(self, entry: ProgramEntry, payload: Mapping[str, Any]):
        name = payload.get("transform")
        if not isinstance(name, str):
            raise ServeError(400, "missing 'transform' name")
        try:
            return entry.program.transform(name)
        except Exception as exc:
            raise ServeError(404, str(exc))

    def _machine(self, payload: Mapping[str, Any]) -> str:
        machine = payload.get("machine") or self.machine
        if machine not in MACHINES:
            raise ServeError(400, f"unknown machine profile {machine!r}")
        return machine

    def _packed_reply(self, payload: Mapping[str, Any]) -> bool:
        """Whether a work request's ``arrays`` field asks for packed
        (out-of-band) output arrays (absent means ``"plain"``: nested
        lists)."""
        form = payload.get("arrays", "plain")
        if form not in ("plain", "packed"):
            raise ServeError(
                400, f"bad input arrays: unknown 'arrays' form {form!r}"
            )
        self.sink.count(f"serve.wire.{form}")
        return form == "packed"

    @staticmethod
    def _inputs(raw: Any) -> Tuple[Any, List[Tuple[int, ...]]]:
        """Input payloads as float64 arrays plus their shapes (decoded
        once; the engine's asarray on an ndarray is then a no-op)."""
        if raw is None:
            return None, []
        if isinstance(raw, Mapping):
            inputs: Any = {k: decode_array(v) for k, v in raw.items()}
            return inputs, [array.shape for array in inputs.values()]
        if isinstance(raw, (list, tuple)):
            inputs = [decode_array(value) for value in raw]
            return inputs, [array.shape for array in inputs]
        raise ServeError(400, "inputs must be an object, a list, or null")

    def _line_inputs(self, raw: Any) -> Tuple[Any, List[Tuple[int, ...]]]:
        """One ``/batch`` line's inputs, decoded once for the bucket
        lookup and the engine alike.  Plain values numpy rejects stay
        raw, so the engine reports them exactly as ``repro batch`` does;
        a broken array reference makes the line malformed."""
        try:
            return self._inputs(raw)
        except WireError as exc:
            raise ValueError(f"bad input arrays: {exc}")
        except (TypeError, ValueError, ServeError):
            return raw, []

    def _parse_config(self, raw: Any) -> ChoiceConfig:
        try:
            return ChoiceConfig.from_dict(raw)
        except Exception as exc:
            raise ServeError(400, f"bad config: {exc}")

    def _resolve_config(
        self, payload: Mapping[str, Any], phash: str, machine: str, bucket: str
    ) -> Tuple[Optional[ChoiceConfig], Optional[int], bool]:
        """(config, registry version, registry hit) for one request —
        an inline config wins and is never registered."""
        if payload.get("config") is not None:
            return self._parse_config(payload["config"]), None, False
        entry = self.registry.lookup(phash, machine, bucket)
        if entry is None:
            return None, None, False
        return entry.config, entry.version, True

    def _store_io_error(self, exc: OSError) -> ServeError:
        """The 503 for an artifact-store write that failed before the
        request was acknowledged (retrying it is safe)."""
        self.sink.count("serve.store.write_failures")
        return ServeError(
            503,
            f"artifact store write failed: {exc}",
            code="store_io",
            retry_after=self.resilience.retry_after_s,
        )

    def _observe(self, name: str, started: float) -> None:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.sink.observe(name, elapsed_ms)
        self.sink.observe("serve.request_ms", elapsed_ms)
