"""Tests for the serving-layer resilience stack.

Covers admission control (weighted sheds, bounded queueing, structured
429/503 + Retry-After), request deadline budgets on /run and /batch
(including the batch engine's bucket-boundary checks), graceful drain
semantics (in-flight work completes byte-identically while new work
sheds), liveness vs readiness probes, the event-based job queue with
idempotent enqueue, the client's job polling, client-side bounded
retries against injected transport faults, a ``repro serve`` process
draining on SIGTERM, the dropped-connection tolerance of the HTTP handler,
a ``Content-Length`` the daemon cannot trust, and error pages that are
not the daemon's own JSON.
"""

import json
import os
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import types

import pytest

from repro.batch.engine import BatchEngine
from repro.faults import FaultInjector, recovery
from repro.serve import (
    AdmissionController,
    Deadline,
    DeadlineExceeded,
    JobQueue,
    QueueDraining,
    ResilienceConfig,
    RetryPolicy,
    ServeApp,
    ServeClient,
    ServeClientError,
    ServeDaemon,
    ServeError,
    ShedError,
)
from repro.serve import client as client_module
from repro.serve.daemon import MAX_BODY_BYTES, _Handler
from repro.serve.resilience import request_deadline
from repro.observe.trace import ThreadSafeSink
from tests.strategies import converse

SCALE = """
transform Scale
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a * 2.0 + 1.0; }
}
"""


def _app(**kwargs):
    return ServeApp(**kwargs)


# ---------------------------------------------------------------------------
# admission control


class TestAdmission:
    def test_capacity_shed_is_structured(self):
        config = ResilienceConfig(
            max_concurrency=1, max_queue=0, retry_after_s=0.25
        )
        sink = ThreadSafeSink()
        admission = AdmissionController(config, sink=sink)
        with admission.admit("run"):
            with pytest.raises(ShedError) as excinfo:
                with admission.admit("run"):
                    pass
        shed = excinfo.value
        assert shed.status == 429
        assert shed.code == "capacity"
        assert shed.retry_after == 0.25
        assert sink.counters["serve.shed.capacity"] == 1

    def test_weighted_cost_clamps_to_limit(self):
        config = ResilienceConfig(max_concurrency=4, max_queue=0)
        admission = AdmissionController(config)
        # A maximal batch fills the limiter rather than being unservable.
        with admission.admit("batch", cost=10_000):
            assert admission.snapshot()["inflight"] == 4
            with pytest.raises(ShedError):
                with admission.admit("run"):
                    pass

    def test_queued_request_admits_when_slot_frees(self):
        config = ResilienceConfig(
            max_concurrency=1, max_queue=4, queue_timeout_s=5.0
        )
        admission = AdmissionController(config)
        admitted = threading.Event()
        release = threading.Event()

        def holder():
            with admission.admit("run"):
                admitted.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=holder)
        thread.start()
        assert admitted.wait(timeout=2.0)
        waited = []

        def waiter():
            with admission.admit("run"):
                waited.append(True)

        wthread = threading.Thread(target=waiter)
        wthread.start()
        time.sleep(0.05)  # the waiter parks in the accept queue
        assert admission.snapshot()["queued"] == 1
        release.set()
        wthread.join(timeout=5.0)
        thread.join(timeout=5.0)
        assert waited == [True]
        assert admission.snapshot() == {
            "inflight": 0,
            "queued": 0,
            "max_concurrency": 1,
            "max_queue": 4,
            "draining": False,
        }

    def test_queue_timeout_sheds(self):
        config = ResilienceConfig(
            max_concurrency=1, max_queue=4, queue_timeout_s=0.05
        )
        sink = ThreadSafeSink()
        admission = AdmissionController(config, sink=sink)
        with admission.admit("run"):
            with pytest.raises(ShedError) as excinfo:
                with admission.admit("run"):
                    pass
        assert excinfo.value.code == "queue_timeout"
        assert excinfo.value.status == 429
        assert sink.counters["serve.shed.queue_timeout"] == 1

    def test_draining_sheds_everything_new(self):
        config = ResilienceConfig(drain_timeout_s=1.5)
        admission = AdmissionController(config)
        assert admission.begin_drain() is True
        assert admission.begin_drain() is False  # idempotent
        with pytest.raises(ShedError) as excinfo:
            with admission.admit("run"):
                pass
        assert excinfo.value.status == 503
        assert excinfo.value.code == "draining"
        assert excinfo.value.retry_after == 1.5

    def test_ready_verdicts(self):
        config = ResilienceConfig(max_concurrency=1, max_queue=2)
        admission = AdmissionController(config)
        assert admission.ready() == {"ready": True, "reason": "ok"}
        admission.begin_drain()
        assert admission.ready() == {"ready": False, "reason": "draining"}

    def test_expired_deadline_while_queued_sheds_504(self):
        config = ResilienceConfig(
            max_concurrency=1, max_queue=4, queue_timeout_s=5.0
        )
        sink = ThreadSafeSink()
        admission = AdmissionController(config, sink=sink)
        with admission.admit("run"):
            deadline = Deadline(10.0)  # 10ms, expires while queued
            with pytest.raises(ServeError) as excinfo:
                with admission.admit("run", deadline=deadline):
                    pass
        assert excinfo.value.status == 504
        assert excinfo.value.code == "deadline_exceeded"
        assert sink.counters["serve.deadline.expired"] == 1


# ---------------------------------------------------------------------------
# deadlines


class TestDeadline:
    def test_from_payload_validation(self):
        assert request_deadline({}) is None
        assert request_deadline({}, default_ms=50.0).budget_ms == 50.0
        assert request_deadline({"deadline_ms": 25}).budget_ms == 25.0
        bad_values = ("soon", -1, 0, [1], float("nan"), float("inf"), True)
        for bad in bad_values:
            with pytest.raises(ServeError) as excinfo:
                request_deadline({"deadline_ms": bad})
            assert excinfo.value.status == 400
            assert "must be a finite number > 0" in excinfo.value.message
        for bad in (float("nan"), float("inf"), True, 0):
            with pytest.raises(ValueError, match="finite number > 0"):
                ResilienceConfig(default_deadline_ms=bad)

    def test_zero_budget_is_already_expired(self):
        deadline = Deadline(0)
        assert deadline.expired()
        assert deadline.remaining_s() == 0.0
        app = _app()
        try:
            assert app.drain(0) is True  # legal, and idle means clean
        finally:
            app.close()

    def test_nan_deadline_over_http_is_400(self):
        """A raw JSON ``NaN`` (which ``json.loads`` accepts) must not
        become a budget that never expires."""
        daemon = ServeDaemon(_app(), port=0).start_background()
        try:
            body = (
                b'{"program": "p", "transform": "Scale", '
                b'"inputs": {"A": [[1.0]]}, "deadline_ms": NaN}'
            )
            ((status, _headers, reply),) = converse(
                daemon,
                b"POST /run HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                + body,
            )
        finally:
            daemon.stop()
        assert status == 400
        assert json.loads(reply)["error"] == (
            "bad deadline_ms nan: must be a finite number > 0"
        )

    def test_error_text_is_wall_clock_free(self):
        deadline = Deadline(75.0)
        time.sleep(0.002)
        # Byte parity: the message depends only on the budget, never on
        # how late the request actually was.
        assert str(deadline.error()) == "75ms request budget exhausted"
        assert isinstance(deadline.error(), DeadlineExceeded)

    def test_batch_engine_expires_at_bucket_boundaries(self):
        from repro.compiler import compile_program

        program = compile_program(SCALE)
        transform = program.transform("Scale")

        class Expired:
            def expired(self):
                return True

            def error(self):
                return DeadlineExceeded("1ms request budget exhausted")

        sink = ThreadSafeSink()
        engine = BatchEngine(sink=sink)
        for value in (1.0, 2.0, 3.0):
            engine.submit(transform, {"A": [[value]]})
        results = engine.gather(deadline=Expired())
        assert len(results) == 3
        for result in results:
            assert result.outputs is None
            assert isinstance(result.error, DeadlineExceeded)
        assert sink.counters["batch.deadline_skips"] == 3

    def test_run_endpoint_maps_expired_budget_to_504(self):
        app = _app(resilience=ResilienceConfig(default_deadline_ms=0.001))
        try:
            phash = app.compile({"source": SCALE})["program"]
            with pytest.raises(ServeError) as excinfo:
                app.run(
                    {
                        "program": phash,
                        "transform": "Scale",
                        "inputs": {"A": [[1.0]]},
                    }
                )
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
            assert app.sink.counters["serve.deadline.expired"] == 1
        finally:
            app.close()

    def test_batch_endpoint_emits_structured_deadline_records(self):
        app = _app()
        try:
            phash = app.compile({"source": SCALE})["program"]
            lines = [
                json.dumps(
                    {"transform": "Scale", "inputs": {"A": [[float(i)]]}}
                )
                for i in range(3)
            ]
            response = app.batch(
                {"program": phash, "lines": lines, "deadline_ms": 0.001}
            )
            assert response["failed"] == 3
            for record in response["results"]:
                assert record["ok"] is False
                assert (
                    record["error"]
                    == "DeadlineExceeded: 0.001ms request budget exhausted"
                )
            assert app.sink.counters["serve.deadline.batch_requests"] == 3
            assert app.sink.counters["batch.deadline_skips"] == 3
        finally:
            app.close()


# ---------------------------------------------------------------------------
# job queue


class TestJobQueue:
    def test_event_based_wait(self):
        started = threading.Event()

        def runner(job):
            started.wait(timeout=5.0)
            return {"ran": job.payload["n"]}

        queue = JobQueue(runner, workers=1)
        try:
            job_id, deduped = queue.submit("tune", {"n": 7})
            assert deduped is False
            started.set()
            snapshot = queue.wait(job_id, timeout=5.0)
            assert snapshot["state"] == "done"
            assert snapshot["result"] == {"ran": 7}
        finally:
            queue.close()

    def test_idempotency_key_dedupes(self):
        queue = JobQueue(lambda job: {}, workers=1)
        try:
            first, deduped1 = queue.submit("tune", {}, idempotency_key="k")
            second, deduped2 = queue.submit("tune", {}, idempotency_key="k")
            assert first == second
            assert (deduped1, deduped2) == (False, True)
        finally:
            queue.close()

    def test_drain_cancels_queued_keeps_running(self):
        gate = threading.Event()
        running = threading.Event()

        def runner(job):
            running.set()
            gate.wait(timeout=5.0)
            return {"ok": True}

        queue = JobQueue(runner, workers=1)
        try:
            active, _ = queue.submit("tune", {})
            assert running.wait(timeout=5.0)
            queued, _ = queue.submit("tune", {})
            assert queue.drain() == 1
            with pytest.raises(QueueDraining):
                queue.submit("tune", {})
            assert queue.get(queued)["state"] == "cancelled"
            gate.set()
            assert queue.wait(active, timeout=5.0)["state"] == "done"
            assert queue.wait_idle(timeout=5.0)
        finally:
            queue.close()


# ---------------------------------------------------------------------------
# job polling


class TestWaitJob:
    @staticmethod
    def _client(monkeypatch, states, clock):
        """A client whose ``job`` answers ``states`` in turn and whose
        sleeps advance the fake monotonic ``clock`` (no daemon)."""
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(
            client_module, "time", types.SimpleNamespace(sleep=sleep)
        )
        monkeypatch.setattr(
            recovery, "time", types.SimpleNamespace(monotonic=lambda: clock[0])
        )
        client = ServeClient(port=1)
        answers = iter(states)
        client.job = lambda job_id: {"state": next(answers)}
        return client, sleeps

    def test_polls_on_capped_doubling(self, monkeypatch):
        states = ["queued"] * 7 + ["done"]
        client, sleeps = self._client(monkeypatch, states, [0.0])
        assert client.wait_job("j", timeout=300.0) == {"state": "done"}
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]

    def test_times_out_at_the_deadline(self, monkeypatch):
        client, sleeps = self._client(
            monkeypatch, iter(lambda: "running", None), [0.0]
        )
        with pytest.raises(TimeoutError, match="job j still running after 2s"):
            client.wait_job("j", timeout=2.0)
        # 0.05 + 0.1 + 0.2 + 0.4 + 0.8 = 1.55, then the last 0.45 s.
        assert sleeps[:5] == [0.05, 0.1, 0.2, 0.4, 0.8]
        assert sum(sleeps) == pytest.approx(2.0)
        assert len(sleeps) == 6


# ---------------------------------------------------------------------------
# retry policy


class TestRetryPolicy:
    def test_deterministic_and_bounded(self):
        policy = RetryPolicy(retries=3, backoff_s=0.05, max_backoff_s=0.4)
        delays = [policy.delay("/run", attempt) for attempt in range(4)]
        assert delays == [policy.delay("/run", a) for a in range(4)]
        assert all(0.0 < d <= 0.4 * 1.25 for d in delays)
        # Exponential shape: later attempts never shrink below the
        # un-jittered earlier base.
        assert delays[2] > delays[0]

    def test_honors_retry_after(self):
        policy = RetryPolicy(backoff_s=0.01, max_backoff_s=0.5)
        assert policy.delay("/run", 0, retry_after=0.3) >= 0.3
        # ...but never waits past the cap on an absurd server ask.
        assert policy.delay("/run", 0, retry_after=60.0) <= 0.5 * 1.25


# ---------------------------------------------------------------------------
# graceful drain over HTTP


class TestDrain:
    def test_shutdown_finishes_inflight_sheds_new(self):
        """The drain acceptance check: a slow in-flight /batch admitted
        before /shutdown completes byte-identically to an unfaulted
        run, while a request arriving during the drain sheds 503."""
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[7.0]]}})
        ]

        # Baseline bytes from a fault-free daemon.
        baseline_app = _app()
        baseline = ServeDaemon(baseline_app, port=0).start_background()
        try:
            client = ServeClient(port=baseline.port)
            phash = client.compile(SCALE)["program"]
            expected = json.dumps(
                client.batch(phash, lines), sort_keys=True
            )
        finally:
            baseline.stop()

        # The injected daemon: only the rid-carrying request is slowed.
        injector = FaultInjector.parse("slow-handler:1,hang=0.4")
        app = _app(
            injector=injector,
            resilience=ResilienceConfig(drain_timeout_s=5.0),
        )
        daemon = ServeDaemon(app, port=0).start_background()
        client = ServeClient(
            port=daemon.port, retry=RetryPolicy(retries=0)
        )
        assert client.compile(SCALE)["program"] == phash

        outcome = {}

        def slow_batch():
            outcome["response"] = client.batch(phash, lines, rid="slow")

        worker = threading.Thread(target=slow_batch)
        worker.start()
        time.sleep(0.1)  # the slow request is admitted and sleeping
        assert client.shutdown()["state"] == "draining"
        with pytest.raises(ServeClientError) as excinfo:
            client.run(phash, "Scale", {"A": [[1.0]]})
        assert excinfo.value.status == 503
        assert excinfo.value.reason == "draining"
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert (
            json.dumps(outcome["response"], sort_keys=True) == expected
        )
        daemon._thread.join(timeout=10.0)
        assert not daemon._thread.is_alive()
        assert app.sink.counters["serve.drain.begun"] == 1
        assert app.sink.counters["serve.drain.completed"] == 1
        assert app.sink.counters["serve.shed.draining"] >= 1

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """``repro serve`` under SIGTERM: the same drain-and-stop as
        ``/shutdown`` — new work sheds, the process exits 0."""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src), env.get("PYTHONPATH", "")]
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            port = int(banner.split("http://127.0.0.1:")[1].split()[0])
            assert ServeClient(port=port).health()["ok"] is True
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=15.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert out.strip().endswith("repro serve: stopped")

    def test_ready_flips_on_drain_health_stays_alive(self):
        app = _app()
        daemon = ServeDaemon(app, port=0).start_background()
        try:
            client = ServeClient(port=daemon.port)
            assert client.ready()["ready"] is True
            assert client.health()["ok"] is True
            app.begin_drain()
            verdict = client.ready()
            assert verdict["ready"] is False
            assert verdict["reason"] == "draining"
            # Liveness is not readiness: /health still answers 200.
            health = client.health()
            assert health["ok"] is True
            assert health["draining"] is True
        finally:
            daemon.stop()


# ---------------------------------------------------------------------------
# client retries vs injected transport faults


class TestClientRetries:
    def _daemon(self, inject):
        app = _app(injector=FaultInjector.parse(inject))
        return app, ServeDaemon(app, port=0).start_background()

    def test_conn_drop_recovers_on_retry(self):
        app, daemon = self._daemon("conn-drop:1x1")
        try:
            sink = ThreadSafeSink()
            client = ServeClient(
                port=daemon.port,
                retry=RetryPolicy(retries=2, backoff_s=0.01),
                sink=sink,
            )
            phash = client.compile(SCALE)["program"]
            response = client.run(
                phash, "Scale", {"A": [[2.0]]}, rid="r1"
            )
            assert response["outputs"]["B"] == [[5.0]]
            assert sink.counters["serve.retry.attempts"] >= 1
            assert sink.counters["serve.retry.recoveries"] == 1
            assert app.sink.counters["serve.conn_dropped"] >= 1
        finally:
            daemon.stop()

    def test_conn_drop_without_retries_raises(self):
        app, daemon = self._daemon("conn-drop:1x1")
        try:
            client = ServeClient(
                port=daemon.port, retry=RetryPolicy(retries=0)
            )
            phash = client.compile(SCALE)["program"]
            with pytest.raises(ConnectionError, match="reply cut off at"):
                client.run(phash, "Scale", {"A": [[2.0]]}, rid="r1")
        finally:
            daemon.stop()

    def test_shed_storm_retry_lands_identical_bytes(self):
        app, daemon = self._daemon("shed-storm:1x1")
        try:
            client = ServeClient(
                port=daemon.port,
                retry=RetryPolicy(retries=2, backoff_s=0.01),
            )
            phash = client.compile(SCALE)["program"]
            plain = client.run(phash, "Scale", {"A": [[3.0]]})
            stormed = client.run(phash, "Scale", {"A": [[3.0]]}, rid="s1")
            assert json.dumps(stormed, sort_keys=True) == json.dumps(
                plain, sort_keys=True
            )
            assert app.sink.counters["serve.shed.injected"] == 1
        finally:
            daemon.stop()

    def test_shed_carries_reason_and_retry_after(self):
        app = _app(
            resilience=ResilienceConfig(
                max_concurrency=1, max_queue=0, retry_after_s=0.5
            )
        )
        daemon = ServeDaemon(app, port=0).start_background()
        try:
            client = ServeClient(
                port=daemon.port, retry=RetryPolicy(retries=0)
            )
            phash = client.compile(SCALE)["program"]
            with app.admission.admit("test-holder"):
                with pytest.raises(ServeClientError) as excinfo:
                    client.run(phash, "Scale", {"A": [[1.0]]})
            shed = excinfo.value
            assert shed.status == 429
            assert shed.reason == "capacity"
            assert shed.retry_after == 0.5
        finally:
            daemon.stop()

    def test_4x_burst_sheds_explicitly_then_retries_land_identical(self):
        """16 concurrent /run at ``max_concurrency=4`` with slowed handlers:
        without retries every request is a 200 or a structured 429 (never
        a hang or a 500); retrying clients then all land byte-identically."""
        burst, started = 16, time.monotonic()
        app = _app(
            injector=FaultInjector.parse("slow-handler:1,hang=0.05"),
            resilience=ResilienceConfig(
                max_concurrency=4, max_queue=4, queue_timeout_s=10.0,
                retry_after_s=0.02,
            ),
        )
        daemon = ServeDaemon(app, port=0).start_background()
        try:
            quiet = ServeClient(port=daemon.port, timeout=30.0)
            phash = quiet.compile(SCALE)["program"]

            def payload(index):
                return {"A": [[float(index)]]}

            # no rid, so no slowed handler: the uncontended bytes
            expected = [
                json.dumps(quiet.run(phash, "Scale", payload(i)), sort_keys=True)
                for i in range(burst)
            ]

            def fire(retry):
                outcomes = [None] * burst

                def one(index):
                    client = ServeClient(
                        port=daemon.port, timeout=30.0, retry=retry)
                    try:
                        reply = client.run(
                            phash, "Scale", payload(index), rid=f"b{index}")
                        outcomes[index] = json.dumps(reply, sort_keys=True)
                    except ServeClientError as exc:
                        outcomes[index] = exc

                threads = [
                    threading.Thread(target=one, args=(i,))
                    for i in range(burst)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                assert not any(thread.is_alive() for thread in threads)
                return outcomes

            shed = fire(RetryPolicy(retries=0))
            assert any(isinstance(o, ServeClientError) for o in shed)
            for index, outcome in enumerate(shed):
                if isinstance(outcome, ServeClientError):
                    assert outcome.status == 429, outcome
                    assert outcome.reason in ("capacity", "queue_timeout")
                    assert outcome.retry_after is not None
                else:
                    assert outcome == expected[index]
            assert fire(
                RetryPolicy(retries=8, backoff_s=0.02, max_backoff_s=0.5)
            ) == expected
            assert time.monotonic() - started < 5.0
        finally:
            daemon.stop()

    def test_tune_retry_dedupes_via_idempotency_key(self):
        app = _app()
        try:
            payload = {
                "program": app.compile({"source": SCALE})["program"],
                "transform": "Scale",
                "min_size": 4,
                "max_size": 4,
                "idempotency_key": "tune-1",
            }
            first = app.tune(dict(payload))
            second = app.tune(dict(payload))
            assert first["job"] == second["job"]
            assert (first["deduped"], second["deduped"]) == (False, True)
            assert app.sink.counters["serve.tune_jobs"] == 1
        finally:
            app.close()


# ---------------------------------------------------------------------------
# dropped connections in the HTTP handler (the crash-loop fix)


class TestConnDropHandling:
    """``_Handler._reply`` writing to a real socket whose peer is gone."""

    def _handler_on(self, app, connection):
        handler_cls = type("_TestHandler", (_Handler,), {"app": app})
        handler = object.__new__(handler_cls)
        handler.connection = connection
        handler.close_connection = False
        return handler

    def test_reply_swallows_broken_pipe(self):
        app = _app()
        ours, peer = socket.socketpair()
        try:
            peer.close()
            handler = self._handler_on(app, ours)
            handler._reply(200, {"ok": True})  # must not raise
            assert handler.close_connection is True
            assert app.sink.counters["serve.conn_dropped"] == 1
        finally:
            ours.close()
            app.close()

    def test_reply_swallows_connection_reset(self):
        """A TCP peer that closes with linger 0 sends a RST."""
        app = _app()
        listener = socket.create_server(("127.0.0.1", 0))
        peer = socket.create_connection(listener.getsockname())
        ours, _ = listener.accept()
        try:
            peer.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            peer.close()
            # the RST has arrived once our end polls readable
            assert select.select([ours], [], [], 5.0)[0]
            handler = self._handler_on(app, ours)
            handler._reply(500, {"error": "boom"})
            assert handler.close_connection is True
            assert app.sink.counters["serve.conn_dropped"] == 1
        finally:
            ours.close()
            listener.close()
            app.close()


# ---------------------------------------------------------------------------
# a Content-Length that cannot be trusted


def _refused(daemon, request, half_close=False):
    """``request`` bytes over a raw socket, answered by exactly one
    reply and a hang-up inside a second (a daemon still waiting to read
    more fails here): (status, headers, JSON body)."""
    started = time.monotonic()
    ((status, headers, body),) = converse(
        daemon, request, half_close=half_close
    )
    assert time.monotonic() - started < 1.0
    return status, headers, json.loads(body)


class TestContentLength:
    @pytest.fixture()
    def daemon(self):
        server = ServeDaemon(_app(), port=0).start_background()
        yield server
        server.stop()

    @staticmethod
    def _exchange(daemon, content_length, body=b"{}"):
        """POST /run with the header exactly as given."""
        return _refused(
            daemon,
            b"POST /run HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: " + content_length + b"\r\n\r\n" + body,
        )

    @pytest.mark.parametrize("value", [b"abc", b"1e3", b"+2", b"0x10", b"2 2"])
    def test_not_a_number_is_400(self, daemon, value):
        status, headers, body = self._exchange(daemon, value)
        assert status == 400
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert body["error"].startswith("bad Content-Length")
        assert daemon.app.sink.counters["serve.bad_requests"] == 1

    def test_negative_is_400_not_a_read_to_eof(self, daemon):
        """``rfile.read(-1)`` would wait for the peer to hang up."""
        status, headers, body = self._exchange(daemon, b"-1")
        assert status == 400
        assert headers["connection"] == "close"
        assert body == {"error": "bad Content-Length '-1'"}
        assert daemon.app.sink.counters["serve.bad_requests"] == 1

    @pytest.mark.parametrize(
        "length", [str(MAX_BODY_BYTES + 1), "99999999999999", "9" * 5000]
    )
    def test_oversized_is_413_with_the_body_unread(self, daemon, length):
        status, headers, body = self._exchange(
            daemon, length.encode("ascii")
        )
        assert status == 413
        assert headers["connection"] == "close"
        assert str(MAX_BODY_BYTES) in body["error"]
        assert daemon.app.sink.counters["serve.bad_requests"] == 1


# ---------------------------------------------------------------------------
# requests refused before routing


#: name -> (request bytes, status, start of the error message)
REFUSED = {
    "chunked body": (
        b"POST /compile HTTP/1.1\r\nHost: t\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"10\r\n{\"source\": \"x\"}\r\n0\r\n\r\n",
        501, "Transfer-Encoding is not supported",
    ),
    "chunked and a length": (
        b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n"
        b"transfer-encoding: gzip, chunked\r\n\r\n{}",
        501, "Transfer-Encoding is not supported",
    ),
    "unsupported method": (
        b"DELETE /programs/x HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        501, "unsupported method 'DELETE'",
    ),
    "request line too long": (
        b"GET /" + b"x" * 70000 + b" HTTP/1.1\r\n\r\n",
        414, "start line exceeds 65536 bytes",
    ),
    "header line too long": (
        b"GET /health HTTP/1.1\r\nX-Pad: " + b"x" * 70000 + b"\r\n\r\n",
        431, "header line exceeds 65536 bytes",
    ),
    "too many headers": (
        b"GET /health HTTP/1.1\r\n"
        + b"".join(b"X-%d: y\r\n" % n for n in range(101)) + b"\r\n",
        431, "more than 100 headers",
    ),
    "two-word request line": (
        b"GET /health\r\n\r\n", 400, "malformed request line",
    ),
    "not http at all": (
        b"\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03\r\n\r\n",
        400, "malformed request line",
    ),
    "http/2 preface": (
        b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n", 400, "malformed request line",
    ),
    "header without a colon": (
        b"GET /health HTTP/1.1\r\nno colon here\r\n\r\n",
        400, "malformed header line",
    ),
    "folded header": (
        b"GET /health HTTP/1.1\r\nX-A: 1\r\n  continued\r\n\r\n",
        400, "malformed header line",
    ),
    "head cut off": (
        b"GET /health HTTP/1.1\r\nHost: t\r\n", 400, "message head cut off",
    ),
}


class TestRefusedBeforeRouting:
    """Whatever the transport or the handler refuses without reading a
    body: one structured JSON error, ``Connection: close``, the rest of
    the stream never parsed as a second request."""

    @pytest.fixture()
    def daemon(self):
        server = ServeDaemon(_app(), port=0).start_background()
        yield server
        server.stop()

    @pytest.mark.parametrize("name", sorted(REFUSED))
    def test_one_structured_reply_then_close(self, daemon, name):
        request, want_status, message = REFUSED[name]
        # a head that just stops is only refused once the stream ends
        status, headers, body = _refused(
            daemon, request, half_close=(name == "head cut off")
        )
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert status == want_status
        assert set(body) == {"error"} and body["error"].startswith(message)
        assert daemon.app.sink.counters["serve.bad_requests"] == 1
        # and the daemon is none the worse for it
        assert ServeClient(port=daemon.port).health()["ok"] is True


# ---------------------------------------------------------------------------
# refusals: the daemon's own are structured, a proxy's are not


class TestForeignErrorBodies:
    """A request the daemon refuses before routing gets the structured
    JSON error like any other; a non-2xx whose body is not ours (a
    proxy's HTML page) is still a status to report, not a cut
    connection to re-send."""

    @pytest.fixture()
    def served(self):
        daemon = ServeDaemon(_app(), port=0).start_background()
        sink = ThreadSafeSink()
        client = ServeClient(
            port=daemon.port,
            retry=RetryPolicy(retries=3, backoff_s=0.2),
            sink=sink,
        )
        yield client, sink, daemon.app.sink
        daemon.stop()

    def test_unsupported_method_is_a_501_once(self, served):
        client, sink, daemon_sink = served
        started = time.monotonic()
        with pytest.raises(ServeClientError) as excinfo:
            client.request("PUT", "/run", {"program": "x"})
        assert excinfo.value.status == 501
        assert excinfo.value.message == "unsupported method 'PUT'"
        assert not excinfo.value.shed
        assert sink.counters.get("serve.retry.attempts", 0) == 0
        assert time.monotonic() - started < 0.2  # no backoff was slept
        assert daemon_sink.counters["serve.bad_requests"] == 1
        assert client.health()["ok"] is True

    def test_oversized_request_line_is_a_414_once(self, served):
        client, sink, daemon_sink = served
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/" + "x" * 70000)
        assert excinfo.value.status == 414
        assert excinfo.value.message == "start line exceeds 65536 bytes"
        assert sink.counters.get("serve.retry.attempts", 0) == 0
        assert daemon_sink.counters["serve.bad_requests"] == 1
        assert client.health()["ok"] is True

    def test_html_error_page_is_status_and_reason_phrase(self):
        """Ten lines of a server that is not ours: one HTML 502."""
        page = b"<html><body><h1>Bad Gateway</h1></body></html>"
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_once():
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                connection.sendall(
                    b"HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/html\r\n"
                    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
                    % (len(page), page)
                )

        proxy = threading.Thread(target=answer_once, daemon=True)
        proxy.start()
        try:
            sink = ThreadSafeSink()
            client = ServeClient(
                port=listener.getsockname()[1],
                retry=RetryPolicy(retries=3, backoff_s=0.2),
                sink=sink,
            )
            with pytest.raises(ServeClientError) as excinfo:
                client.health()
            assert excinfo.value.status == 502
            assert excinfo.value.message == "Bad Gateway"
            assert excinfo.value.reason is None and not excinfo.value.shed
            assert sink.counters.get("serve.retry.attempts", 0) == 0
        finally:
            proxy.join(timeout=5.0)
            listener.close()
        assert not proxy.is_alive()
