"""Thin client for the serve daemon, over one kept-alive socket.

:class:`ServeClient` is the programmatic API; the ``repro client`` CLI
subcommand (:mod:`repro.cli`) wraps it.  The client is deliberately
dumb: it hashes program source locally (the same blake2b the daemon
uses) so the warm path is a single ``/run`` or ``/batch`` round trip,
and transparently registers the source on an unknown-program 404 — the
compile-once handshake costs one extra request, once.

Wire: a request that carries arrays is one frame (JSON header + raw
float64 blobs, :mod:`repro.serve.records`), built and split here around
this module's own ``json.dumps``/``json.loads`` calls; everything else
is plain JSON; the HTTP around either is
:class:`repro.serve.transport.Connection`.  A reply is classified by
status first: a non-2xx is a :class:`ServeClientError` whatever its body
(the daemon's structured error, or the status line's reason phrase for a
page that is not ours — a proxy's), and only a 2xx body that fails to
decode counts as a cut connection.

Client-side resilience (the other half of the serving contract):

* **Bounded retries with deterministic backoff** — connection errors
  (refused, reset, truncated response) and structured 429/503 sheds
  retry up to :class:`~repro.faults.RetryPolicy` attempts,
  sleeping exponential backoff ± seeded jitter between tries.  A shed
  carrying ``Retry-After`` is honored (capped at the policy maximum)
  instead of guessing.
* **Idempotent-only** — retries fire only for routes that are safe to
  replay.  ``/run``, ``/batch``, and ``/check`` are read-only over
  immutable versions; ``/compile`` is content-addressed; ``/tune`` is
  made safe by an ``idempotency_key`` the client auto-generates, so a
  replayed tune dedupes server-side instead of launching twice.
* **Fault identity threading** — payloads carry the caller's ``rid``
  and the client's ``attempt`` counter, so deterministic serve-side
  fault plans (:mod:`repro.faults`) key off request identity and the
  chaos harness replays byte-identically.

Retry accounting lands on an optional sink: ``serve.retry.attempts``
(re-sends), ``serve.retry.recoveries`` (a retry that succeeded),
``serve.retry.giveups`` (budget exhausted).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import uuid
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from repro.faults import Deadline, RetryPolicy
from repro.serve.daemon import DEFAULT_PORT
from repro.serve.records import FrameWriter, WireError, decode_array
from repro.serve.records import encode_array, split_frame
from repro.serve.registry import program_digest
from repro.serve.transport import BrokenReply, Connection

#: Routes safe to replay (see module docstring); everything POSTed
#: outside this set gets exactly one attempt unless it carries an
#: idempotency key.
IDEMPOTENT_POSTS = frozenset(
    {"/compile", "/run", "/batch", "/check", "/shutdown"}
)

#: How ``wait_job`` polls: 50 ms doubling to 1 s, no jitter.
JOB_POLL = RetryPolicy(backoff_s=0.05, max_backoff_s=1.0, jitter=0.0)

#: Transport-level failures worth a retry: the request may never have
#: reached the daemon, or the response was cut off mid-body.
_RETRYABLE_TRANSPORT = (ConnectionError, TimeoutError)


class ServeClientError(Exception):
    """A non-2xx daemon response (carries the HTTP status plus the
    structured ``reason`` / ``retry_after`` fields when present)."""

    def __init__(
        self,
        status: int,
        message: str,
        reason: Optional[str] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"[{status}] {message}")
        self.status = status
        self.message = message
        self.reason = reason
        self.retry_after = retry_after

    @property
    def shed(self) -> bool:
        """True when the daemon pushed back (retry later), as opposed
        to rejecting the request itself."""
        return self.status in (429, 503)


class ServeClient:
    """One daemon address and one kept-alive connection per calling
    thread (a TCP connection per request measured 0.5 ms of a 2.2 ms
    warm ``/run``).  A transport error or a ``Connection: close`` reply
    drops the connection and the retry loop's next attempt reconnects.

    Arrays cross the wire out of band, as the float64 blobs of a frame
    (:mod:`repro.serve.records`: decimal text cost 3.3 ms of a 34x34
    round trip, base64 inside the JSON 0.4 ms, the frame a byte copy);
    ``run`` and ``batch`` unpack the replies, so callers still pass and
    receive nested lists."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
        retry: Optional[RetryPolicy] = None,
        sink=None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.sink = sink
        self._local = threading.local()  # .connection, per thread

    # -- transport ----------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One logical request = up to ``1 + retry.retries`` attempts.

        GETs and idempotent POSTs retry on transport failures and on
        429/503 sheds; a POST outside :data:`IDEMPOTENT_POSTS` retries
        only when its payload carries an ``idempotency_key`` (the
        daemon dedupes the replay).  Non-shed HTTP errors (400/404/...)
        never retry — they'd fail identically again.
        """
        retryable = method == "GET" or path in IDEMPOTENT_POSTS
        if not retryable and payload is not None:
            retryable = "idempotency_key" in payload
        body = dict(payload) if payload is not None else None
        attempts = 1 + (self.retry.retries if retryable else 0)
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if body is not None and "rid" in body:
                # Thread the attempt counter through so deterministic
                # serve-side fault plans key off (rid, attempt).
                body["attempt"] = attempt
            if attempt > 0:
                self._count("serve.retry.attempts")
            try:
                result = self._attempt(method, path, body)
            except _RETRYABLE_TRANSPORT as exc:
                last_error = exc
                if attempt + 1 >= attempts:
                    break
                time.sleep(self.retry.delay(path, attempt))
                continue
            except ServeClientError as exc:
                if not (exc.shed and attempt + 1 < attempts):
                    if exc.shed:
                        self._count("serve.retry.giveups")
                    raise
                last_error = exc
                time.sleep(
                    self.retry.delay(path, attempt,
                                     retry_after=exc.retry_after)
                )
                continue
            if attempt > 0:
                self._count("serve.retry.recoveries")
            return result
        self._count("serve.retry.giveups")
        assert last_error is not None
        raise last_error

    def _attempt(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]],
    ) -> Dict[str, Any]:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = Connection(
                self.host, self.port, self.timeout
            )
        body = content_type = None
        if payload is not None:
            frame = FrameWriter()
            body = frame.body(json.dumps(payload, default=frame))
            content_type = frame.content_type
        try:
            reply = connection.request(method, path, body, content_type)
            try:
                header, arrays = split_frame(reply.body or b"{}")
                data = json.loads(header, object_hook=arrays)
                if arrays is not None and arrays.broken:
                    raise WireError("frame: broken array reference")
            except ValueError:
                if reply.status < 300:
                    # A truncated or garbled body on a 2xx is a dropped
                    # connection in JSON clothing — classify it as such
                    # so it retries.
                    raise BrokenReply("undecodable 2xx reply") from None
                # Not one of ours (a proxy's HTML error page): the
                # status still says what happened.
                data = None
        except BaseException:
            # Whatever state the exchange died in, never reuse it.
            self._drop_connection()
            raise
        if reply.closing:
            self._drop_connection()
        if reply.status >= 300:
            retry_after: Optional[float] = None
            try:
                retry_after = float(reply.headers["retry-after"])
            except (KeyError, ValueError):
                pass
            if isinstance(data, dict):
                retry_after = data.get("retry_after", retry_after)
                reason = data.get("reason")
                message = data.get("error", "unknown error")
            else:
                reason = None
                message = reply.reason or "unknown error"
            raise ServeClientError(
                reply.status, message,
                reason=reason, retry_after=retry_after,
            )
        return data

    def _drop_connection(self) -> None:
        self._local.connection.close()
        del self._local.connection

    def _count(self, name: str) -> None:
        if self.sink is not None:
            self.sink.count(name)

    # -- endpoints ----------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/health")

    def ready(self) -> Dict[str, Any]:
        """Readiness verdict; unlike the raw route this never raises on
        a 503 — ``{"ready": False, ...}`` is an answer, not an error."""
        try:
            return self.request("GET", "/ready")
        except ServeClientError as exc:
            return {"ready": False, "reason": exc.reason or exc.message}

    def stats(self) -> Dict[str, Any]:
        return self.request("GET", "/stats")

    def compile(self, source: str) -> Dict[str, Any]:
        return self.request("POST", "/compile", {"source": source})

    def ensure_program(self, source: str) -> str:
        """The compile-once handshake: return the program hash, sending
        the source over the wire only if the daemon doesn't know it."""
        phash = program_digest(source)
        try:
            self.request("GET", f"/programs/{phash}")
            return phash
        except ServeClientError as exc:
            if exc.status != 404:
                raise
        return self.compile(source)["program"]

    def run(
        self,
        program: str,
        transform: str,
        inputs: Union[Mapping[str, Any], Sequence[Any], None],
        sizes: Optional[Mapping[str, int]] = None,
        machine: Optional[str] = None,
        config: Optional[Mapping[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        rid: Optional[str] = None,
    ) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "program": program,
            "transform": transform,
            "inputs": _pack_inputs(inputs),
            "arrays": "packed",
        }
        if sizes:
            payload["sizes"] = dict(sizes)
        if machine:
            payload["machine"] = machine
        if config is not None:
            payload["config"] = dict(config)
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if rid is not None:
            payload["rid"] = rid
        return _unpack(self.request("POST", "/run", payload))

    def batch(
        self,
        program: str,
        lines: Sequence[Union[str, Mapping[str, Any]]],
        strict: bool = False,
        machine: Optional[str] = None,
        config: Optional[Mapping[str, Any]] = None,
        deadline_ms: Optional[float] = None,
        rid: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``lines`` holds JSONL strings, sent as they are, and/or
        request mappings, whose ``inputs`` travel packed like ``run``'s
        (no decimal text on either side)."""
        payload: Dict[str, Any] = {
            "program": program,
            "lines": [
                {**line, "inputs": _pack_inputs(line.get("inputs"))}
                if isinstance(line, Mapping) else line
                for line in lines
            ],
            "strict": strict,
            "arrays": "packed",
        }
        if machine:
            payload["machine"] = machine
        if config is not None:
            payload["config"] = dict(config)
        if deadline_ms is not None:
            payload["deadline_ms"] = deadline_ms
        if rid is not None:
            payload["rid"] = rid
        return _unpack(self.request("POST", "/batch", payload))

    def tune(
        self, program: str, transform: str, **options: Any
    ) -> Dict[str, Any]:
        payload = {"program": program, "transform": transform, **options}
        # /tune is not naturally idempotent; an auto-generated key makes
        # the replayed request dedupe server-side instead of launching
        # the same tuning run twice.
        payload.setdefault("idempotency_key", uuid.uuid4().hex)
        return self.request("POST", "/tune", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/jobs/{job_id}")

    def wait_job(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Poll a job to a terminal state on the :data:`JOB_POLL`
        backoff — tight enough for short tunes, no busy-spin for long
        ones."""
        deadline = Deadline.after(timeout)
        for attempt in itertools.count():
            snapshot = self.job(job_id)
            if snapshot["state"] in ("done", "failed", "cancelled"):
                return snapshot
            if deadline.expired():
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} "
                    f"after {timeout:.0f}s"
                )
            time.sleep(
                min(JOB_POLL.delay("job", attempt), deadline.remaining_s())
            )

    def check(self, program: str) -> Dict[str, Any]:
        return self.request("POST", "/check", {"program": program})

    def shutdown(self) -> Dict[str, Any]:
        return self.request("POST", "/shutdown")


def _pack(value: Any) -> Any:
    """One array position packed; what numpy rejects travels as it is,
    for the daemon's 400 to describe."""
    try:
        return encode_array(value, True)
    except (TypeError, ValueError):
        return value


def _pack_inputs(inputs: Any) -> Any:
    """The ``inputs`` of a ``/run`` request or a ``/batch`` line with
    every array position packed."""
    if isinstance(inputs, Mapping):
        return {name: _pack(value) for name, value in inputs.items()}
    if isinstance(inputs, (list, tuple)):
        return [_pack(value) for value in inputs]
    return inputs


def _unpack(response: Dict[str, Any]) -> Dict[str, Any]:
    """The output arrays of a ``/run`` reply, or of the records of a
    ``/batch`` reply — views into the received frame — back to nested
    lists (in place)."""
    for record in response.get("results", [response]):
        for name, value in (record.get("outputs") or {}).items():
            record["outputs"][name] = decode_array(value).tolist()
    return response
