"""HTTP/JSON front end for :class:`~repro.serve.app.ServeApp`.

Pure marshaling: a ``socketserver`` TCP server (one thread per
connection, no new dependencies) whose handler reads and writes
HTTP/1.1 through :mod:`repro.serve.transport`, parses JSON bodies —
plain, or the header of a frame whose arrays follow it as raw float64
(:mod:`repro.serve.records`; told apart by the body's first bytes) —
dispatches to the app method for the route, and serializes the response
the same way: a frame exactly when the response holds arrays.
All domain errors arrive as :class:`~repro.serve.app.ServeError` and map
to the structured body of :func:`repro.serve.records.error_body` at the
error's status (sheds and deadline errors carry a machine-readable
``reason`` plus a ``Retry-After`` header); anything else is a 500 with
the exception text.

Resilience at the transport layer:

* A client that disconnects mid-response (``BrokenPipeError`` /
  ``ConnectionResetError`` while writing) is *not* an error worth a
  traceback — and replying to it again on the same dead socket would
  crash the handler loop.  ``_reply`` swallows write-side connection
  errors and counts them (``serve.conn_dropped``).
* ``GET /ready`` is the readiness probe (503 while draining or
  saturated) as distinct from ``GET /health`` liveness.
* ``POST /shutdown`` begins a *graceful drain*: the reply acknowledges
  ``{"state": "draining"}`` immediately, new work sheds with 503, and
  :meth:`ServeDaemon.drain_and_stop` — the one drain-and-stop, shared
  with SIGTERM and ``stop()`` — waits for in-flight requests plus the
  running tune job (bounded by the hard drain timeout) before stopping
  the accept loop.
* The listen backlog is bounded (``request_queue_size``) so overload
  pushes back at the kernel instead of accumulating unbounded sockets.
* ``Content-Length`` is validated before anything is read by it: not a
  non-negative decimal integer is a 400, above :data:`MAX_BODY_BYTES` a
  413, and a request with a ``Transfer-Encoding`` (chunked bodies are
  not read) a 501; each way the body stays unread and the connection
  closes.  So does a head the transport cannot read (400 / 414 / 431)
  and a method that has no routes (501) — every refusal is the
  structured JSON body, none leaves bytes behind to be parsed as the
  next request.
* The deterministic ``conn-drop`` fault kind truncates a response
  mid-body here — declared ``Content-Length``, half the bytes, close —
  which is what a retrying client sees as a ``BrokenReply``.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import threading
from typing import Any, Dict, Optional, Tuple

from repro.serve.app import ServeApp, ServeError
from repro.serve.records import FrameWriter, error_body, split_frame
from repro.serve.transport import REASONS, HeadError, ends_connection
from repro.serve.transport import read_head, send_message

#: Default daemon port (spells "PB" on a phone keypad, near enough).
DEFAULT_PORT = 7209

#: Largest request body the daemon will read (the benchmark's 256-line
#: ``/batch`` body is 3.4 MB); a larger ``Content-Length`` is a 413.
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Write-side socket failures meaning "the client went away", not "the
#: daemon is broken".
_CONN_ERRORS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)


class _Handler(socketserver.StreamRequestHandler):
    app: ServeApp  # injected by ServeDaemon via the handler subclass
    daemon: "ServeDaemon"  # likewise
    # Clients keep their connection; with Nagle on, a small reply could
    # wait ~40 ms for the peer's delayed ACK of the one before it.
    disable_nagle_algorithm = True

    def setup(self) -> None:
        super().setup()
        self.app.sink.count("serve.connections")
        self.server.connections.add(self.connection)

    def finish(self) -> None:
        self.server.connections.discard(self.connection)
        super().finish()

    def handle(self) -> None:
        """The keep-alive loop: requests off this connection, in order,
        until either side asks to close or framing is lost."""
        self.close_connection = False
        while not self.close_connection:
            self._handle_one()

    def _handle_one(self) -> None:
        try:
            head = read_head(self.rfile)
            if head is None:  # the peer is done with the connection
                self.close_connection = True
                return
            line, self.headers = head
            words = line.split()
            if len(words) != 3 or words[2] not in ("HTTP/1.1", "HTTP/1.0"):
                raise HeadError(400, f"malformed request line {line[:80]!r}")
            method, self.path, version = words
            self.close_connection = ends_connection(version, self.headers)
            if "transfer-encoding" in self.headers:
                raise self._unread(ServeError(
                    501,
                    "Transfer-Encoding is not supported: send the body "
                    "with a Content-Length",
                ))
            route = self._ROUTES.get(method)
            if route is None:
                raise self._unread(ServeError(
                    501, f"unsupported method {method[:80]!r}"
                ))
            route(self)
        except HeadError as exc:
            self._reply_error(
                self._unread(ServeError(exc.status, exc.message))
            )
        except _CONN_ERRORS:
            # Reset while idle, mid-upload or mid-reply: nobody is left
            # to answer.
            self.close_connection = True
            self._count_conn_dropped()
        except ServeError as exc:
            self._reply_error(exc)
        except Exception as exc:  # never kill the connection thread
            self._reply(500, error_body(f"{type(exc).__name__}: {exc}"))

    def _unread(self, refusal: ServeError) -> ServeError:
        """``refusal``, ready to raise, of a request whose body (if any)
        stays unread: whatever the peer sends next is not a request, so
        the reply to this one says ``Connection: close``."""
        self.close_connection = True
        self.app.sink.count("serve.bad_requests")
        return refusal

    # -- routing ------------------------------------------------------------

    def _get(self) -> None:
        if self.path == "/health":
            self._reply(200, self.app.health())
        elif self.path == "/ready":
            verdict = self.app.ready_probe()
            self._reply(200 if verdict["ready"] else 503, verdict)
        elif self.path == "/stats":
            self._reply(200, self.app.stats())
        elif self.path.startswith("/jobs/"):
            self._reply(200, self.app.job(self.path[len("/jobs/"):]))
        elif self.path.startswith("/programs/"):
            self._reply(
                200,
                self.app.program_info(self.path[len("/programs/"):]),
            )
        else:
            self._reply(404, error_body(f"no route {self.path!r}"))

    def _post(self) -> None:
        payload = self._payload()
        if self.path == "/compile":
            self._reply(200, self.app.compile(payload))
        elif self.path == "/run":
            self._reply(
                200,
                self.app.run(payload),
                drop=self.app._fires("conn-drop", "run", payload),
            )
        elif self.path == "/batch":
            self._reply(
                200,
                self.app.batch(payload),
                drop=self.app._fires("conn-drop", "batch", payload),
            )
        elif self.path == "/tune":
            self._reply(200, self.app.tune(payload))
        elif self.path == "/check":
            self._reply(200, self.app.check(payload))
        elif self.path == "/shutdown":
            self.daemon.drain_and_stop()
            self._reply(200, {"ok": True, "state": "draining"})
        else:
            self._reply(404, error_body(f"no route {self.path!r}"))

    _ROUTES = {"GET": _get, "POST": _post}

    # -- plumbing -----------------------------------------------------------

    def _payload(self) -> Dict[str, Any]:
        declared = self.headers.get("content-length") or "0"
        digits = declared.lstrip("0") or "0"
        # Nothing is read on a length we cannot trust.
        if not (declared.isascii() and declared.isdigit()):
            raise self._unread(
                ServeError(400, f"bad Content-Length {declared!r}")
            )
        if len(digits) > 18 or int(digits) > MAX_BODY_BYTES:
            raise self._unread(ServeError(
                413,
                f"body of {digits} bytes exceeds the limit of "
                f"{MAX_BODY_BYTES}",
            ))
        length = int(digits)
        if length == 0:
            return {}
        if self.headers.get("expect", "").lower() == "100-continue":
            # The peer holds its body back until told the head was fine.
            send_message(self.connection, b"HTTP/1.1 100 Continue\r\n\r\n")
        # A client vanishing mid-upload raises a connection error here,
        # caught by ``_handle_one`` so no route runs on a half-read body.
        raw = self.rfile.read(length)
        try:
            header, arrays = split_frame(raw)
            payload = json.loads(header, object_hook=arrays)
        except ValueError as exc:
            raise ServeError(400, f"bad JSON body: {exc}")
        if not isinstance(payload, dict):
            raise ServeError(400, "JSON body must be an object")
        return payload

    def _reply_error(self, exc: ServeError) -> None:
        self._reply(
            exc.status,
            error_body(exc.message, reason=exc.code,
                       retry_after=exc.retry_after),
            retry_after=exc.retry_after,
        )

    def _reply(
        self,
        status: int,
        payload: Dict[str, Any],
        retry_after: Optional[float] = None,
        drop: bool = False,
    ) -> None:
        frame = FrameWriter()
        body = frame.body(json.dumps(payload, sort_keys=True, default=frame))
        head = (
            f"HTTP/1.1 {status} {REASONS.get(status, '')}\r\n"
            "Server: repro-serve\r\n"
            f"Content-Type: {frame.content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            # HTTP wants integral seconds; never round a positive hint
            # down to "retry immediately".
            head += f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
        if drop or self.close_connection:
            head += "Connection: close\r\n"
        if drop:
            # Injected conn-drop: declared length, half the bytes, then
            # hang up — the client sees a BrokenReply.
            body = body[: len(body) // 2]
        try:
            send_message(
                self.connection, (head + "\r\n").encode("latin-1"), body
            )
        except _CONN_ERRORS:
            # The peer hung up while we were answering.  Writing again
            # (e.g. an error reply) would just raise on the same dead
            # socket; count it and let the handler thread end quietly.
            drop = True
        if drop:
            self.close_connection = True
            self._count_conn_dropped()

    def _count_conn_dropped(self) -> None:
        self.app.sink.count("serve.conn_dropped")


class ServeDaemon:
    """One app bound to one listening socket.

    ``port=0`` binds an ephemeral port (tests and the latency benchmark
    use this); read it back from :attr:`port`.  ``backlog`` bounds the
    kernel listen queue — the outermost tier of admission control.
    """

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        backlog: int = 64,
    ) -> None:
        self.app = app
        handler = type(
            "_BoundHandler", (_Handler,), {"app": app, "daemon": self}
        )
        server_cls = type(
            "_BoundServer",
            (socketserver.ThreadingTCPServer,),
            {
                "request_queue_size": max(1, int(backlog)),
                "allow_reuse_address": True,
                "daemon_threads": True,
            },
        )
        self.server = server_cls((host, port), handler)
        self.server.connections = set()  # open sockets, idle or busy
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self.server.server_address[:2]

    @property
    def port(self) -> int:
        return self.server.server_address[1]

    def serve_forever(self) -> None:
        """Block until ``/shutdown`` (or ``stop()``); then drain jobs."""
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.server.server_close()
            # Idle keep-alive handlers sit in a blocking read: end their
            # input so each exits after the reply it may be writing, and
            # a client's next request reconnects (to our successor).
            for connection in list(self.server.connections):
                try:
                    connection.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
            self.app.close()

    def start_background(self) -> "ServeDaemon":
        """Run the accept loop on a daemon thread (tests, benchmarks)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def drain_and_stop(self) -> threading.Thread:
        """Graceful stop (``POST /shutdown``, SIGTERM, ``stop()``): shed
        new work now; on the returned thread, wait for admitted work
        and the running tune job (bounded by the drain timeout), then
        break the accept loop — ``server.shutdown()`` would deadlock on
        a handler thread or on the serving thread's signal frame."""
        self.app.begin_drain()

        def stop() -> None:
            self.app.drain()
            self.server.shutdown()

        stopper = threading.Thread(target=stop, name="repro-serve-drain",
                                   daemon=True)
        stopper.start()
        return stopper

    def stop(self, graceful: bool = True) -> None:
        """Stop the daemon: :meth:`drain_and_stop` when ``graceful``
        (default), else break the accept loop at once."""
        if graceful:
            self.drain_and_stop().join()
        else:
            self.server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
