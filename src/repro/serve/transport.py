"""The HTTP/1.1 this package speaks — all of it, for daemon and client.

Plain HTTP/1.1 over a stream socket, cut down to what ``repro serve``
needs: messages framed by ``Content-Length`` on kept-alive connections.
Two functions do the work on both sides:

* :func:`read_head` — one ``readline`` loop from a buffered reader to
  the start line and a ``{lower-cased name: value}`` dict.  Nothing is
  interpreted here; callers read the five headers that change what
  happens on the wire (``Content-Length``, ``Connection``, ``Expect``,
  ``Transfer-Encoding``, ``Retry-After``) and ignore the rest.
* :func:`send_message` — head and body in **one** system call, so no
  message waits on the peer between its two halves and the sending
  thread gives up the GIL once per message.

:class:`Connection` is the client half built on them: one socket and
one buffered reader, kept alive between exchanges.  What is *not* here,
on purpose: chunked transfer coding (the daemon refuses it with a 501,
the client treats a chunked reply as a broken one), header folding,
trailers, pipelining on the client, TLS.  ``curl``, ``urllib`` and any
other HTTP/1.x client speak to the daemon unchanged.

Depends on ``socket`` alone, and on nothing else in :mod:`repro`.
"""

from __future__ import annotations

import socket
from typing import BinaryIO, Dict, NamedTuple, Optional, Tuple

#: Longest start or header line accepted, and the most header lines
#: (the standard library's HTTP modules draw the same two lines).
MAX_LINE = 65536
MAX_HEADERS = 100

#: Reason phrases of the statuses the daemon sends.
REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Request Entity Too Large",
    414: "Request-URI Too Long",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HeadError(ValueError):
    """A message head that cannot be read; ``status`` is what a server
    answers it with (414 / 431 for the size limits, else 400)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


class BrokenReply(ConnectionError):
    """A reply that ended, or stopped making sense, before its declared
    end — the peer hung up mid-message.  Retryable like any other
    connection error."""


def read_head(rfile: BinaryIO) -> Optional[Tuple[str, Dict[str, str]]]:
    """The next message head on ``rfile`` as ``(start line, headers)``,
    header names lower-cased and a repeated name keeping its last value;
    ``None`` when the peer closed before sending a byte of it.  Raises
    :class:`HeadError` for a line over :data:`MAX_LINE` bytes, more than
    :data:`MAX_HEADERS` headers, a header line without a colon, and a
    head cut off by the end of the stream."""
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    if len(line) > MAX_LINE:
        raise HeadError(414, f"start line exceeds {MAX_LINE} bytes")
    start = line.decode("latin-1").rstrip("\r\n")
    headers: Dict[str, str] = {}
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return start, headers
        if len(line) > MAX_LINE:
            raise HeadError(431, f"header line exceeds {MAX_LINE} bytes")
        if not line:
            raise HeadError(400, "message head cut off before its blank line")
        if len(headers) >= MAX_HEADERS:
            raise HeadError(431, f"more than {MAX_HEADERS} headers")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not name or name != name.strip():
            raise HeadError(400, f"malformed header line {line[:80]!r}")
        headers[name.lower()] = value.strip()


def ends_connection(version: str, headers: Dict[str, str]) -> bool:
    """Whether the sender of this head will not use the connection
    again: HTTP/1.0, or ``Connection: close``."""
    return (
        version == "HTTP/1.0"
        or "close" in headers.get("connection", "").lower()
    )


def send_message(sock: socket.socket, head: bytes, body: bytes = b"") -> None:
    """``head`` then ``body`` in one system call: a ``sendmsg`` of the
    two buffers, so a 135 KB frame is never copied behind its head.
    (Joining a small body to the head and calling ``sendall`` measured
    the same at every size, so there is one path.)  Whatever a full
    socket buffer leaves unsent follows through ``sendall``."""
    sent = sock.sendmsg([head, body])
    if sent < len(head):
        sock.sendall(head[sent:])
        sent = len(head)
    if sent < len(head) + len(body):
        sock.sendall(memoryview(body)[sent - len(head):])


class Reply(NamedTuple):
    status: int
    reason: str
    headers: Dict[str, str]
    body: bytes
    #: the server will not answer on this connection again
    closing: bool


class Connection:
    """One kept-alive client connection: a socket and its buffered
    reader.  After any exception, and after a :attr:`Reply.closing`
    reply, the owner must :meth:`close` it and open another."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        # A request is one write, but the reply to it must not wait for
        # a delayed ACK either way round.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self._request_head = f" HTTP/1.1\r\nHost: {host}:{port}\r\n"

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: Optional[str] = None,
    ) -> Reply:
        """One exchange.  The reply body is read by its
        ``Content-Length`` (to the end of the stream without one, which
        also ends the connection); a stream that ends early is a
        :class:`BrokenReply`."""
        head = f"{method} {path}{self._request_head}"
        if body is not None:
            head += (
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        send_message(self.sock, (head + "\r\n").encode("latin-1"), body or b"")
        try:
            parsed = read_head(self.rfile)
        except HeadError as exc:
            raise BrokenReply(exc.message) from None
        if parsed is None:
            raise BrokenReply("connection closed before the reply")
        start, headers = parsed
        version, _, rest = start.partition(" ")
        code, _, reason = rest.partition(" ")
        if not (
            version.startswith("HTTP/1.") and code.isascii() and code.isdigit()
        ):
            raise BrokenReply(f"malformed status line {start[:80]!r}")
        if "transfer-encoding" in headers:
            raise BrokenReply("reply uses a transfer coding")
        closing = ends_connection(version, headers)
        declared = headers.get("content-length")
        if declared is None:
            closing = True
            raw = self.rfile.read()
        elif not (declared.isascii() and declared.isdigit()):
            raise BrokenReply(f"bad Content-Length {declared!r} in reply")
        else:
            raw = self.rfile.read(int(declared))
            if len(raw) < int(declared):
                raise BrokenReply(
                    f"reply cut off at {len(raw)} of {declared} bytes"
                )
        return Reply(int(code), reason.strip(), headers, raw, closing)

    def close(self) -> None:
        try:
            self.rfile.close()
        finally:
            self.sock.close()
