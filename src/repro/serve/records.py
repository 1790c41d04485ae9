"""Canonical result records and the wire codec of the serve daemon.

``repro batch``, ``repro client batch`` and a daemon's ``/batch`` emit
the *same bytes* for the same lines by construction: all three are
:meth:`repro.serve.ServeApp.batch` (the CLI runs it in process), which
builds every record here.  Records serialize with
``json.dumps(record, sort_keys=True)``.

An array position of a request or reply is a nested list or, out of
band, raw float64 behind the JSON.  A body that carries arrays is one
**frame** (:class:`FrameWriter` builds it, :func:`split_frame` reads it)::

    FRAME_MAGIC | header length, uint32 big-endian | header | pad to 8 | blobs

where the header is the UTF-8 JSON body as it would be without frames,
each out-of-band array position holding ``{"f8": <byte offset into the
blobs>, "shape": [...]}``, and the blobs are C-order little-endian
float64 data back to back.  A body without arrays is the plain JSON it
always was; a reader tells the two apart by the first bytes, so no HTTP
header selects the form.  The callers keep their own ``json.dumps`` /
``json.loads`` calls (and options): this module only supplies their
``default=`` and ``object_hook=`` arguments.  DESIGN.md "Serving daemon
→ Wire" has the checks and their order.
"""

from __future__ import annotations

import math
import struct
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.batch.request import BatchResult

#: First bytes of a frame.  The high-bit lead byte can start neither
#: JSON nor any UTF-8 text, so a plain body is never mistaken for one.
FRAME_MAGIC = b"\x89PBF"

_HEADER_LENGTH = struct.Struct(">I")
_PREFIX = len(FRAME_MAGIC) + _HEADER_LENGTH.size


class WireError(ValueError):
    """A frame or an array reference that breaks the wire format."""


def encode_array(array: Any, packed: bool) -> Any:
    """One array position of a request or reply: the nested list, or
    (packed) the C-order little-endian float64 array itself, which
    :class:`FrameWriter` moves out of band — the same bits at 8 bytes
    per element, no text on either side."""
    if not packed:
        return array.tolist()
    return np.asarray(array, dtype="<f8", order="C")


def decode_array(value: Any) -> np.ndarray:
    """An array position as a float64 array: a nested list, or the view
    :func:`split_frame` resolved a reference to.  A reference that
    failed its checks arrives as the :class:`WireError` it earned and is
    raised here, at the position that wanted the array; any other object
    is not an array (the base64 ``"f8"`` object is gone)."""
    if isinstance(value, WireError):
        raise value
    if isinstance(value, Mapping):
        raise WireError(
            "packed array: not an array reference of a frame (the base64 "
            "object form was removed; send nested lists or a frame)"
        )
    return np.asarray(value, dtype=np.float64)


class FrameWriter:
    """Collects the arrays of one body: pass the instance as
    ``json.dumps(..., default=writer)`` — every ndarray is swapped for
    its ``{"f8": offset, "shape": [...]}`` reference — then
    :meth:`body` assembles what goes on the wire."""

    def __init__(self) -> None:
        self.blobs: List[np.ndarray] = []
        self._size = 0

    def __call__(self, value: Any) -> Dict[str, Any]:
        if not isinstance(value, np.ndarray):
            raise TypeError(
                f"Object of type {type(value).__name__} "
                "is not JSON serializable"
            )
        data = np.asarray(value, dtype="<f8", order="C")
        reference = {"f8": self._size, "shape": list(data.shape)}
        self.blobs.append(data)
        self._size += data.nbytes
        return reference

    @property
    def content_type(self) -> str:
        """For humans and proxies; no reader selects the form by it."""
        return "application/octet-stream" if self.blobs else "application/json"

    def body(self, text: str) -> bytes:
        """The bytes to send for the dumped ``text``: a frame when it
        references arrays, else the text itself."""
        header = text.encode("utf-8")
        if not self.blobs:
            return header
        pad = bytes(-(_PREFIX + len(header)) % 8)
        prefix = FRAME_MAGIC + _HEADER_LENGTH.pack(len(header))
        return b"".join([prefix, header, pad, *self.blobs])


class FrameArrays:
    """``object_hook`` over a frame's header: each reference becomes a
    read-only view into the received body (no copy).  A reference is
    checked before anything is sized from it; one that fails becomes a
    :class:`WireError` *value* for :func:`decode_array` to raise — so a
    bad ``/batch`` line degrades alone — and sets :attr:`broken`."""

    def __init__(self, blobs: memoryview) -> None:
        self._blobs = blobs
        self.broken = False

    def __call__(self, obj: Dict[str, Any]) -> Any:
        if len(obj) != 2 or "f8" not in obj or "shape" not in obj:
            return obj
        offset, shape = obj["f8"], obj["shape"]
        try:
            if type(offset) is not int or offset < 0 or offset % 8:
                raise ValueError(
                    "'f8' must be a byte offset, a non-negative multiple "
                    "of 8 (the base64 string form was removed)"
                )
            if not isinstance(shape, list) or not all(
                type(dim) is int and dim >= 0 for dim in shape
            ):
                raise ValueError("'shape' must list non-negative integers")
            count = math.prod(shape)
            if offset + 8 * count > len(self._blobs):
                raise ValueError(
                    f"shape {shape} at offset {offset} runs past the "
                    f"{len(self._blobs)} blob bytes of the frame"
                )
            return np.frombuffer(
                self._blobs, dtype="<f8", count=count, offset=offset
            ).reshape(shape)
        except (ValueError, OverflowError) as exc:
            self.broken = True
            return WireError(f"packed array: {exc}")


def split_frame(body: bytes) -> Tuple[bytes, Optional[FrameArrays]]:
    """A received body as ``(header, resolver)`` for
    ``json.loads(header, object_hook=resolver)``.  A plain JSON body is
    its own header with no resolver; a frame whose prefix is cut short
    or whose header length runs past the body is a :class:`WireError`."""
    if not body.startswith(FRAME_MAGIC):
        return body, None
    if len(body) < _PREFIX:
        raise WireError("frame: truncated header length")
    (length,) = _HEADER_LENGTH.unpack_from(body, len(FRAME_MAGIC))
    end = _PREFIX + length
    if end > len(body):
        raise WireError(
            f"frame: header of {length} bytes in a body of {len(body)}"
        )
    return body[_PREFIX:end], FrameArrays(memoryview(body)[end + -end % 8:])


def result_record(
    result: BatchResult, record_id: int, packed: bool = False
) -> Dict[str, Any]:
    """One JSONL-able record for a batch result.

    ``record_id`` is the request's position among the call's submitted
    lines, not the engine-assigned request id: a long-lived engine's ids
    keep growing across calls, and a record must not show it.
    """
    if result.ok:
        assert result.outputs is not None
        return {
            "id": record_id,
            "ok": True,
            "stacked": result.stacked,
            "outputs": {
                name: encode_array(matrix.data, packed)
                for name, matrix in result.outputs.items()
            },
        }
    return {
        "id": record_id,
        "ok": False,
        "error": f"{type(result.error).__name__}: {result.error}",
    }


def malformed_record(lineno: int, message: str) -> Dict[str, Any]:
    """The record a malformed request line (bad JSON, unknown transform,
    refused config or sizes) degrades to when ``strict`` is off."""
    return {"id": None, "line": lineno, "ok": False, "error": message}


def error_body(
    message: str,
    reason: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    """The structured HTTP error body every non-2xx daemon response
    carries: ``error`` (human text) plus, when known, a machine-readable
    ``reason`` (``capacity`` | ``queue_timeout`` | ``draining`` |
    ``deadline_exceeded`` | ``store_io`` | ...) and a ``retry_after``
    hint in seconds (mirrored in the ``Retry-After`` header).  The chaos
    harness validates shed/deadline errors against this shape."""
    body: Dict[str, Any] = {"error": message}
    if reason is not None:
        body["reason"] = reason
    if retry_after is not None:
        body["retry_after"] = retry_after
    return body
