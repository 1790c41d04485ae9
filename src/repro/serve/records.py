"""Canonical JSON result records shared by ``repro batch`` and the
serve daemon.

Both the direct CLI and the daemon's ``/batch`` endpoint must emit the
*same bytes* for the same requests — the bit-parity acceptance check of
the serve layer — so the record shape lives here and is built in exactly
one place.  Records serialize with ``json.dumps(record, sort_keys=True)``.
"""

from __future__ import annotations

import base64
import math
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.batch.request import BatchResult


class WireError(ValueError):
    """A packed array object that breaks the wire format."""


def encode_array(array: Any, packed: bool) -> Any:
    """One array position of a request or reply: the nested list, or
    packed ``{"f8": <base64 of the C-order little-endian float64
    bytes>, "shape": [...]}`` — the same bits at 10.7 bytes per element
    with no decimal printing or parsing on either side."""
    if not packed:
        return array.tolist()
    data = np.asarray(array, dtype="<f8", order="C")
    return {
        "f8": base64.b64encode(data).decode("ascii"),
        "shape": list(data.shape),
    }


def decode_array(value: Any) -> np.ndarray:
    """Either form of :func:`encode_array` as a float64 array.  A packed
    object is checked before anything is sized from it: its bytes must
    number exactly ``8 * prod(shape)``."""
    if not isinstance(value, Mapping):
        return np.asarray(value, dtype=np.float64)
    data, shape = value.get("f8"), value.get("shape")
    try:
        if not isinstance(data, str):
            raise ValueError("'f8' must be a base64 string")
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise ValueError("'shape' must list non-negative integers")
        raw = base64.b64decode(data, validate=True)
        if len(raw) != 8 * math.prod(shape):
            raise ValueError(f"{len(raw)} bytes for shape {shape}")
        return np.frombuffer(raw, dtype="<f8").reshape(shape)
    except (ValueError, OverflowError) as exc:
        raise WireError(f"packed array: {exc}")


def result_record(
    result: BatchResult,
    record_id: Optional[int] = None,
    packed: bool = False,
) -> Dict[str, Any]:
    """One JSONL-able record for a batch result.

    ``record_id`` overrides the engine-assigned request id — the daemon
    passes the position within the incoming request list so a long-lived
    engine (whose internal ids keep growing across calls) still emits
    the ids a fresh ``repro batch`` process would.
    """
    record_id = result.request_id if record_id is None else record_id
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
    """The record a malformed (unparseable / unknown-transform) request
    line degrades to when ``--strict`` is off."""
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
