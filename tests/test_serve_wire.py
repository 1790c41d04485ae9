"""The serve daemon's wire: float64 arrays out of band in a frame,
kept-alive connections, and the HTTP/1.1 under both.

Covers the one codec (:class:`FrameWriter` / :func:`split_frame` around
:func:`encode_array` / :func:`decode_array`) — bit-exactness of IEEE
edge values through both forms over real HTTP against a direct
:meth:`CompiledTransform.run`, a round-trip property over shapes and
memory layouts, structured 400s for every malformed frame and array
reference — plus the connection policy (one socket per client thread,
reconnect after a daemon restart or an injected drop, no stop delay
from idle sockets), a timer-free pin of the framed body size, and the
transport table: what :mod:`repro.serve.transport` accepts from clients
that are not ours, partial sends, and one send call per message.
"""

import base64
import http.client
import json
import socket
import struct
import threading
import time
import tracemalloc
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import compile_program
from repro.faults import FaultInjector
from repro.observe import ThreadSafeSink
from repro.serve import ServeApp, ServeClient, ServeClientError, ServeDaemon
from repro.serve.records import FRAME_MAGIC, FrameWriter, WireError
from repro.serve.records import decode_array, encode_array, split_frame
from repro.serve import RetryPolicy
from repro.serve.transport import send_message
from tests.strategies import converse

PROGRAM = """
transform Scale
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a * 2.0 + 1.0; }
}

transform Copy
from A[n]
to B[n]
{
  to (B.cell(i) b) from (A.cell(i) a) { b = a; }
}

transform Blur
from A[n+2, m+2]
to B[n, m]
{
  to (B.cell(x, y) b)
  from (A.cell(x, y) nw, A.cell(x+1, y+1) c, A.cell(x+2, y+2) se) {
    b = c * 0.5 + nw * 0.25 + se * 0.25;
  }
}
"""

#: -0.0, the smallest subnormal, more subnormals, nan, the infinities,
#: the largest finite double, and a value whose repr needs 17 digits.
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    float("nan"), float("inf"), float("-inf"),
    1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2,
]

#: the documented first bytes, spelled out so a change of the constant
#: is a change of the wire and fails here
MAGIC = b"\x89PBF"


def _bits(value):
    return np.asarray(value, dtype="<f8").tobytes()


def _frame(header, blobs=b""):
    """A frame put together by hand from the documented layout — magic,
    big-endian header length, header, padding to 8, blobs — so the
    decoder is tested against the format, not against the encoder."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return b"".join([
        MAGIC, struct.pack(">I", len(header)), header,
        bytes(-(8 + len(header)) % 8), blobs,
    ])


def _dumps(payload):
    """What a framing client sends for ``payload``: plain JSON, or a
    frame when it holds ndarrays."""
    writer = FrameWriter()
    return writer.body(json.dumps(payload, default=writer))


def _loads(body):
    """Either body form as the payload, arrays as views into ``body``."""
    header, arrays = split_frame(body)
    return json.loads(header, object_hook=arrays)


def _owner(array):
    """The object whose memory ``array`` views."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


@pytest.fixture(scope="module")
def direct():
    return compile_program(PROGRAM)


@pytest.fixture()
def daemon():
    server = ServeDaemon(ServeApp(), port=0).start_background()
    yield server
    server.stop()


@pytest.fixture()
def phash(daemon):
    return daemon.app.compile({"source": PROGRAM})["program"]


def _post(daemon, path, payload):
    """One raw HTTP exchange: (status, body bytes) — no ServeClient, so
    the request is exactly the bytes given (a dict is dumped as
    :func:`_dumps` does: a frame only if it holds ndarrays)."""
    body = payload if isinstance(payload, bytes) else _dumps(payload)
    connection = http.client.HTTPConnection(
        "127.0.0.1", daemon.port, timeout=30
    )
    try:
        connection.request("POST", path, body=body)
        response = connection.getresponse()
        raw = response.read()
        # the reply's form is in its first bytes and mirrored, for
        # humans, in the content type; errors are never frames
        framed = raw.startswith(MAGIC)
        assert response.getheader("Content-Type") == (
            "application/octet-stream" if framed else "application/json"
        )
        assert not (framed and response.status >= 300)
        return response.status, raw
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# the codec


class TestCodec:
    @settings(max_examples=150, deadline=None)
    @given(
        array=hnp.arrays(
            dtype=st.sampled_from(["<f8", ">f8"]),
            shape=st.one_of(
                st.just(()),
                st.tuples(st.integers(0, 6)),
                st.tuples(st.integers(0, 5), st.integers(0, 5)),
            ),
            elements=st.one_of(
                st.sampled_from(EDGE_VALUES),
                st.floats(allow_nan=True, allow_infinity=True, width=64),
            ),
        ),
        layout=st.sampled_from(["c", "f", "transposed", "strided"]),
    )
    def test_round_trip_is_bit_equal(self, array, layout):
        if layout == "f":
            array = np.asfortranarray(array)
        elif layout == "transposed":
            array = array.T
        elif layout == "strided" and array.ndim:
            array = np.repeat(array, 2, axis=0)[::2]
        want = np.ascontiguousarray(array, dtype="<f8").tobytes()
        for packed in (True, False):
            body = _dumps({"pad": "x" * array.size,
                           "a": encode_array(array, packed)})
            assert body.startswith(MAGIC) == packed
            back = decode_array(_loads(body)["a"])
            assert back.dtype == np.float64
            if packed:
                assert back.shape == array.shape
                assert back.tobytes() == want
                # a view into the received body, not a copy
                assert _owner(back) is body
                assert not back.flags.writeable and back.flags.aligned
            elif array.size == 0:
                assert back.size == 0  # ``[]`` cannot say 0 x n
            else:
                # text keeps every bit but a nan's sign and payload
                np.testing.assert_array_equal(back, array)
                known = ~np.isnan(array)
                assert np.array_equal(
                    np.signbit(back)[known], np.signbit(array)[known]
                )

    def test_packed_object_shape(self):
        """The bytes, against the documented layout."""
        assert FRAME_MAGIC == MAGIC
        first, second = np.arange(6.0).reshape(2, 3), np.array([7.0, -0.0])
        packed = encode_array(first.astype(">f8").T, True)
        assert isinstance(packed, np.ndarray) and packed.dtype == "<f8"
        assert packed.flags.c_contiguous
        assert encode_array(np.arange(2.0), False) == [0.0, 1.0]
        writer = FrameWriter()
        text = json.dumps({"a": first, "b": [second]}, default=writer)
        assert json.loads(text) == {
            "a": {"f8": 0, "shape": [2, 3]},
            "b": [{"f8": 48, "shape": [2]}],
        }
        body = writer.body(text)
        (length,) = struct.unpack(">I", body[4:8])
        assert body[:4] == MAGIC and length == len(text)
        assert body[8:8 + length] == text.encode("utf-8")
        blobs = (8 + length + 7) // 8 * 8
        assert body[blobs:] == _bits(first) + _bits(second)
        assert body == _frame(text.encode("utf-8"), body[blobs:])

    def test_body_without_arrays_is_plain_json(self):
        text = json.dumps({"a": [1.0, 2.0], "b": {"c": None}})
        assert FrameWriter().body(text) == text.encode("utf-8")
        assert split_frame(text.encode("utf-8")) == (
            text.encode("utf-8"), None
        )
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps({"a": {1, 2}}, default=FrameWriter())

    def test_empty_and_zero_d(self):
        back = _loads(_dumps({
            "empty": encode_array(np.zeros((0, 4)), True),
            "scalar": encode_array(np.float64(-0.0), True),
        }))
        empty, scalar = back["empty"], decode_array(back["scalar"])
        assert decode_array(empty).shape == (0, 4)
        assert scalar.shape == () and _bits(scalar) == _bits(-0.0)

    def test_overlapping_references_read_the_same_bytes(self):
        """References are read-only views, so they may share bytes."""
        blobs = _bits([1.0, 2.0, 3.0])
        back = _loads(_frame({
            "whole": {"f8": 0, "shape": [3]},
            "again": {"f8": 0, "shape": [3]},
            "tail": {"f8": 8, "shape": [2, 1]},
        }, blobs))
        assert back["whole"].tolist() == back["again"].tolist() == [
            1.0, 2.0, 3.0
        ]
        assert back["tail"].tolist() == [[2.0], [3.0]]
        assert np.shares_memory(back["whole"], back["tail"])


def _b64(count):
    return base64.b64encode(bytes(8 * count)).decode("ascii")


#: every way an array reference can be wrong: name -> (the object at
#: the array position, the frame's blob section)
BAD_PACKED = {
    # the base64 object this format replaced is one more bad offset
    "invalid base64": ({"f8": "@@@@", "shape": [1]}, bytes(8)),
    "truncated base64": ({"f8": _b64(1)[:-2], "shape": [1]}, bytes(8)),
    "valid base64": ({"f8": _b64(1), "shape": [1]}, bytes(8)),
    "f8 not a string": ({"f8": [0, 0], "shape": [1]}, bytes(8)),
    "f8 missing": ({"shape": [1]}, bytes(8)),
    "shape missing": ({"f8": 0}, bytes(8)),
    "extra key": ({"f8": 0, "shape": [1], "dtype": "f4"}, bytes(8)),
    "negative offset": ({"f8": -8, "shape": [1]}, bytes(16)),
    "unaligned offset": ({"f8": 4, "shape": [1]}, bytes(16)),
    "boolean offset": ({"f8": False, "shape": [1]}, bytes(8)),
    "float offset": ({"f8": 0.0, "shape": [1]}, bytes(8)),
    "offset past the blobs": ({"f8": 16, "shape": [1]}, bytes(16)),
    "too few bytes": ({"f8": 0, "shape": [2, 2]}, bytes(24)),
    "no blob section": ({"f8": 0, "shape": [1]}, b""),
    "negative dim": ({"f8": 0, "shape": [-1, -1]}, bytes(8)),
    "non-integer dim": ({"f8": 0, "shape": [2.0]}, bytes(16)),
    "boolean dim": ({"f8": 0, "shape": [True]}, bytes(8)),
    "nested shape": ({"f8": 0, "shape": [[2]]}, bytes(16)),
    "shape not a list": ({"f8": 0, "shape": 2}, bytes(16)),
    "overflowing shape": ({"f8": 0, "shape": [2 ** 40, 2 ** 40]}, b""),
    "overflowing empty shape": ({"f8": 0, "shape": [0, 2 ** 70]}, b""),
    "huge claimed shape": ({"f8": 0, "shape": [2 ** 34]}, bytes(8)),
}

#: every way the frame around the references can be wrong
BAD_FRAMES = {
    "bad magic": b"\x89PBX" + _frame({"inputs": None})[4:],
    "magic only": MAGIC,
    "truncated length": MAGIC + b"\x00\x00",
    "header length past the body": MAGIC + struct.pack(">I", 1000) + b"{}",
    "huge header length": MAGIC + struct.pack(">I", 2 ** 32 - 1) + b"{}",
    "header not utf-8": _frame(b'{"a": "\xff\xfe"}'),
    "header not json": _frame(b'{"program": '),
    "empty header": _frame(b""),
}


class TestMalformedPacked:
    @pytest.mark.parametrize("name", sorted(BAD_PACKED))
    def test_decode_rejects_without_allocating(self, name):
        reference, blobs = BAD_PACKED[name]
        body = _frame({"A": reference}, blobs)
        tracemalloc.start()
        try:
            value = _loads(body)["A"]
            with pytest.raises(WireError, match="packed array") as excinfo:
                decode_array(value)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # never sized from the claimed shape
        if "base64" in name:
            assert "base64" in str(excinfo.value)
            assert "removed" in str(excinfo.value)

    @pytest.mark.parametrize("name", sorted(BAD_FRAMES))
    def test_split_rejects_without_allocating(self, name):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):  # WireError or a JSON error
                _loads(BAD_FRAMES[name])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # never sized from the claimed length

    @pytest.mark.parametrize("name", sorted(BAD_PACKED))
    def test_run_answers_400(self, daemon, phash, name):
        reference, blobs = BAD_PACKED[name]
        for inputs in ({"A": reference}, [reference]):
            status, body = _post(daemon, "/run", _frame({
                "program": phash, "transform": "Copy", "inputs": inputs,
            }, blobs))
            assert status == 400, body
            assert json.loads(body)["error"].startswith("bad input arrays")

    @pytest.mark.parametrize("name", sorted(BAD_FRAMES))
    def test_bad_frame_answers_400(self, daemon, name):
        for path in ("/run", "/batch"):
            status, body = _post(daemon, path, BAD_FRAMES[name])
            assert status == 400, body
            assert json.loads(body)["error"].startswith("bad JSON body")

    def test_reference_outside_a_frame_is_400(self, daemon, phash):
        """In plain JSON an object at an array position is never an
        array — the base64 form is gone, not a third form."""
        for reference in (
            {"f8": _b64(1), "shape": [1]}, {"f8": 0, "shape": [1]},
        ):
            status, body = _post(daemon, "/run", {
                "program": phash, "transform": "Copy",
                "inputs": {"A": reference},
            })
            assert status == 400, body
            error = json.loads(body)["error"]
            assert error.startswith("bad input arrays: packed array")
            assert "removed" in error

    @pytest.mark.parametrize("name", sorted(BAD_PACKED))
    def test_batch_line_degrades_to_malformed_record(
        self, daemon, phash, name
    ):
        reference, blobs = BAD_PACKED[name]
        good = {"transform": "Copy", "inputs": {"A": [1.0, 2.0]}}
        bad = {"transform": "Copy", "inputs": {"A": reference}}
        payload = {"program": phash, "lines": [json.dumps(good), bad, good]}
        status, body = _post(daemon, "/batch", _frame(payload, blobs))
        assert status == 200, body
        first, middle, last = json.loads(body)["results"]
        assert (first["id"], last["id"]) == (0, 1)
        assert first["outputs"] == last["outputs"] == {"B": [1.0, 2.0]}
        assert middle["ok"] is False and middle["id"] is None
        assert middle["line"] == 2
        assert "bad input arrays" in middle["error"]
        status, body = _post(
            daemon, "/batch", _frame(dict(payload, strict=True), blobs)
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert error.startswith("request line 2: bad input arrays")

    @pytest.mark.parametrize("form", ["f4", "", None, 1, ["packed"], {}])
    def test_unknown_reply_form_is_400(self, daemon, phash, form):
        line = json.dumps({"transform": "Copy", "inputs": {"A": [1.0]}})
        for path, extra in (
            ("/run", {"transform": "Copy", "inputs": {"A": [1.0]}}),
            ("/batch", {"lines": [line]}),
        ):
            status, body = _post(
                daemon, path, {"program": phash, "arrays": form, **extra}
            )
            assert status == 400, body
            assert json.loads(body)["error"].startswith("bad input arrays")

    def test_plain_rejects_keep_their_old_answers(self, daemon, phash):
        """A nested list numpy cannot make an array of: 400 on /run, and
        on a /batch line the engine's own error record (as ``repro
        batch`` emits), not a malformed-line record."""
        ragged = [[1.0, 2.0], [3.0]]
        status, body = _post(daemon, "/run", {
            "program": phash, "transform": "Scale", "inputs": {"A": ragged},
        })
        assert status == 400
        assert json.loads(body)["error"].startswith("bad input arrays")
        line = json.dumps({"transform": "Scale", "inputs": {"A": ragged}})
        status, body = _post(
            daemon, "/batch", {"program": phash, "lines": [line]}
        )
        (record,) = json.loads(body)["results"]
        assert status == 200 and record["id"] == 0 and not record["ok"]
        assert "line" not in record


# ---------------------------------------------------------------------------
# wire exactness over real HTTP


@pytest.mark.filterwarnings("ignore:overflow encountered")  # 2 * max
class TestWireExactness:
    A = np.array(EDGE_VALUES)

    def _wire_inputs(self, packed):
        return {"A": encode_array(self.A, packed)}

    @pytest.mark.parametrize("reply", ["plain", "packed", None])
    @pytest.mark.parametrize("packed_inputs", [False, True])
    def test_run(self, daemon, phash, direct, packed_inputs, reply):
        want = direct.transform("Copy").run([self.A]).output()
        assert want.tobytes() == self.A.tobytes()
        payload = {
            "program": phash, "transform": "Copy",
            "inputs": self._wire_inputs(packed_inputs),
        }
        if reply is not None:
            payload["arrays"] = reply
        status, body = _post(daemon, "/run", payload)
        assert status == 200, body
        assert body.startswith(MAGIC) == (reply == "packed")
        got = _loads(body)["outputs"]["B"]
        assert isinstance(got, np.ndarray) == (reply == "packed")
        assert decode_array(got).tobytes() == want.tobytes()

    def _batch_lines(self, grid, packed):
        """Two request lines: JSONL text, or (packed) the mappings
        themselves with their arrays out of band."""
        lines = [
            {"transform": "Copy", "inputs": self._wire_inputs(packed)},
            {"transform": "Scale", "inputs": [encode_array(grid, packed)]},
        ]
        return lines if packed else [json.dumps(line) for line in lines]

    @pytest.mark.parametrize("reply", ["plain", "packed", None])
    @pytest.mark.parametrize("packed_inputs", [False, True])
    def test_batch(self, daemon, phash, direct, packed_inputs, reply):
        grid = np.resize(self.A, (3, 4))
        want = [
            direct.transform("Copy").run([self.A]).output(),
            direct.transform("Scale").run([grid]).output(),
        ]
        payload = {
            "program": phash, "lines": self._batch_lines(grid, packed_inputs),
        }
        if reply is not None:
            payload["arrays"] = reply
        status, body = _post(daemon, "/batch", payload)
        assert status == 200, body
        assert body.startswith(MAGIC) == (reply == "packed")
        records = _loads(body)["results"]
        assert [r["ok"] for r in records] == [True, True]
        for record, expected in zip(records, want):
            got = record["outputs"]["B"]
            assert isinstance(got, np.ndarray) == (reply == "packed")
            assert decode_array(got).tobytes() == expected.tobytes()

    def test_plain_reply_bytes_do_not_depend_on_input_form(
        self, daemon, phash, direct
    ):
        """Without the ``arrays`` field the body is the nested-list JSON
        it always was — ``json.dumps(sort_keys=True)`` of the direct
        run's ``tolist()`` — whichever form the inputs came in."""
        want = direct.transform("Copy").run([self.A]).output()
        bodies = set()
        for packed in (False, True):
            status, body = _post(daemon, "/run", {
                "program": phash, "transform": "Copy",
                "inputs": self._wire_inputs(packed),
            })
            assert status == 200
            bodies.add(body)
        (body,) = bodies
        assert json.loads(body)["outputs"]["B"][:3] == [-0.0, 0.0, 5e-324]
        assert b'"f8"' not in body
        assert body == json.dumps({
            "meta": json.loads(body)["meta"],
            "outputs": {"B": want.tolist()},
        }, sort_keys=True).encode("utf-8")

        grid = np.resize(self.A, (3, 4))
        scaled = direct.transform("Scale").run([grid]).output()
        bodies = set()
        for packed in (False, True):
            status, body = _post(daemon, "/batch", {
                "program": phash, "lines": self._batch_lines(grid, packed),
            })
            assert status == 200
            bodies.add(body)
        (body,) = bodies
        stacked = [r["stacked"] for r in json.loads(body)["results"]]
        assert body == json.dumps({
            "failed": 0,
            "machine": "xeon8",
            "results": [
                {"id": 0, "ok": True, "stacked": stacked[0],
                 "outputs": {"B": want.tolist()}},
                {"id": 1, "ok": True, "stacked": stacked[1],
                 "outputs": {"B": scaled.tolist()}},
            ],
        }, sort_keys=True).encode("utf-8")

    def test_client_returns_nested_lists(self, daemon, phash, direct):
        """ServeClient packs and unpacks: given lists or arrays in any
        layout, it hands back the nested lists it always did."""
        client = ServeClient(port=daemon.port)
        base = np.resize(self.A, (4, 6))
        want = direct.transform("Scale").run([base]).output()
        layouts = [
            base.tolist(), base, np.asfortranarray(base), base.T.copy().T,
            np.repeat(base, 2, axis=1)[:, ::2], base.astype(">f8"),
        ]
        for inputs in layouts:
            response = client.run(phash, "Scale", {"A": inputs})
            got = response["outputs"]["B"]
            assert isinstance(got, list) and isinstance(got[0], list)
            assert _bits(got) == want.tobytes()
        line = json.dumps({"transform": "Scale", "inputs": [base.tolist()]})
        (record,) = client.batch(phash, [line])["results"]
        assert _bits(record["outputs"]["B"]) == want.tobytes()
        counters = daemon.app.sink.counters
        assert counters["serve.wire.packed"] == len(layouts) + 1
        assert counters.get("serve.wire.plain", 0) == 0
        # a value numpy rejects still gets the daemon's structured 400
        with pytest.raises(ServeClientError) as excinfo:
            client.run(phash, "Scale", {"A": [[1.0], [2.0, 3.0]]})
        assert excinfo.value.status == 400

    def test_batch_lines_as_text_lists_and_arrays_agree(
        self, daemon, phash, direct
    ):
        """The same 12 requests as JSONL text, as mappings holding
        lists and as mappings holding ndarrays: identical records, and
        one broken reference degrades alone."""
        rng = np.random.default_rng(11)
        requests = []
        for index in range(12):
            if index % 4 == 3:
                requests.append(("Copy", rng.uniform(-1.0, 1.0, 5)))
            else:
                side = (3, 4)[index % 2]
                requests.append(("Scale", rng.uniform(-1.0, 1.0, (side, 6))))
        client = ServeClient(port=daemon.port)
        forms = {
            "text": [
                json.dumps({"transform": name, "inputs": {"A": a.tolist()}})
                for name, a in requests
            ],
            "lists": [
                {"transform": name, "inputs": {"A": a.tolist()}}
                for name, a in requests
            ],
            "arrays": [
                {"transform": name, "inputs": [np.asfortranarray(a)]}
                for name, a in requests
            ],
        }
        replies = {
            form: client.batch(phash, lines) for form, lines in forms.items()
        }
        assert replies["text"] == replies["lists"] == replies["arrays"]
        records = replies["text"]["results"]
        assert [r["id"] for r in records] == list(range(12))
        assert any(r["stacked"] for r in records)
        for record, (name, a) in zip(records, requests):
            want = direct.transform(name).run([a]).output()
            assert _bits(record["outputs"]["B"]) == want.tobytes()
        # mapping lines hold arrays, not text: nothing was printed
        assert daemon.app.sink.counters["serve.batches"] == 3

        # over the raw wire, line 2 of 3 points past the blob section
        a = requests[0][1]
        status, body = _post(daemon, "/batch", _frame({
            "program": phash,
            "lines": [
                {"transform": "Scale",
                 "inputs": {"A": {"f8": 0, "shape": list(a.shape)}}},
                {"transform": "Scale",
                 "inputs": {"A": {"f8": 8, "shape": list(a.shape)}}},
                forms["text"][0],
            ],
        }, _bits(a)))
        assert status == 200, body
        first, broken, last = json.loads(body)["results"]
        assert first["outputs"] == last["outputs"] == records[0]["outputs"]
        assert (first["id"], last["id"]) == (0, 1)
        assert broken["line"] == 2 and not broken["ok"]
        assert "bad input arrays: packed array" in broken["error"]


# ---------------------------------------------------------------------------
# connections


class TestConnections:
    def test_sequential_calls_share_one_connection(self, daemon, phash):
        client = ServeClient(port=daemon.port)
        for index in range(200):
            response = client.run(phash, "Copy", {"A": [float(index)]})
            assert response["outputs"]["B"] == [float(index)]
        stats = client.stats()
        assert stats["counters"]["serve.connections"] == 1
        assert stats["counters"]["serve.wire.packed"] == 200

    def test_each_thread_gets_its_own_connection(self, daemon, phash):
        client = ServeClient(port=daemon.port)
        barrier = threading.Barrier(3)

        def worker():
            barrier.wait()
            for _ in range(5):
                client.run(phash, "Copy", {"A": [1.0]})

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert daemon.app.sink.counters["serve.connections"] == 3

    def test_client_survives_daemon_restart(self, tmp_path, direct):
        store = str(tmp_path / "store")
        first = ServeDaemon(
            ServeApp(store_dir=store), port=0
        ).start_background()
        port = first.port
        sink = ThreadSafeSink()
        client = ServeClient(
            port=port, retry=RetryPolicy(retries=3, backoff_s=0.01), sink=sink
        )
        phash = client.compile(PROGRAM)["program"]
        inputs = {"A": [[1.5, -0.0], [5e-324, 3.0]]}
        before = client.run(phash, "Scale", inputs)
        first.stop()
        second = ServeDaemon(
            ServeApp(store_dir=store), port=port
        ).start_background()
        try:
            after = client.run(phash, "Scale", inputs)
            assert json.dumps(after, sort_keys=True) == json.dumps(
                before, sort_keys=True
            )
            want = direct.transform("Scale").run([inputs["A"]]).output()
            assert _bits(after["outputs"]["B"]) == want.tobytes()
            # the dead socket cost one re-send, answered by the successor
            assert sink.counters["serve.retry.attempts"] == 1
            assert sink.counters["serve.retry.recoveries"] == 1
            assert second.app.sink.counters["serve.runs"] == 1
        finally:
            second.stop()

    def test_client_reconnects_after_injected_conn_drop(self):
        app = ServeApp(injector=FaultInjector.parse("conn-drop:1x1"))
        daemon = ServeDaemon(app, port=0).start_background()
        try:
            sink = ThreadSafeSink()
            client = ServeClient(
                port=daemon.port,
                retry=RetryPolicy(retries=2, backoff_s=0.01),
                sink=sink,
            )
            phash = client.compile(PROGRAM)["program"]
            clean = client.run(phash, "Scale", {"A": [[2.0, -0.0]]})
            assert app.sink.counters["serve.connections"] == 1
            dropped = client.run(
                phash, "Scale", {"A": [[2.0, -0.0]]}, rid="r1"
            )
            assert json.dumps(dropped, sort_keys=True) == json.dumps(
                clean, sort_keys=True
            )
            assert sink.counters["serve.retry.recoveries"] == 1
            assert app.sink.counters["serve.conn_dropped"] == 1
            assert app.sink.counters["serve.connections"] == 2
            # and the replacement connection is kept in turn
            client.run(phash, "Scale", {"A": [[2.0]]})
            assert app.sink.counters["serve.connections"] == 2
        finally:
            daemon.stop()

    def test_conn_drop_inside_a_frame_is_retried(self, direct):
        """The injected drop cuts a framed reply in its blob section;
        the retry still lands the right answer, for /run and /batch."""
        app = ServeApp(injector=FaultInjector.parse("conn-drop:1x1"))
        daemon = ServeDaemon(app, port=0).start_background()
        try:
            sink = ThreadSafeSink()
            client = ServeClient(
                port=daemon.port,
                retry=RetryPolicy(retries=2, backoff_s=0.01),
                sink=sink,
            )
            phash = client.compile(PROGRAM)["program"]
            a = np.random.default_rng(3).uniform(-4.0, 4.0, (34, 34))
            want = direct.transform("Blur").run([a]).output()
            response = client.run(phash, "Blur", {"A": a}, rid="r1")
            assert _bits(response["outputs"]["B"]) == want.tobytes()
            line = {"transform": "Blur", "inputs": {"A": a}}
            (record,) = client.batch(phash, [line], rid="b1")["results"]
            assert _bits(record["outputs"]["B"]) == want.tobytes()
            assert sink.counters["serve.retry.attempts"] == 2
            assert sink.counters["serve.retry.recoveries"] == 2
            assert app.sink.counters["serve.conn_dropped"] == 2
            assert app.sink.counters["serve.wire.packed"] == 4
        finally:
            daemon.stop()

    def test_broken_reply_frame_is_a_dropped_connection(
        self, daemon, phash, monkeypatch
    ):
        """A 2xx frame whose reference does not check out is transport
        damage like truncated JSON: re-sent, never handed to the caller."""
        damaged = []

        class _DamagedOnce(FrameWriter):
            def __call__(self, value):
                reference = super().__call__(value)
                if not damaged:
                    damaged.append(reference)
                    reference["f8"] += 8 * value.size
                return reference

        monkeypatch.setattr("repro.serve.daemon.FrameWriter", _DamagedOnce)
        sink = ThreadSafeSink()
        client = ServeClient(
            port=daemon.port,
            retry=RetryPolicy(retries=1, backoff_s=0.01),
            sink=sink,
        )
        response = client.run(phash, "Copy", {"A": [1.0, 2.0, 3.0]})
        assert response["outputs"]["B"] == [1.0, 2.0, 3.0]
        assert len(damaged) == 1
        assert sink.counters["serve.retry.attempts"] == 1
        assert sink.counters["serve.retry.recoveries"] == 1

    def test_idle_socket_does_not_delay_stop(self):
        daemon = ServeDaemon(ServeApp(), port=0).start_background()
        client = ServeClient(
            port=daemon.port, retry=RetryPolicy(retries=1, backoff_s=0.01)
        )
        assert client.health()["ok"] is True  # leaves a kept-alive socket
        started = time.monotonic()
        daemon.stop()
        assert time.monotonic() - started < 2.0
        # nobody is left behind that socket to answer for a stopped daemon
        with pytest.raises(OSError):
            client.health()


# ---------------------------------------------------------------------------
# the HTTP/1.1 under it


class _SendCalls:
    """Every Python-level send call on any socket, filed under the
    sending side: ``"daemon"`` for a socket bound to the daemon's port,
    else ``"client"``."""

    def __init__(self, monkeypatch, port):
        self.port = port
        self.calls = {"client": [], "daemon": []}
        for name in ("send", "sendall", "sendmsg"):
            monkeypatch.setattr(
                socket.socket, name, self._counting(name), raising=True
            )

    def _counting(self, name):
        original = getattr(socket.socket, name)

        def counted(sock, *args):
            local = sock.getsockname()[1]
            side = "daemon" if local == self.port else "client"
            self.calls[side].append(name)
            return original(sock, *args)

        return counted

    def reset(self):
        for calls in self.calls.values():
            del calls[:]


class _ShortSends:
    """A socket that takes at most ``quota`` bytes per call."""

    def __init__(self, quota):
        self.quota = quota
        self.wire = b""
        self.calls = 0

    def sendmsg(self, buffers):
        self.calls += 1
        taken = b"".join(bytes(b) for b in buffers)[: self.quota]
        self.wire += taken
        return len(taken)

    def sendall(self, data):
        self.calls += 1
        self.wire += bytes(data)


class TestTransport:
    def test_header_names_in_any_case(self, daemon, phash):
        body = json.dumps({
            "program": phash, "transform": "Copy", "inputs": {"A": [3.0]},
        }).encode("utf-8")
        ((status, headers, reply),) = converse(
            daemon,
            b"POST /run HTTP/1.1\r\nhOsT: t\r\ncontent-LENGTH:%d\r\n"
            b"CONNECTION:   Close  \r\n\r\n%s" % (len(body), body),
        )
        assert status == 200 and headers["connection"] == "close"
        assert json.loads(reply)["outputs"] == {"B": [3.0]}

    def test_http_1_0_client_gets_connection_close(self, daemon):
        replies = converse(
            daemon,
            b"GET /health HTTP/1.0\r\n\r\nGET /health HTTP/1.0\r\n\r\n",
        )
        ((status, headers, reply),) = replies  # the second was not read
        assert status == 200 and headers["connection"] == "close"
        assert headers["server"] == "repro-serve"
        assert json.loads(reply)["ok"] is True

    def test_expect_100_continue(self, daemon, phash):
        body = json.dumps({
            "program": phash, "transform": "Copy", "inputs": {"A": [4.0]},
        }).encode("utf-8")
        interim, final = converse(
            daemon,
            b"POST /run HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body),
            body,  # held back until the 100 has arrived
        )
        assert interim == (100, {}, b"")
        assert final[0] == 200
        assert json.loads(final[2])["outputs"] == {"B": [4.0]}
        # a length the daemon refuses gets the refusal, not a go-ahead
        ((status, headers, _),) = converse(
            daemon,
            b"POST /run HTTP/1.1\r\nExpect: 100-continue\r\n"
            b"Content-Length: 99999999999999\r\n\r\n",
        )
        assert status == 413 and headers["connection"] == "close"

    def test_pipelined_requests_get_their_replies_in_order(self, daemon):
        first, second, third = converse(
            daemon,
            b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /nowhere HTTP/1.1\r\nHost: t\r\n\r\n"
            b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n",
        )
        assert (first[0], second[0], third[0]) == (200, 404, 200)
        assert "connection" not in first[1]  # kept alive
        assert json.loads(first[2]) == json.loads(third[2])
        assert daemon.app.sink.counters["serve.connections"] == 1

    def test_stdlib_clients_are_still_served(self, daemon, phash):
        """``urllib.request`` here, ``http.client`` in :func:`_post`."""
        request = urllib.request.Request(
            f"http://127.0.0.1:{daemon.port}/run",
            data=json.dumps({
                "program": phash, "transform": "Copy", "inputs": [[5.0]],
            }).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=30) as reply:
            assert reply.status == 200 and reply.reason == "OK"
            assert reply.headers["Content-Type"] == "application/json"
            assert json.load(reply)["outputs"] == {"B": [5.0]}
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(
                f"http://127.0.0.1:{daemon.port}/nowhere", timeout=30
            )
        assert excinfo.value.code == 404
        assert json.load(excinfo.value) == {"error": "no route '/nowhere'"}

    @pytest.mark.parametrize("quota", [1, 7, 16, 17, 40, 10 ** 6])
    def test_send_message_finishes_a_partial_send(self, quota):
        """Cut inside the head, at its end, inside the body, nowhere."""
        head, body = b"H" * 16, bytes(range(64))
        sock = _ShortSends(quota)
        send_message(sock, head, body)
        assert sock.wire == head + body
        assert sock.calls == (1 if quota >= 80 else 2 if quota >= 16 else 3)

    def test_bodies_larger_than_the_socket_buffer(
        self, daemon, phash, direct, monkeypatch
    ):
        """8 MB each way: the request leaves the client's socket (it
        has a timeout, so a full buffer returns a partial ``sendmsg``)
        in more than one call, and both frames arrive whole."""
        sends = _SendCalls(monkeypatch, daemon.port)
        a = np.random.default_rng(5).uniform(-4.0, 4.0, (1024, 1024))
        want = direct.transform("Scale").run([a]).output()
        client = ServeClient(port=daemon.port)
        client.health()
        sends.reset()
        response = client.request("POST", "/run", {
            "program": phash, "transform": "Scale", "inputs": {"A": a},
            "arrays": "packed",
        })
        assert response["outputs"]["B"].tobytes() == want.tobytes()
        assert want.nbytes == 8 * 2 ** 20
        assert sends.calls["client"][0] == "sendmsg"
        assert set(sends.calls["client"][1:]) == {"sendall"}
        assert sends.calls["daemon"][0] == "sendmsg"

    @pytest.mark.parametrize("side", [34, 130])
    def test_one_send_call_per_message(
        self, daemon, phash, direct, monkeypatch, side
    ):
        """A count, not a timer: a warm ``/run`` is one send call on
        the client and one on the daemon — head and body together."""
        sends = _SendCalls(monkeypatch, daemon.port)
        a = np.random.default_rng(side).uniform(-4.0, 4.0, (side, side))
        want = direct.transform("Blur").run([a]).output()
        client = ServeClient(port=daemon.port)
        client.run(phash, "Blur", {"A": a})  # connect, warm
        sends.reset()
        response = client.run(phash, "Blur", {"A": a})
        assert _bits(response["outputs"]["B"]) == want.tobytes()
        assert sends.calls == {"client": ["sendmsg"], "daemon": ["sendmsg"]}


# ---------------------------------------------------------------------------
# the gain, pinned without a timer


class _CountingJson:
    """``json`` for one module, recording the sizes that cross it."""

    def __init__(self):
        self.sent, self.received = [], []

    def dumps(self, value, **kwargs):
        text = json.dumps(value, **kwargs)
        self.sent.append(len(text))
        return text

    def loads(self, raw, **kwargs):
        self.received.append(len(raw))
        return json.loads(raw, **kwargs)


def test_framed_bodies_are_8_bytes_per_float(
    daemon, phash, direct, monkeypatch
):
    """A framed 34x34 ``/run``: 8 bytes per float plus a small header
    each way, and only the header goes through the client's ``json``."""
    counting = _CountingJson()
    bodies = {}

    class _SizedWriter(FrameWriter):
        def body(self, text):
            bodies["up"] = super().body(text)
            return bodies["up"]

    def sized_split(raw):
        bodies["down"] = raw
        return split_frame(raw)

    monkeypatch.setattr("repro.serve.client.json", counting)
    monkeypatch.setattr("repro.serve.client.FrameWriter", _SizedWriter)
    monkeypatch.setattr("repro.serve.client.split_frame", sized_split)
    side = 34
    a = np.random.default_rng(7).uniform(-4.0, 4.0, (side, side))
    client = ServeClient(port=daemon.port)
    response = client.run(phash, "Blur", {"A": a.tolist()})
    want = direct.transform("Blur").run([a]).output()
    assert _bits(response["outputs"]["B"]) == want.tobytes()
    assert (a.size, want.size) == (1156, 1024)
    assert 8 * a.size < len(bodies["up"]) <= 8 * a.size + 512
    assert 8 * want.size < len(bodies["down"]) <= 8 * want.size + 512
    assert bodies["up"].endswith(a.tobytes())
    assert bodies["down"].endswith(want.tobytes())
    (request_json,), (response_json,) = counting.sent, counting.received
    assert 0 < request_json <= 512 and 0 < response_json <= 512
    # the text form: about 20 bytes per float
    assert len(json.dumps(a.tolist())) > 18 * a.size
