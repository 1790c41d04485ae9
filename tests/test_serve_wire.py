"""The serve daemon's wire: packed float64 arrays and kept-alive
connections.

Covers the one codec pair (:func:`encode_array` / :func:`decode_array`)
— bit-exactness of IEEE edge values through both forms over real HTTP
against a direct :meth:`CompiledTransform.run`, a round-trip property
over shapes and memory layouts, structured 400s for every malformed
packed object — plus the connection policy (one socket per client
thread, reconnect after a daemon restart or an injected drop, no stop
delay from idle sockets) and a timer-free pin of the packed body size.
"""

import base64
import http.client
import json
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import compile_program
from repro.faults import FaultInjector
from repro.observe import ThreadSafeSink
from repro.serve import ServeApp, ServeClient, ServeClientError, ServeDaemon
from repro.serve.records import WireError, decode_array, encode_array
from repro.serve.resilience import RetryPolicy

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


def _bits(value):
    return np.asarray(value, dtype="<f8").tobytes()


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
    the request is exactly the JSON given."""
    connection = http.client.HTTPConnection(
        "127.0.0.1", daemon.port, timeout=30
    )
    try:
        connection.request(
            "POST", path, body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
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
            wire = json.loads(json.dumps(encode_array(array, packed)))
            back = decode_array(wire)
            assert back.dtype == np.float64
            if packed:
                assert back.shape == array.shape
                assert back.tobytes() == want
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
        wire = encode_array(np.arange(6.0).reshape(2, 3), True)
        assert sorted(wire) == ["f8", "shape"]
        assert wire["shape"] == [2, 3]
        assert base64.b64decode(wire["f8"]) == _bits(np.arange(6.0))
        assert encode_array(np.arange(2.0), False) == [0.0, 1.0]

    def test_empty_and_zero_d(self):
        empty = decode_array(encode_array(np.zeros((0, 4)), True))
        assert empty.shape == (0, 4)
        scalar = decode_array(encode_array(np.float64(-0.0), True))
        assert scalar.shape == () and _bits(scalar) == _bits(-0.0)


def _f8(count):
    return base64.b64encode(bytes(8 * count)).decode("ascii")


#: every way a packed object can be wrong
BAD_PACKED = {
    "invalid base64": {"f8": "@@@@", "shape": [1]},
    "truncated base64": {"f8": _f8(1)[:-2], "shape": [1]},
    "f8 not a string": {"f8": [0, 0], "shape": [1]},
    "f8 missing": {"shape": [1]},
    "shape missing": {"f8": _f8(1)},
    "too few bytes": {"f8": _f8(3), "shape": [2, 2]},
    "too many bytes": {"f8": _f8(5), "shape": [2, 2]},
    "negative dim": {"f8": _f8(1), "shape": [-1, -1]},
    "non-integer dim": {"f8": _f8(2), "shape": [2.0]},
    "boolean dim": {"f8": _f8(1), "shape": [True]},
    "nested shape": {"f8": _f8(2), "shape": [[2]]},
    "shape not a list": {"f8": _f8(2), "shape": 2},
    "overflowing shape": {"f8": _f8(0), "shape": [2 ** 40, 2 ** 40]},
    "overflowing empty shape": {"f8": "", "shape": [0, 2 ** 70]},
    "huge claimed shape": {"f8": _f8(1), "shape": [2 ** 34]},
}


class TestMalformedPacked:
    @pytest.mark.parametrize("name", sorted(BAD_PACKED))
    def test_decode_rejects_without_allocating(self, name):
        tracemalloc.start()
        try:
            with pytest.raises(WireError, match="packed array"):
                decode_array(BAD_PACKED[name])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # never sized from the claimed shape

    @pytest.mark.parametrize("name", sorted(BAD_PACKED))
    def test_run_answers_400(self, daemon, phash, name):
        for inputs in ({"A": BAD_PACKED[name]}, [BAD_PACKED[name]]):
            status, body = _post(daemon, "/run", {
                "program": phash, "transform": "Copy", "inputs": inputs,
            })
            assert status == 400, body
            assert json.loads(body)["error"].startswith("bad input arrays")

    @pytest.mark.parametrize("name", sorted(BAD_PACKED))
    def test_batch_line_degrades_to_malformed_record(
        self, daemon, phash, name
    ):
        good = {"transform": "Copy", "inputs": {"A": [1.0, 2.0]}}
        bad = {"transform": "Copy", "inputs": {"A": BAD_PACKED[name]}}
        payload = {
            "program": phash,
            "lines": [json.dumps(good), json.dumps(bad), json.dumps(good)],
        }
        status, body = _post(daemon, "/batch", payload)
        assert status == 200, body
        first, middle, last = json.loads(body)["results"]
        assert (first["id"], last["id"]) == (0, 1)
        assert first["outputs"] == last["outputs"] == {"B": [1.0, 2.0]}
        assert middle["ok"] is False and middle["id"] is None
        assert middle["line"] == 2
        assert "bad input arrays" in middle["error"]
        status, body = _post(daemon, "/batch", dict(payload, strict=True))
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
        got = json.loads(body)["outputs"]["B"]
        assert isinstance(got, dict) == (reply == "packed")
        assert decode_array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("reply", ["plain", "packed", None])
    @pytest.mark.parametrize("packed_inputs", [False, True])
    def test_batch(self, daemon, phash, direct, packed_inputs, reply):
        grid = np.resize(self.A, (3, 4))
        want = [
            direct.transform("Copy").run([self.A]).output(),
            direct.transform("Scale").run([grid]).output(),
        ]
        lines = [
            json.dumps({"transform": "Copy",
                        "inputs": self._wire_inputs(packed_inputs)}),
            json.dumps({"transform": "Scale",
                        "inputs": [encode_array(grid, packed_inputs)]}),
        ]
        payload = {"program": phash, "lines": lines}
        if reply is not None:
            payload["arrays"] = reply
        status, body = _post(daemon, "/batch", payload)
        assert status == 200, body
        records = json.loads(body)["results"]
        assert [r["ok"] for r in records] == [True, True]
        for record, expected in zip(records, want):
            got = record["outputs"]["B"]
            assert isinstance(got, dict) == (reply == "packed")
            assert decode_array(got).tobytes() == expected.tobytes()

    def test_plain_reply_bytes_do_not_depend_on_input_form(
        self, daemon, phash
    ):
        """Without the ``arrays`` field the body is the nested-list JSON
        it always was, whichever form the inputs came in."""
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


# ---------------------------------------------------------------------------
# connections


class TestConnections:
    def test_sequential_calls_share_one_connection(self, daemon, phash):
        client = ServeClient(port=daemon.port)
        for index in range(50):
            response = client.run(phash, "Copy", {"A": [float(index)]})
            assert response["outputs"]["B"] == [float(index)]
        stats = client.stats()
        assert stats["counters"]["serve.connections"] == 1
        assert stats["counters"]["serve.wire.packed"] == 50

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


def test_packed_bodies_stay_under_11_bytes_per_float(
    daemon, phash, direct, monkeypatch
):
    counting = _CountingJson()
    monkeypatch.setattr("repro.serve.client.json", counting)
    side = 130
    a = np.random.default_rng(7).uniform(-4.0, 4.0, (side, side))
    client = ServeClient(port=daemon.port)
    response = client.run(phash, "Blur", {"A": a.tolist()})
    want = direct.transform("Blur").run([a]).output()
    assert _bits(response["outputs"]["B"]) == want.tobytes()
    (request_bytes,), (response_bytes,) = counting.sent, counting.received
    assert request_bytes <= 11 * a.size + 512
    assert response_bytes <= 11 * want.size + 512
    # the text form this replaced: about 20 bytes per float
    assert len(json.dumps(a.tolist())) > 18 * a.size
