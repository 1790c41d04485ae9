"""Tests for the compile-and-serve daemon (``repro serve``).

Covers the serve registry (versioning, bucket fallback, cold/warm
accounting), the transport-independent :class:`ServeApp` endpoints,
concurrency (many threads against one registry entry, version bumps
racing in-flight runs), restart recovery from the artifact store, the
HTTP round trip, byte-parity between served batches and the direct
``repro batch`` CLI, and a 10k-request soak that pins down bounded
memory in the long-lived per-program engine.
"""

import json
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.compiler import ChoiceConfig
from repro.compiler.codegen import ExecutionError, normalize_sizes
from repro.serve import (
    ANY_BUCKET,
    ArtifactStore,
    ServeApp,
    ServeClient,
    ServeClientError,
    ServeDaemon,
    ServeError,
    ServeRegistry,
    bucket_for,
    program_digest,
    size_bucket,
)

SCALE = """
transform Scale
from A[n, m]
to B[n, m]
{
  to (B.cell(x, y) b) from (A.cell(x, y) a) { b = a * 2.0 + 1.0; }
}
"""


def _config(leaf=0, salt=None):
    config = ChoiceConfig()
    config.set_tunable("Scale.__leaf_path__", leaf)
    if salt is not None:
        config.set_tunable("Scale.salt", salt)
    return config


@pytest.fixture()
def app():
    application = ServeApp()
    yield application
    application.close()


@pytest.fixture()
def phash(app):
    return app.compile({"source": SCALE})["program"]


# ---------------------------------------------------------------------------
# registry


class TestBuckets:
    def test_power_of_two_ceilings(self):
        assert size_bucket(0) == "b1"
        assert size_bucket(1) == "b1"
        assert size_bucket(2) == "b2"
        assert size_bucket(3) == "b4"
        assert size_bucket(16) == "b16"
        assert size_bucket(17) == "b32"

    def test_bucket_for_takes_largest_extent(self):
        assert bucket_for([(2, 3), (5,)]) == "b8"
        assert bucket_for([(2, 2)], sizes={"n": 12}) == "b16"
        assert bucket_for([]) == "b1"


class TestRegistry:
    def test_program_digest_is_content_addressed(self):
        assert program_digest(SCALE) == program_digest(SCALE)
        assert program_digest(SCALE) != program_digest(SCALE + " ")

    def test_compile_once(self):
        registry = ServeRegistry()
        entry1, cached1 = registry.register_program(SCALE)
        entry2, cached2 = registry.register_program(SCALE)
        assert entry1 is entry2
        assert (cached1, cached2) == (False, True)

    def test_publish_bumps_version_and_precomputes_digest(self):
        registry = ServeRegistry()
        first = registry.publish("p", "xeon8", "b4", _config(0))
        second = registry.publish("p", "xeon8", "b4", _config(1))
        assert (first.version, second.version) == (1, 2)
        assert first.digest != second.digest
        assert registry.peek("p", "xeon8", "b4").version == 2

    def test_lookup_falls_back_to_any_bucket(self):
        registry = ServeRegistry()
        registry.publish("p", "xeon8", ANY_BUCKET, _config(0))
        registry.publish("p", "xeon8", "b4", _config(1))
        assert registry.lookup("p", "xeon8", "b4").version == 1
        assert (
            registry.lookup("p", "xeon8", "b64").config.tunables[
                "Scale.__leaf_path__"
            ]
            == 0
        )
        assert registry.lookup("p", "other", "b4") is None

    def test_cold_start_vs_warm_hit_counters(self, app, phash):
        # One compile, then a cached registration (warm program hit).
        app.compile({"source": SCALE})
        counters = app.sink.counters
        assert counters["serve.compiles"] == 1
        assert counters["serve.program_hits"] == 1

        # Config lookups: miss while unpublished, hit after publish.
        payload = {
            "program": phash,
            "transform": "Scale",
            "inputs": {"A": [[1.0, 2.0], [3.0, 4.0]]},
        }
        assert app.run(payload)["meta"]["registry_hit"] is False
        assert counters["serve.config_misses"] == 1
        app.publish_config(phash, "xeon8", ANY_BUCKET, _config(0))
        assert app.run(payload)["meta"]["registry_hit"] is True
        assert counters["serve.config_hits"] == 1
        assert counters["serve.version_bumps"] == 1


# ---------------------------------------------------------------------------
# app endpoints


class TestServeApp:
    def test_run_executes_and_reports_bucket(self, app, phash):
        response = app.run(
            {
                "program": phash,
                "transform": "Scale",
                "inputs": {"A": [[1.0, 2.0], [3.0, 4.0]]},
            }
        )
        np.testing.assert_allclose(
            response["outputs"]["B"], [[3.0, 5.0], [7.0, 9.0]]
        )
        meta = response["meta"]
        assert meta["bucket"] == "b2"
        assert meta["version"] is None and meta["registry_hit"] is False

    def test_run_reports_registry_version(self, app, phash):
        app.publish_config(phash, "xeon8", "b2", _config(0))
        meta = app.run(
            {
                "program": phash,
                "transform": "Scale",
                "inputs": {"A": [[1.0, 2.0], [3.0, 4.0]]},
            }
        )["meta"]
        assert meta["version"] == 1 and meta["registry_hit"] is True

    def test_unknown_program_is_404(self, app):
        with pytest.raises(ServeError) as excinfo:
            app.run({"program": "beef", "transform": "Scale", "inputs": []})
        assert excinfo.value.status == 404

    def test_batch_strict_reports_line_number(self, app, phash):
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[1.0]]}}),
            "not json at all",
        ]
        with pytest.raises(ServeError) as excinfo:
            app.batch({"program": phash, "lines": lines, "strict": True})
        assert excinfo.value.status == 400
        assert "request line 2" in excinfo.value.message

    def test_batch_nonstrict_interleaves_malformed_records(self, app, phash):
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[1.0]]}}),
            "not json at all",
            json.dumps({"transform": "Scale", "inputs": {"A": [[2.0]]}}),
        ]
        response = app.batch({"program": phash, "lines": lines})
        records = response["results"]
        assert [record["ok"] for record in records] == [True, False, True]
        assert records[1]["line"] == 2
        # Request ids are renumbered from 0 per call, exactly like a
        # fresh CLI invocation, even though the engine is long-lived.
        assert [records[0]["id"], records[2]["id"]] == [0, 1]
        second = app.batch({"program": phash, "lines": lines})
        assert [r["id"] for r in second["results"] if r["ok"]] == [0, 1]

    @pytest.mark.parametrize(
        "sizes", [{"k": "abc"}, {"k": 2.7}, {"k": -1}, [3], "k=3"]
    )
    def test_run_malformed_sizes_is_400(self, app, phash, sizes):
        with pytest.raises(ServeError) as excinfo:
            app.run(
                {
                    "program": phash,
                    "transform": "Scale",
                    "inputs": {"A": [[1.0]]},
                    "sizes": sizes,
                }
            )
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("bad sizes: ")

    def test_run_integral_sizes_are_normalised(self, app, phash):
        meta = app.run(
            {
                "program": phash,
                "transform": "Scale",
                "inputs": {"A": [[1.0]]},
                "sizes": {"k": 12.0},
            }
        )["meta"]
        assert meta["sizes"]["k"] == 12 and meta["bucket"] == "b16"

    def test_batch_malformed_sizes_is_that_lines_record(self, app, phash):
        good = {"transform": "Scale", "inputs": {"A": [[1.0]]}}
        lines = [json.dumps(good) for _ in range(4)]
        lines[1] = json.dumps(dict(good, sizes={"k": "abc"}))
        lines[2] = json.dumps(dict(good, sizes=[3]))
        response = app.batch({"program": phash, "lines": lines})
        records = response["results"]
        assert [record["ok"] for record in records] == [True, False, False, True]
        assert [records[1]["line"], records[2]["line"]] == [2, 3]
        assert "size variable 'k'" in records[1]["error"]
        assert "sizes must map" in records[2]["error"]
        assert response["failed"] == 2
        with pytest.raises(ServeError) as excinfo:
            app.batch({"program": phash, "lines": lines, "strict": True})
        assert excinfo.value.status == 400
        assert "request line 2" in excinfo.value.message

    def test_a_bool_is_not_a_size(self, app, phash):
        """``True`` is an ``int`` to Python but not a size: the library,
        ``/run`` and a ``/batch`` line refuse it like ``np.bool_``."""
        refusal = "size variable 'n' must be a non-negative integer, got True"
        with pytest.raises(ExecutionError) as excinfo:
            normalize_sizes({"n": True})
        assert str(excinfo.value) == refusal
        good = {"transform": "Scale", "inputs": {"A": [[1.0]]}}
        with pytest.raises(ServeError) as excinfo:
            app.run(dict(good, program=phash, sizes={"n": True}))
        assert excinfo.value.status == 400
        assert excinfo.value.message == f"bad sizes: {refusal}"
        lines = [json.dumps(good), json.dumps(dict(good, sizes={"n": True}))]
        records = app.batch({"program": phash, "lines": lines})["results"]
        assert [record["ok"] for record in records] == [True, False]
        assert refusal in records[1]["error"]

    def test_misspelt_reserved_tunable_is_400_or_that_lines_record(
        self, app, phash
    ):
        """``ChoiceConfig.from_dict`` used to accept ``__Leaf_Path__``
        and the run silently took the default leaf."""
        good = {"transform": "Scale", "inputs": {"A": [[1.0]]}}
        bad = {"tunables": {"Scale.__Leaf_Path__": 2}}
        with pytest.raises(ServeError) as excinfo:
            app.run(dict(good, program=phash, config=bad))
        assert excinfo.value.status == 400
        assert excinfo.value.message == (
            "bad config: unknown reserved tunable 'Scale.__Leaf_Path__' "
            "(nearest valid name: 'Scale.__leaf_path__')"
        )
        lines = [json.dumps(good) for _ in range(3)]
        lines[1] = json.dumps(dict(good, config=bad))
        response = app.batch({"program": phash, "lines": lines})
        records = response["results"]
        assert [record["ok"] for record in records] == [True, False, True]
        assert records[1]["line"] == 2 and response["failed"] == 1
        assert "unknown reserved tunable" in records[1]["error"]
        with pytest.raises(ServeError) as excinfo:
            app.batch({"program": phash, "lines": lines, "config": bad})
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith("bad config: ")
        # user tunables and the reserved names themselves are untouched
        fine = {"tunables": {"Scale.salt": 1, "Scale.__leaf_path__": 2}}
        assert "outputs" in app.run(dict(good, program=phash, config=fine))

    def test_leveled_entry_for_a_flat_knob_is_400_or_that_lines_record(
        self, app, phash
    ):
        """A leveled ``__seq_cutoff__`` used to load and be ignored: the
        engine reads it once per run."""
        good = {"transform": "Scale", "inputs": {"A": [[1.0]]}}
        bad = {"leveled_tunables": {"Scale.__seq_cutoff__": [[None, 4]]}}
        with pytest.raises(ServeError) as excinfo:
            app.run(dict(good, program=phash, config=bad))
        assert excinfo.value.status == 400
        assert excinfo.value.message.startswith(
            "bad config: reserved tunable 'Scale.__seq_cutoff__' cannot be "
            "size-leveled"
        )
        lines = [json.dumps(good), json.dumps(dict(good, config=bad))]
        records = app.batch({"program": phash, "lines": lines})["results"]
        assert [record["ok"] for record in records] == [True, False]
        assert "cannot be size-leveled" in records[1]["error"]
        fine = {"leveled_tunables": {"Scale.__leaf_path__": [[None, 2]]}}
        assert "outputs" in app.run(dict(good, program=phash, config=fine))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"min_size": 0}, "min_size must be an integer >= 1, got 0"),
            ({"min_size": "abc"},
             "min_size must be an integer >= 1, got 'abc'"),
            ({"population": [3]},
             "population must be an integer >= 1, got [3]"),
            ({"jobs": float("inf")}, "jobs must be an integer >= 1, got inf"),
            ({"jobs": 0}, "jobs must be an integer >= 1, got 0"),
            ({"min_size": 128, "max_size": 64},
             "min_size 128 exceeds max_size 64"),
        ],
    )
    def test_bad_tune_limits_are_a_400_before_enqueue(
        self, app, phash, monkeypatch, fields, message
    ):
        def no_enqueue(*args, **kwargs):
            raise AssertionError("a refused tune request was enqueued")

        monkeypatch.setattr(app.jobs, "submit", no_enqueue)
        with pytest.raises(ServeError) as excinfo:
            app.tune({"program": phash, "transform": "Scale", **fields})
        assert excinfo.value.status == 400
        assert excinfo.value.message == f"bad tune request: {message}"

    def test_tune_job_publishes_version(self, app, phash):
        job_id = app.tune(
            {
                "program": phash,
                "transform": "Scale",
                "max_size": 16,
                "min_size": 16,
                "population": 4,
                "bucket": "b2",
            }
        )["job"]
        snapshot = app.jobs.wait(job_id, timeout=120.0)
        assert snapshot["state"] == "done", snapshot.get("error")
        assert snapshot["result"]["version"] == 1
        entry = app.registry.peek(phash, "xeon8", "b2")
        assert entry.version == 1
        assert entry.digest == snapshot["result"]["digest"]


# ---------------------------------------------------------------------------
# concurrency


class TestConcurrency:
    def test_many_threads_one_entry(self, app, phash):
        app.publish_config(phash, "xeon8", ANY_BUCKET, _config(0))
        errors = []
        results = []

        def worker(value):
            payload = {
                "program": phash,
                "transform": "Scale",
                "inputs": {"A": [[float(value)]]},
            }
            try:
                for _ in range(5):
                    response = app.run(payload)
                    results.append(
                        (value, response["outputs"]["B"][0][0])
                    )
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(v,)) for v in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 40
        for value, output in results:
            assert output == value * 2.0 + 1.0

    def test_version_bump_races_inflight_runs(self, app, phash):
        """Runs racing a publish see either the old or the new version,
        never a torn state, and the final request sees the new one."""
        app.publish_config(phash, "xeon8", ANY_BUCKET, _config(0))
        seen = []
        stop = threading.Event()

        def runner():
            payload = {
                "program": phash,
                "transform": "Scale",
                "inputs": {"A": [[1.0, 2.0], [3.0, 4.0]]},
            }
            while not stop.is_set():
                meta = app.run(payload)["meta"]
                seen.append(meta["version"])

        thread = threading.Thread(target=runner)
        thread.start()
        try:
            app.publish_config(phash, "xeon8", ANY_BUCKET, _config(1))
        finally:
            stop.set()
            thread.join()
        final = app.run(
            {
                "program": phash,
                "transform": "Scale",
                "inputs": {"A": [[1.0, 2.0], [3.0, 4.0]]},
            }
        )["meta"]
        assert set(seen) <= {1, 2}
        assert final["version"] == 2 and final["registry_hit"] is True

    def test_in_flight_entry_survives_bump(self, app, phash):
        """A handler that already resolved v1 keeps a usable immutable
        snapshot even after v2 replaces it in the registry."""
        app.publish_config(phash, "xeon8", ANY_BUCKET, _config(0))
        held = app.registry.lookup(phash, "xeon8", ANY_BUCKET)
        app.publish_config(phash, "xeon8", ANY_BUCKET, _config(1))
        assert held.version == 1
        assert held.config.tunables["Scale.__leaf_path__"] == 0
        entry = app.registry.program(phash)
        transform = entry.program.transform("Scale")
        result = transform.run(
            {"A": np.array([[1.0]])}, held.config
        )
        np.testing.assert_allclose(result.outputs["B"].data, [[3.0]])


# ---------------------------------------------------------------------------
# store + recovery


class TestRecovery:
    def test_restart_recovers_programs_and_configs(self, tmp_path):
        store = str(tmp_path / "store")
        first = ServeApp(store_dir=store)
        phash = first.compile({"source": SCALE})["program"]
        first.publish_config(phash, "xeon8", "b2", _config(0))
        first.publish_config(phash, "xeon8", "b2", _config(1))  # v2
        first.close()

        second = ServeApp(store_dir=store)
        try:
            assert second.recovered["programs"] == 1
            assert second.recovered["configs"] == 1
            entry = second.registry.peek(phash, "xeon8", "b2")
            assert entry.version == 2  # version survives the restart
            assert entry.origin == "store"
            meta = second.run(
                {
                    "program": phash,
                    "transform": "Scale",
                    "inputs": {"A": [[1.0, 2.0], [3.0, 4.0]]},
                }
            )["meta"]
            assert meta["registry_hit"] is True and meta["version"] == 2
            # The next publish continues the version sequence.
            bumped = second.publish_config(phash, "xeon8", "b2", _config(2))
            assert bumped.version == 3
        finally:
            second.close()

    def test_corrupt_config_artifact_is_skipped(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = ServeApp(store_dir=store_dir)
        phash = first.compile({"source": SCALE})["program"]
        first.publish_config(phash, "xeon8", "b2", _config(0))
        first.close()

        victim = next((tmp_path / "store" / "configs").rglob("b2.json"))
        victim.write_text("{ this is not json")
        second = ServeApp(store_dir=store_dir)
        try:
            assert second.recovered["programs"] == 1
            assert second.recovered["skipped"] >= 1
            assert second.registry.peek(phash, "xeon8", "b2") is None
            # The daemon still serves the recovered program.
            response = second.run(
                {
                    "program": phash,
                    "transform": "Scale",
                    "inputs": {"A": [[2.0]]},
                }
            )
            np.testing.assert_allclose(response["outputs"]["B"], [[5.0]])
        finally:
            second.close()

    def test_store_writes_are_atomic_files(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        store.save_program("cafe", SCALE, {"transforms": ["Scale"]})
        store.save_config("cafe", "xeon8", "b2", _config(0), meta={"version": 1})
        leftovers = [
            path
            for path in (tmp_path / "store").rglob("*")
            if path.is_file() and path.suffix not in (".json", ".pbcc")
        ]
        assert leftovers == []  # no temp files left behind
        assert dict(store.load_programs())["cafe"] == SCALE


# ---------------------------------------------------------------------------
# HTTP round trip


class TestHTTP:
    @pytest.fixture()
    def daemon(self):
        server = ServeDaemon(ServeApp(), port=0).start_background()
        yield server
        server.stop()

    @pytest.fixture()
    def client(self, daemon):
        return ServeClient(port=daemon.port, timeout=30.0)

    def test_round_trip(self, client):
        assert client.health()["ok"] is True
        phash = client.compile(SCALE)["program"]
        # ensure_program resolves without re-sending the source.
        assert client.ensure_program(SCALE) == phash
        response = client.run(
            phash, "Scale", {"A": [[1.0, 2.0], [3.0, 4.0]]}
        )
        assert response["outputs"]["B"] == [[3.0, 5.0], [7.0, 9.0]]
        batch = client.batch(
            phash,
            [json.dumps({"transform": "Scale", "inputs": {"A": [[1.0]]}})],
        )
        assert batch["failed"] == 0
        assert batch["results"][0]["outputs"]["B"] == [[3.0]]
        stats = client.stats()
        assert stats["counters"]["serve.compiles"] == 1

    def test_errors_carry_status(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.run("no-such-hash", "Scale", [])
        assert excinfo.value.status == 404
        with pytest.raises(ServeClientError) as excinfo:
            client.request("GET", "/no/such/route")
        assert excinfo.value.status == 404

    def test_malformed_sizes_never_surface_as_500(self, client):
        phash = client.compile(SCALE)["program"]
        good = {"transform": "Scale", "inputs": {"A": [[1.0]]}}
        for sizes in ({"k": "abc"}, [3]):
            with pytest.raises(ServeClientError) as excinfo:
                client.request(
                    "POST", "/run", dict(good, program=phash, sizes=sizes)
                )
            assert excinfo.value.status == 400
            assert "bad sizes" in str(excinfo.value)
            batch = client.batch(
                phash,
                [json.dumps(good), json.dumps(dict(good, sizes=sizes))] * 2,
            )
            assert [r["ok"] for r in batch["results"]] == [True, False] * 2

    def test_a_served_vector_run_pins_nothing_sized_by_its_cells(
        self, daemon, client
    ):
        """A daemon that has served one 512 x 512 vector ``/run`` holds
        a plan, a geometry of ranges and value lists, and the compiled
        step: under 256 KiB, not the ~19 MB instance product the
        geometry cache used to pin per site for the life of the
        process."""
        import gc
        import tracemalloc

        phash = client.compile(SCALE)["program"]
        config = json.loads(_config(2).to_json())
        client.run(phash, "Scale", {"A": np.ones((2, 2))}, config=config)
        image = np.random.default_rng(3).uniform(-1.0, 1.0, (512, 512))
        gc.collect()
        tracemalloc.start()
        try:
            response = client.run(phash, "Scale", {"A": image}, config=config)
            served = bool((response["outputs"]["B"] == image * 2.0 + 1.0).all())
            del response
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert served and daemon.app.sink.counters["serve.runs"] == 2
        assert retained < 256 * 1024

    def test_shutdown_route_stops_server(self):
        daemon = ServeDaemon(ServeApp(), port=0).start_background()
        client = ServeClient(port=daemon.port, timeout=30.0)
        assert client.shutdown()["state"] == "draining"
        daemon._thread.join(timeout=5.0)
        assert not daemon._thread.is_alive()


# ---------------------------------------------------------------------------
# byte parity with the direct CLI


class TestByteParity:
    BAD_SIZES = json.dumps(
        {"transform": "Scale", "inputs": {"A": [[1.0]]}, "sizes": {"n": -1}}
    )

    def test_served_batch_matches_cli_bytes(self, app, phash, tmp_path):
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[1.0, 2.0]]}}),
            self.BAD_SIZES,
            "",
            json.dumps({"transform": "Scale", "inputs": {"A": [[5.0, 6.0]]}}),
            "# a comment line",
            "not json at all",
            json.dumps({"transform": "Nope", "inputs": {}}),
            json.dumps(
                {"transform": "Scale", "inputs": {"A": [[2.0]]}, "sizes": "x"}
            ),
            json.dumps(
                {
                    "transform": "Scale",
                    "inputs": {"A": [[1.0]]},
                    "config": {"tunables": {"Scale.__Leaf_Path__": 2}},
                }
            ),
            json.dumps({"transform": "Scale", "inputs": {"A": [[7.0]]}}),
        ]
        source_path = tmp_path / "scale.pbcc"
        source_path.write_text(SCALE)
        requests_path = tmp_path / "reqs.jsonl"
        requests_path.write_text("\n".join(lines) + "\n")
        direct_path = tmp_path / "direct.jsonl"
        assert (
            main(
                [
                    "batch",
                    str(source_path),
                    str(requests_path),
                    "-o",
                    str(direct_path),
                ]
            )
            == 0
        )

        response = app.batch({"program": phash, "lines": lines})
        served = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in response["results"]
        )
        assert served == direct_path.read_text()
        # Bad sizes make a line malformed on both sides, so the ids of
        # the lines after it do not shift.
        records = response["results"]
        assert [r["id"] for r in records] == [0, None, 1, None, None, None, None, 2]
        assert [r.get("line") for r in records if r["id"] is None] == [2, 6, 7, 8, 9]

    def test_strict_bad_sizes_is_the_same_refusal(
        self, app, phash, tmp_path, capsys
    ):
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[1.0]]}}),
            self.BAD_SIZES,
        ]
        with pytest.raises(ServeError) as refused:
            app.batch({"program": phash, "lines": lines, "strict": True})
        assert refused.value.status == 400
        assert refused.value.message.startswith("request line 2: ")
        source_path = tmp_path / "scale.pbcc"
        source_path.write_text(SCALE)
        requests_path = tmp_path / "reqs.jsonl"
        requests_path.write_text("\n".join(lines) + "\n")
        assert main(["batch", str(source_path), str(requests_path), "--strict"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {refused.value.message}\n"
        assert captured.out == ""

    def test_parity_survives_warm_engine(self, app, phash, tmp_path):
        """A second served batch on the (now warm) engine still emits
        the exact bytes a fresh CLI process would."""
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[3.0]]}}),
        ]
        source_path = tmp_path / "scale.pbcc"
        source_path.write_text(SCALE)
        requests_path = tmp_path / "reqs.jsonl"
        requests_path.write_text("\n".join(lines) + "\n")
        direct_path = tmp_path / "direct.jsonl"
        main(["batch", str(source_path), str(requests_path), "-o", str(direct_path)])

        app.batch({"program": phash, "lines": lines})  # warm the engine
        response = app.batch({"program": phash, "lines": lines})
        served = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in response["results"]
        )
        assert served == direct_path.read_text()


# ---------------------------------------------------------------------------
# soak: bounded memory in a long-lived daemon


class TestSoak:
    def test_10k_requests_bounded_memory(self, app, phash):
        """10k served requests across 100 distinct inline configs leave
        the resident transform's plan cache (the one plan cache, which
        the batch engine shares) bounded and the registry unchanged —
        the daemon does not accumulate per-request state."""
        lines = [
            json.dumps({"transform": "Scale", "inputs": {"A": [[1.0, 2.0]]}})
            for _ in range(100)
        ]
        entry = app.registry.program(phash)
        registry_size = len(app.registry._configs)
        for round_number in range(100):
            config = json.loads(_config(0, salt=round_number).to_json())
            response = app.batch(
                {"program": phash, "lines": lines, "config": config}
            )
            assert response["failed"] == 0
        assert app.sink.counters["serve.batch_requests"] == 10_000
        plans = entry.program.transform("Scale")._plan_cache
        assert 0 < len(plans) <= plans.limit
        assert not hasattr(entry.engine, "_plans")
        assert len(app.registry._configs) == registry_size
        # The fixed digest memo of old (id-keyed, append-only) is gone.
        assert not hasattr(entry.engine, "_digests")
