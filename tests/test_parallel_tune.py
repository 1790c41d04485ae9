"""Tests for parallel candidate evaluation and the persistent
measurement cache (:mod:`repro.autotuner.evaluation`,
:mod:`repro.autotuner.parallel`).

The acceptance bar: ``repro tune --jobs N`` must produce a byte-identical
``TuneResult`` (config JSON + history) and ``candidate`` event stream to
``--jobs 1`` on Sort and MatrixMultiply, and a warm cache must eliminate
every fresh evaluation.  Pool tests use tiny training sizes: correctness
of the fan-out, not its speed, is under test.
"""

import json
import pathlib
import shutil

import pytest

from repro.apps import matmul as matmul_app
from repro.apps import sort as sort_app
from repro.autotuner import GeneticTuner
from repro.autotuner.evaluation import CandidateFailure, Evaluator
from repro.autotuner.parallel import EvaluatorSpec, MeasurementCache
from repro.compiler import ChoiceConfig, Selector

DATA = pathlib.Path(__file__).parent / "data"
SORT_SPEC = EvaluatorSpec.make("repro.apps.sort:make_evaluator", "xeon8")
MATMUL_SPEC = EvaluatorSpec.make("repro.apps.matmul:make_evaluator", "xeon8")


def history_rows(result):
    return [
        (log.size, log.best_time, log.best_lineage, log.population,
         log.evaluated)
        for log in result.history
    ]


def tune_sort(evaluator, max_size=64):
    tuner = GeneticTuner(
        evaluator,
        min_size=16,
        max_size=max_size,
        population_size=4,
        tunable_rounds=1,
        refine_passes=0,
        threshold_metric=sort_app.size_metric,
    )
    return tuner.tune()


class TestMeasurementCache:
    KEY = ("xeon8", 8, 1, 20090615, '{"choices": {}}', 64)

    def test_roundtrip_through_jsonl(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = MeasurementCache(path)
        cache.store(self.KEY, {"time": 12.5, "tasks": 3, "steals": 1})
        cache.store(self.KEY[:5] + (128,), {"error": "RecursionError: boom"})
        assert cache.flush() == 2

        reloaded = MeasurementCache(path)
        assert len(reloaded) == 2
        assert reloaded.lookup(self.KEY) == {
            "time": 12.5, "tasks": 3, "steals": 1,
        }
        assert reloaded.lookup(self.KEY[:5] + (128,)) == {
            "error": "RecursionError: boom"
        }

    def test_flush_appends_only_new_records(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cache = MeasurementCache(path)
        cache.store(self.KEY, {"time": 1.0, "tasks": 1, "steals": 0})
        cache.flush()
        cache.store(self.KEY[:5] + (256,), {"time": 2.0, "tasks": 1, "steals": 0})
        cache.flush()
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
            if line.strip()
        ]
        assert len(lines) == 2
        assert {row["size"] for row in lines} == {64, 256}

    def test_keyed_by_machine_profile(self):
        cache = MeasurementCache()
        cache.store(self.KEY, {"time": 1.0, "tasks": 1, "steals": 0})
        other_machine = ("niagara",) + self.KEY[1:]
        assert cache.lookup(other_machine) is None
        other_workers = (self.KEY[0], 4) + self.KEY[2:]
        assert cache.lookup(other_workers) is None

    def test_last_record_wins_on_duplicate_keys(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        first = MeasurementCache(path)
        first.store(self.KEY, {"time": 1.0, "tasks": 1, "steals": 0})
        first.flush()
        second = MeasurementCache(path)
        second.store(self.KEY, {"time": 9.0, "tasks": 2, "steals": 1})
        # force the duplicate to be appended
        second._dirty.append(self.KEY)
        second.flush()
        reloaded = MeasurementCache(path)
        assert reloaded.lookup(self.KEY)["time"] == 9.0


class TestEvaluatorSpec:
    def test_build_resolves_and_silences_sink(self):
        evaluator = SORT_SPEC.build()
        assert isinstance(evaluator, Evaluator)
        assert evaluator.transform.name == "Sort"
        assert evaluator.sink is None

    def test_bad_factory_reference_rejected(self):
        with pytest.raises(ValueError, match="module:callable"):
            EvaluatorSpec.make("repro.apps.sort").build()

    def test_non_evaluator_factory_rejected(self):
        with pytest.raises(TypeError, match="not an Evaluator"):
            EvaluatorSpec.make("repro.apps.sort:build_program").build()


class TestBatchEvaluation:
    def test_matches_serial_evaluator_values(self):
        serial = sort_app.make_evaluator("xeon8")
        parallel = Evaluator.from_spec(SORT_SPEC, jobs=1)
        config = ChoiceConfig()
        config.set_choice(sort_app.SORT_SITE, Selector(((65, 0), (None, 1))))
        for size in (16, 64, 256):
            assert parallel.time(config, size) == serial.time(config, size)

    def test_evaluate_batch_prefills_cache(self):
        parallel = Evaluator.from_spec(SORT_SPEC, jobs=1)
        configs = []
        for option in (0, 1, 2):
            config = ChoiceConfig()
            config.set_choice(sort_app.SORT_SITE, Selector.static(option))
            configs.append(config)
        parallel.evaluate_batch([(c, 32) for c in configs])
        assert parallel.evaluations == 3
        for config in configs:
            parallel.time(config, 32)
        assert parallel.evaluations == 3  # all hits, nothing fresh

    def test_failures_cached_and_raised(self, tmp_path):
        """A nonviable candidate fails once, is cached (in memory and on
        disk), and every later probe raises without re-simulating."""
        from repro.runtime import MACHINES
        from tests.strategies import build_treesum, treesum_inputs

        path = str(tmp_path / "cache.jsonl")
        program = build_treesum()
        parallel = Evaluator(
            program, "TreeSum", treesum_inputs, MACHINES["xeon8"],
            cache=MeasurementCache(path),
        )
        bad = ChoiceConfig()
        bad.set_choice("TreeSum.S.0", Selector.static(1))  # recurse forever
        with pytest.raises(CandidateFailure, match="recursion"):
            parallel.time(bad, 64)
        assert parallel.evaluations == 0
        with pytest.raises(CandidateFailure):
            parallel.time(bad, 64)
        parallel.close()

        # The failure round-trips through the JSONL cache too.
        warm = Evaluator(
            program, "TreeSum", treesum_inputs, MACHINES["xeon8"],
            cache=MeasurementCache(path),
        )
        with pytest.raises(CandidateFailure, match="recursion"):
            warm.time(bad, 64)
        assert warm.evaluations == 0
        warm.close()

    def test_pool_batch_matches_serial_batch(self):
        """The real process pool returns bit-identical measurements."""
        serial = Evaluator.from_spec(SORT_SPEC, jobs=1)
        pooled = Evaluator.from_spec(SORT_SPEC, jobs=2)
        batch = []
        for option in (0, 1, 3):
            config = ChoiceConfig()
            config.set_choice(sort_app.SORT_SITE, Selector.static(option))
            batch.append((config, 64))
        try:
            serial.evaluate_batch(batch)
            pooled.evaluate_batch(batch)
            for config, size in batch:
                assert pooled.time(config, size) == serial.time(config, size)
            assert pooled.evaluations == serial.evaluations == 3
        finally:
            pooled.close()


class TestTuneParity:
    """`--jobs N` vs `--jobs 1`: byte-identical config and history."""

    def test_sort_jobs2_byte_identical(self):
        from repro.observe import TraceSink

        results, candidates = [], []
        for jobs in (1, 2):
            sink = TraceSink()
            evaluator = Evaluator.from_spec(SORT_SPEC, jobs=jobs, sink=sink)
            try:
                results.append(tune_sort(evaluator))
            finally:
                evaluator.close()
            candidates.append(sink.events_of("candidate"))
        assert results[0].config.to_json() == results[1].config.to_json()
        assert results[0].best_time == results[1].best_time
        assert history_rows(results[0]) == history_rows(results[1])
        assert candidates[0] and candidates[0] == candidates[1]

    def test_matmul_jobs2_byte_identical(self):
        results = []
        for jobs in (1, 2):
            evaluator = Evaluator.from_spec(MATMUL_SPEC, jobs=jobs)
            tuner = GeneticTuner(
                evaluator,
                min_size=4,
                max_size=8,
                population_size=4,
                tunable_rounds=0,
                refine_passes=0,
                threshold_metric=matmul_app.size_metric,
            )
            try:
                results.append(tuner.tune())
            finally:
                evaluator.close()
        assert results[0].config.to_json() == results[1].config.to_json()
        assert history_rows(results[0]) == history_rows(results[1])


class TestWarmCache:
    def test_warm_rerun_zero_fresh_evaluations(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        cold = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        cold_result = tune_sort(cold)
        cold.close()
        assert cold.evaluations > 0

        warm = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        warm_result = tune_sort(warm)
        warm.close()
        assert warm.evaluations == 0
        assert warm_result.config.to_json() == cold_result.config.to_json()
        assert warm_result.best_time == cold_result.best_time

    def test_a_cache_file_from_an_earlier_version_still_serves(self, tmp_path):
        """``tests/data/sort_tune_cache.jsonl`` is ``tune_sort``'s cache as
        an earlier evaluator (memory keyed by the JSON signature) wrote
        it, beside the config it tuned: every line loads, a warm rerun
        measures nothing, returns that config and appends no line."""
        path = tmp_path / "cache.jsonl"
        shutil.copy(DATA / "sort_tune_cache.jsonl", path)
        cache = MeasurementCache(str(path))
        assert (cache.corrupt_lines, len(cache)) == (0, 139)
        warm = Evaluator.from_spec(SORT_SPEC, cache=cache)
        result = tune_sort(warm)
        warm.close()
        assert warm.evaluations == 0
        assert result.config.to_json() == (
            DATA / "sort_tune_config.json"
        ).read_text()
        assert path.read_bytes() == (DATA / "sort_tune_cache.jsonl").read_bytes()

    def test_cache_ignored_across_machines(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        xeon = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        config = ChoiceConfig()
        config.set_choice(sort_app.SORT_SITE, Selector.static(0))
        xeon.time(config, 32)
        xeon.close()

        niagara_spec = EvaluatorSpec.make(
            "repro.apps.sort:make_evaluator", "niagara"
        )
        niagara = Evaluator.from_spec(
            niagara_spec, cache=MeasurementCache(path)
        )
        niagara.time(config, 32)
        niagara.close()
        assert niagara.evaluations == 1  # the xeon8 record was not reused

    def test_disk_hits_counted(self, tmp_path):
        from repro.observe import TraceSink

        path = str(tmp_path / "cache.jsonl")
        config = ChoiceConfig()
        config.set_choice(sort_app.SORT_SITE, Selector.static(1))
        first = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        first.time(config, 64)
        first.close()

        sink = TraceSink()
        second = Evaluator.from_spec(
            SORT_SPEC, cache=MeasurementCache(path), sink=sink
        )
        assert second.time(config, 64) == first.time(config, 64)
        second.close()
        assert sink.counter("tuner.cache.disk_hits") == 1
        assert second.evaluations == 0
