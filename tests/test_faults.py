"""Tests for the fault-tolerance layer: the deterministic injector and
the shared recovery rules (:mod:`repro.faults`), every recovery path of the measurement loop of
:class:`~repro.autotuner.evaluation.Evaluator` (crash -> retry ->
pool rebuild, hang -> deadline cull, repeat killer -> quarantine,
transient -> bounded backoff retries, pool collapse -> serial
degradation), the crash-safe measurement cache, and the acceptance
invariant: tuning under injected faults is byte-identical to a
fault-free run.
"""

import functools
import json
import os
import pickle
import time
import types

import pytest

from repro.apps import sort as sort_app
from repro.autotuner import GeneticTuner, evaluation
from repro.autotuner.evaluation import CandidateFailure, Evaluator
from repro.autotuner.parallel import EvaluatorSpec, MeasurementCache
from repro.compiler import ChoiceConfig, Selector
from repro.faults import FaultInjector, FaultSpecError, RetryPolicy
from repro.faults import stable_hash
from repro.faults.harness import (
    DEFAULT_TUNER_KWARGS,
    check_fault_tolerance,
    sweep,
)
from repro.observe import TraceSink

SORT_SPEC = EvaluatorSpec.make("repro.apps.sort:make_evaluator", "xeon8")


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    """Fast recovery for the unit tests: no sleeps between retry rounds."""
    monkeypatch.setattr(
        evaluation, "RETRY_BACKOFF", RetryPolicy(backoff_s=0.0, jitter=0.0)
    )


def sort_batch(options, size=32):
    batch = []
    for option in options:
        config = ChoiceConfig()
        config.set_choice(sort_app.SORT_SITE, Selector.static(option))
        batch.append((config, size))
    return batch


def tune_sort(evaluator):
    return GeneticTuner(
        evaluator,
        threshold_metric=sort_app.size_metric,
        **DEFAULT_TUNER_KWARGS,
    ).tune()


@pytest.fixture(scope="module")
def serial_times():
    """Fault-free reference values for the sort measurement batches."""
    batch = sort_batch((0, 1, 2, 3))
    times = Evaluator.from_spec(SORT_SPEC).evaluate_batch(batch)
    return {
        (config.to_json(), size): time
        for (config, size), time in zip(batch, times)
    }


class TestSpecGrammar:
    def test_parse_describe_roundtrip(self):
        injector = FaultInjector.parse(
            "worker-crash:0.2,worker-hang:0.05,seed=7,hang=2"
        )
        assert injector.seed == 7
        assert injector.hang_seconds == 2.0
        assert FaultInjector.parse(injector.describe()) == injector

    def test_repeat_defaults(self):
        """p < 1 fires at most once; p >= 1 is persistent."""
        injector = FaultInjector.parse("worker-crash:0.5,worker-hang:1")
        by_kind = {rule.kind: rule for rule in injector.rules}
        assert by_kind["worker-crash"].repeat == 1
        assert by_kind["worker-hang"].repeat is None

    def test_explicit_repeat(self):
        injector = FaultInjector.parse("transient:1x3")
        assert injector.fires("transient", "id", 2)
        assert not injector.fires("transient", "id", 3)

    @pytest.mark.parametrize("bad", [
        "", "worker-crash", "worker-crash:abc", "worker-crash:-0.5",
        "unknown-fault:0.5", "worker-crash:0.5x0", "bogus=3",
        "worker-crash:0.5,hang=-1",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            FaultInjector.parse(bad)

    def test_picklable(self):
        injector = FaultInjector.parse("worker-crash:0.3,seed=9")
        assert pickle.loads(pickle.dumps(injector)) == injector


class TestInjectorDecisions:
    def test_deterministic_across_instances(self):
        a = FaultInjector.parse("worker-crash:0.3,seed=5")
        b = FaultInjector.parse("worker-crash:0.3,seed=5")
        identities = [f"sig{i}|64" for i in range(500)]
        assert [a.fires("worker-crash", i) for i in identities] == \
               [b.fires("worker-crash", i) for i in identities]

    def test_probability_extremes(self):
        never = FaultInjector.parse("worker-crash:0x5")
        always = FaultInjector.parse("worker-crash:1")
        for attempt in range(4):
            assert not never.fires("worker-crash", "id", attempt)
            assert always.fires("worker-crash", "id", attempt)

    def test_probability_roughly_respected(self):
        injector = FaultInjector.parse("worker-crash:0.2")
        fired = sum(
            injector.fires("worker-crash", f"sig{i}|64") for i in range(2000)
        )
        assert 300 < fired < 500  # ~400 expected

    def test_unknown_kind_never_fires(self):
        injector = FaultInjector.parse("worker-crash:1")
        assert not injector.fires("worker-hang", "id", 0)

    def test_attempt_gating_enables_recovery(self):
        """The at-most-once default: whatever fires on attempt 0 is
        guaranteed not to fire on attempt 1."""
        injector = FaultInjector.parse(
            "worker-crash:0.9,worker-hang:0.9,transient:0.9"
        )
        for kind in ("worker-crash", "worker-hang", "transient"):
            for i in range(100):
                assert not injector.fires(kind, f"sig{i}", 1)


class TestRecoveryRules:
    """The one ``stable_hash`` reproduces the three formulas it replaced,
    bit for bit (values taken from the hand-written blake2b copies)."""

    def test_measurement_seed_pinned(self):
        assert evaluation.measurement_seed(
            20090615, '{"a": 1}', 64, 2
        ) == 3316755640898328634
        assert evaluation.measurement_seed(1, "sig", 64, 0) == (
            5965824829963928929
        )
        assert stable_hash(1, 64, 0, "sig") == 5965824829963928929

    def test_fault_fraction_pinned(self):
        injector = FaultInjector.parse("transient:0.5,seed=7")
        assert injector._fraction("transient", "sig|64", 1) == (
            0.8736878974892485
        )
        assert FaultInjector.parse("conn-drop:0.5")._fraction(
            "conn-drop", "conn|run|r3", 0
        ) == 0.40471012282630325

    def test_retry_delay_pinned(self):
        policy = RetryPolicy()
        assert [policy.delay("/run", attempt) for attempt in range(4)] == [
            0.056241226783556655,
            0.12251744857371322,
            0.2336289316074328,
            0.4133602296765174,
        ]
        assert RetryPolicy(seed=9, jitter=0.5).delay(
            "/batch", 2, retry_after=0.01
        ) == 0.2321647948257255

    def test_unjittered_backoff_is_capped_doubling(self):
        policy = RetryPolicy(backoff_s=0.05, max_backoff_s=1.0, jitter=0.0)
        assert [policy.delay("job", k) for k in range(7)] == [
            0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0
        ]
        assert policy.delay("job", 5000) == 1.0  # no overflow on long polls

    def test_resolve_backs_off_on_the_evaluator_schedule(
        self, monkeypatch, serial_times
    ):
        """Retry rounds sleep 0.05 * 2**k s, capped at 2 s."""
        monkeypatch.setattr(
            evaluation, "RETRY_BACKOFF",
            RetryPolicy(backoff_s=0.05, max_backoff_s=2.0, jitter=0.0),
        )
        sleeps = []
        monkeypatch.setattr(evaluation, "_time", types.SimpleNamespace(
            sleep=sleeps.append, perf_counter=time.perf_counter
        ))
        batch = sort_batch((0,))
        evaluator = Evaluator.from_spec(
            SORT_SPEC,
            injector=FaultInjector.parse("transient:1x7"),
            max_retries=10,
        )
        assert evaluator.evaluate_batch(batch) == [
            serial_times[(batch[0][0].to_json(), 32)]
        ]
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0]


class TestCrashRecovery:
    def test_crash_retry_rebuild_identical_values(self, serial_times):
        """Every first attempt crashes the worker: the batch still
        resolves, via retries and a pool rebuild, to identical values."""
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink,
            injector=FaultInjector.parse("worker-crash:1x1"),
        )
        try:
            evaluator.evaluate_batch(sort_batch((0, 1, 2, 3)))
            for config, size in sort_batch((0, 1, 2, 3)):
                key = (config.to_json(), size)
                assert evaluator.time(config, size) == serial_times[key]
        finally:
            evaluator.close()
        assert sink.counter("tuner.pool.rebuilds") >= 1
        assert sink.counter("tuner.pool.retries") >= 1
        assert sink.counter("tuner.pool.quarantines") == 0

    def test_repeat_killer_quarantined(self, monkeypatch):
        """A signature that kills every worker is quarantined and fails
        fast at every size from then on."""
        monkeypatch.setattr(evaluation, "QUARANTINE_AFTER", 2)
        monkeypatch.setattr(evaluation, "DEGRADE_AFTER", 10)
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink,
            injector=FaultInjector.parse("worker-crash:1"),
        )
        try:
            evaluator.evaluate_batch(sort_batch((0,)))
            config, size = sort_batch((0,))[0]
            with pytest.raises(CandidateFailure, match="quarantined"):
                evaluator.time(config, size)
            # Other sizes of the same signature fail without dispatch.
            dispatched = sink.counter("tuner.pool.dispatches")
            with pytest.raises(CandidateFailure, match="quarantined"):
                evaluator.time(config, 64)
            assert sink.counter("tuner.pool.dispatches") == dispatched
        finally:
            evaluator.close()
        assert sink.counter("tuner.pool.quarantines") == 1
        assert evaluator.quarantined

    def test_degrades_to_serial_after_pool_collapse(
        self, serial_times, monkeypatch
    ):
        """When the pool keeps dying without progress, the evaluator
        falls back to in-process evaluation and still produces correct
        values."""
        monkeypatch.setattr(evaluation, "QUARANTINE_AFTER", 99)
        monkeypatch.setattr(evaluation, "DEGRADE_AFTER", 2)
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink,
            injector=FaultInjector.parse("worker-crash:1"),
        )
        try:
            evaluator.evaluate_batch(sort_batch((0, 1)))
            assert evaluator.degraded
            for config, size in sort_batch((0, 1)):
                key = (config.to_json(), size)
                assert evaluator.time(config, size) == serial_times[key]
        finally:
            evaluator.close()
        assert sink.counter("tuner.degraded_serial") == 1


class TestDeadlines:
    def test_persistent_hang_culled_as_failure(self):
        """A measurement that hangs on every attempt misses its deadline
        max_retries+1 times and becomes a cached CandidateFailure."""
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink,
            injector=FaultInjector.parse("worker-hang:1,hang=2"),
            measure_timeout=0.15, max_retries=1,
        )
        try:
            evaluator.evaluate_batch(sort_batch((0,)))
            config, size = sort_batch((0,))[0]
            with pytest.raises(CandidateFailure, match="MeasurementTimeout"):
                evaluator.time(config, size)
            # The verdict is cached: probing again raises immediately.
            with pytest.raises(CandidateFailure, match="MeasurementTimeout"):
                evaluator.time(config, size)
        finally:
            evaluator.close()
        assert sink.counter("tuner.pool.timeouts") == 2  # initial + 1 retry
        assert sink.counter("tuner.pool.rebuilds") >= 1

    def test_one_shot_hang_recovered(self, serial_times):
        """A hang that fires once times out, is retried, and resolves to
        the identical measurement."""
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink,
            injector=FaultInjector.parse("worker-hang:1x1,hang=1"),
            measure_timeout=0.2,
        )
        try:
            evaluator.evaluate_batch(sort_batch((0, 1)))
            for config, size in sort_batch((0, 1)):
                key = (config.to_json(), size)
                assert evaluator.time(config, size) == serial_times[key]
        finally:
            evaluator.close()
        assert sink.counter("tuner.pool.timeouts") >= 1

    def test_timeout_failure_persisted_to_cache(self, tmp_path):
        """Timed-out candidates are cached failures, like any other
        nonviable candidate (the paper's culling)."""
        path = str(tmp_path / "cache.jsonl")
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, cache=MeasurementCache(path),
            injector=FaultInjector.parse("worker-hang:1,hang=2"),
            measure_timeout=0.15, max_retries=0,
        )
        config, size = sort_batch((0,))[0]
        try:
            evaluator.evaluate_batch([(config, size)])
        finally:
            evaluator.close()
        warm = MeasurementCache(path)
        assert len(warm) == 1
        (record,) = warm._records.values()
        assert "MeasurementTimeout" in record["error"]

    def test_one_miss_beside_a_cached_pair_keeps_its_deadline(
        self, serial_times, tmp_path
    ):
        """A pool batch whose only miss sits next to a cached pair is
        still measured in a worker under the deadline: a persistent hang
        ends in MeasurementTimeout instead of blocking the caller."""
        path = str(tmp_path / "cache.jsonl")
        with Evaluator.from_spec(
            SORT_SPEC, cache=MeasurementCache(path)
        ) as warm:
            warm.evaluate_batch(sort_batch((0,)))
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink, cache=MeasurementCache(path),
            injector=FaultInjector.parse("worker-hang:1,hang=2"),
            measure_timeout=0.15, max_retries=0,
        )
        batch = sort_batch((0, 1))
        try:
            cached, missed = evaluator.evaluate_batch(batch)
        finally:
            evaluator.close()
        config, size = batch[0]
        assert cached == serial_times[(config.to_json(), size)]
        assert isinstance(missed, CandidateFailure)
        assert "MeasurementTimeout" in str(missed)
        assert sink.counter("tuner.pool.dispatches") == 1
        assert sink.counter("tuner.pool.timeouts") == 1


class TestTransientFaults:
    def test_transient_errors_retried_to_identical_values(self, serial_times):
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, sink=sink,
            injector=FaultInjector.parse("transient:0.9,corrupt-record:0.9"),
        )
        try:
            evaluator.evaluate_batch(sort_batch((0, 1, 2, 3)))
            for config, size in sort_batch((0, 1, 2, 3)):
                key = (config.to_json(), size)
                assert evaluator.time(config, size) == serial_times[key]
        finally:
            evaluator.close()

    def test_exhausted_transient_not_persisted(self, tmp_path):
        """A transient failure that survives every retry fails the
        candidate for this run only — it must not poison the disk cache
        for later (healthy) runs."""
        path = str(tmp_path / "cache.jsonl")
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=2, cache=MeasurementCache(path),
            injector=FaultInjector.parse("transient:1"),
            max_retries=1,
        )
        config, size = sort_batch((0,))[0]
        try:
            evaluator.evaluate_batch([(config, size)])
            with pytest.raises(CandidateFailure, match="TransientFault"):
                evaluator.time(config, size)
        finally:
            evaluator.close()
        assert len(MeasurementCache(path)) == 0

    def test_serial_mode_injects_transients_only(self, serial_times):
        """jobs=1 has no process boundary: crash/hang/corrupt-record
        faults are inert, transient faults are retried in place."""
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=1, sink=sink,
            injector=FaultInjector.parse(
                "worker-crash:1,worker-hang:1,corrupt-record:1,transient:0.9"
            ),
        )
        try:
            evaluator.evaluate_batch(sort_batch((0, 1)))
            for config, size in sort_batch((0, 1)):
                key = (config.to_json(), size)
                assert evaluator.time(config, size) == serial_times[key]
        finally:
            evaluator.close()
        assert sink.counter("tuner.pool.retries") >= 1
        assert sink.counter("tuner.pool.rebuilds") == 0


class TestCrashSafeCache:
    KEY_FIELDS = {
        "machine": "xeon8", "workers": 8, "trials": 1,
        "seed": 20090615, "signature": '{"choices": {}}',
    }

    def _row(self, size, **extra):
        row = dict(self.KEY_FIELDS, size=size)
        row.update(extra or {"time": 1.0 * size, "tasks": 2, "steals": 0})
        return json.dumps(row, sort_keys=True)

    def test_corrupt_lines_skipped_counted_quarantined(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        good = [self._row(64), self._row(512, error="RecursionError: boom")]
        bad = [
            "{not json",                      # malformed JSON
            self._row(128)[:37],              # truncated mid-record
            '["a", "list", "row"]',           # wrong shape
        ]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([good[0], *bad, good[1]]) + "\n")

        cache = MeasurementCache(path)  # must not raise
        assert len(cache) == 2
        assert cache.corrupt_lines == 3
        sidecar = path + ".bad"
        assert os.path.exists(sidecar)
        with open(sidecar, encoding="utf-8") as handle:
            assert [line.strip() for line in handle] == bad

    def test_rows_missing_required_fields_skipped(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        complete = self._row(64)
        missing = [
            json.dumps({k: v for k, v in json.loads(self._row(128)).items()
                        if k != field}, sort_keys=True)
            for field in ("machine", "workers", "trials", "seed",
                          "signature", "size")
        ]
        mistyped = self._row(256, time="NaN-garbage", tasks=2, steals=0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join([complete, *missing, mistyped]) + "\n")
        cache = MeasurementCache(path)
        assert len(cache) == 1
        assert cache.corrupt_lines == 7

    def test_extra_fields_tolerated(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                self._row(64, time=5.0, tasks=2, steals=0,
                          future_field="ignored") + "\n"
            )
        cache = MeasurementCache(path)
        assert len(cache) == 1
        key = ("xeon8", 8, 1, 20090615, '{"choices": {}}', 64)
        assert cache.lookup(key) == {"time": 5.0, "tasks": 2, "steals": 0}

    def test_corrupt_lines_surface_as_counter(self, tmp_path):
        path = str(tmp_path / "cache.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self._row(64) + "\n{broken\n")
        sink = TraceSink(capture_events=False)
        evaluator = Evaluator.from_spec(
            SORT_SPEC, jobs=1, cache=MeasurementCache(path), sink=sink
        )
        evaluator.close()
        assert sink.counter("tuner.cache.corrupt_lines") == 1

    def test_injected_cache_corruption_round_trip(self, tmp_path):
        """cache-corrupt faults garble flushed lines; the next load
        skips them and the measurements are simply re-run."""
        path = str(tmp_path / "cache.jsonl")
        first = Evaluator.from_spec(
            SORT_SPEC, jobs=1, cache=MeasurementCache(
                path, injector=FaultInjector.parse("cache-corrupt:1")
            ),
        )
        first.evaluate_batch(sort_batch((0, 1)))
        first.close()
        assert first.evaluations == 2

        warm = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        warm.evaluate_batch(sort_batch((0, 1)))
        warm.close()
        assert warm.cache.corrupt_lines == 2
        assert warm.evaluations == 2  # lost records were re-measured


class TestKillMidRunResume:
    def test_killed_run_loses_at_most_one_batch(self, tmp_path):
        """A hard kill mid-batch (no close(), no flush) loses only the
        batch in flight; a warm restart re-runs just what was lost and
        lands on the byte-identical configuration."""
        cold = Evaluator.from_spec(SORT_SPEC, jobs=1)
        cold_result = tune_sort(cold)
        cold.close()
        total = cold.evaluations

        path = str(tmp_path / "cache.jsonl")
        killed = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        batch_sizes = []
        original = Evaluator.evaluate_batch

        def tracking_batch(self, batch):
            batch_sizes.append(len(batch))
            return original(self, batch)

        kill_at = {"remaining": 10}
        original_measure = Evaluator.measure

        def killing_measure(self, config, size, signature=None):
            if kill_at["remaining"] == 0:
                raise KeyboardInterrupt("simulated SIGKILL")
            kill_at["remaining"] -= 1
            return original_measure(self, config, size, signature)

        killed.evaluate_batch = tracking_batch.__get__(killed)
        killed.measure = killing_measure.__get__(killed)
        with pytest.raises(KeyboardInterrupt):
            tune_sort(killed)
        # Deliberately NO close(): simulate a killed process.

        flushed = len(MeasurementCache(path))
        lost = killed.evaluations - flushed
        assert 0 <= lost <= max(batch_sizes)

        warm = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        warm_result = tune_sort(warm)
        warm.close()
        assert warm_result.config.to_json() == cold_result.config.to_json()
        assert warm_result.best_time == cold_result.best_time
        assert warm.evaluations == total - flushed

    def test_interrupted_run_with_close_loses_nothing(self, tmp_path):
        """The CLI's try/finally path: an exception mid-tuning still
        flushes every completed measurement."""
        path = str(tmp_path / "cache.jsonl")
        evaluator = Evaluator.from_spec(SORT_SPEC, cache=MeasurementCache(path))
        batches = {"seen": 0}
        original = Evaluator.evaluate_batch

        def interrupting_batch(self, batch):
            if batches["seen"] == 3:
                raise RuntimeError("mid-generation failure")
            batches["seen"] += 1
            return original(self, batch)

        evaluator.evaluate_batch = interrupting_batch.__get__(evaluator)
        try:
            with pytest.raises(RuntimeError, match="mid-generation"):
                tune_sort(evaluator)
        finally:
            evaluator.close()
        assert len(MeasurementCache(path)) == evaluator.evaluations
        assert evaluator.evaluations > 0


class TestFaultToleranceHarness:
    """The acceptance bar: tuning under the issue's injection spec is
    byte-identical to a fault-free run."""

    def test_crash_and_hang_parity(self):
        report = check_fault_tolerance(
            SORT_SPEC,
            "worker-crash:0.2,worker-hang:0.05,hang=1",
            jobs=2,
            measure_timeout=0.3,
            tuner_kwargs={"threshold_metric": sort_app.size_metric},
        )
        assert not report.degraded
        assert report.counters.get("tuner.pool.rebuilds", 0) >= 1

    def test_all_fault_kinds_sweep(self):
        # check_fault_tolerance asserts parity itself: a diverging seed
        # raises inside the sweep.
        reports = sweep(
            functools.partial(
                check_fault_tolerance,
                SORT_SPEC,
                jobs=2,
                tuner_kwargs={"threshold_metric": sort_app.size_metric},
            ),
            "worker-crash:0.15,transient:0.1,corrupt-record:0.1",
            seeds=(1, 2),
        )
        assert [report.faulty.config.to_json() for report in reports] == [
            report.baseline.config.to_json() for report in reports
        ]
