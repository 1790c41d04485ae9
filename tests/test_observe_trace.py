"""Tests for the observability layer: sink, histograms, JSONL export,
and the event streams emitted by the recorder, scheduler, and autotuner."""

import json

import pytest

from repro.observe import Histogram, TraceSink, load_jsonl
from repro.runtime import (
    MACHINES,
    Machine,
    TaskRecorder,
    WorkStealingScheduler,
)

FAST = Machine(
    name="fast", cores=4, cycle_time=1.0, spawn_time=0.0, steal_time=0.0
)


def fanout_graph(count=6, work=10.0, sink=None):
    rec = TaskRecorder(sink=sink)
    with rec.task(label="root"):
        for k in range(count):
            with rec.task(label=f"leaf{k}"):
                rec.charge(work)
    return rec.graph()


class TestHistogram:
    def test_power_of_two_buckets(self):
        hist = Histogram()
        for value in (0, 1, 2, 3, 4, 5, 100):
            hist.observe(value)
        # 0,1 -> bucket 0; 2 -> 1; 3,4 -> 2; 5 -> 3; 100 -> 7
        assert hist.buckets == {0: 2, 1: 1, 2: 2, 3: 1, 7: 1}

    def test_stats(self):
        hist = Histogram()
        for value in (2.0, 4.0, 6.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.mean == pytest.approx(4.0)
        assert hist.min == 2.0 and hist.max == 6.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)

    def test_empty_summary(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["min"] is None and summary["max"] is None


class TestTraceSink:
    def test_counters_and_events(self):
        sink = TraceSink()
        sink.count("x")
        sink.count("x", 4)
        sink.emit("ping", t=1.0, value=3)
        assert sink.counter("x") == 5
        assert sink.counter("missing") == 0
        assert sink.events_of("ping") == [{"kind": "ping", "t": 1.0, "value": 3}]

    def test_capture_events_off_keeps_metrics(self):
        sink = TraceSink(capture_events=False)
        sink.emit("ping", t=0.0)
        sink.count("x")
        sink.observe("h", 2.0)
        assert sink.events == []
        assert sink.counter("x") == 1
        assert sink.histograms["h"].count == 1

    def test_jsonl_roundtrip(self, tmp_path):
        sink = TraceSink()
        sink.emit("a", t=0.0, n=1)
        sink.emit("b", t=1.5, label="x")
        path = str(tmp_path / "trace.jsonl")
        assert sink.write_jsonl(path) == 2
        events = load_jsonl(path)
        assert events == sink.events
        for line in sink.jsonl_lines():
            json.loads(line)  # every line is standalone JSON

    def test_clear(self):
        sink = TraceSink()
        sink.emit("a")
        sink.count("c")
        sink.observe("h", 1)
        sink.clear()
        assert sink.summary() == {"events": 0, "counters": {}, "histograms": {}}


class TestRecorderEvents:
    def test_task_recorded_events(self):
        sink = TraceSink()
        fanout_graph(count=3, sink=sink)
        recorded = sink.events_of("task_recorded")
        assert [e["task"] for e in recorded] == [0, 1, 2, 3]
        assert recorded[0]["parent"] is None
        assert all(e["parent"] == 0 for e in recorded[1:])
        assert sink.counter("recorder.tasks") == 4

    def test_inline_counted_not_recorded(self):
        sink = TraceSink()
        rec = TaskRecorder(sink=sink)
        with rec.task():
            with rec.task(inline=True):
                rec.charge(5)
        assert sink.counter("recorder.inlined") == 1
        assert sink.counter("recorder.tasks") == 1


    @pytest.mark.parametrize("root", [True, False])
    @pytest.mark.parametrize("inline", [True, False])
    def test_record_leaf_is_the_scope_in_one_call(self, inline, root):
        """Same tasks — field for field — same events, same counters as
        ``with task(...): charge(...)``, inlined (into a parent, or
        promoted to a root when there is none) or not."""

        def record(fused):
            sink = TraceSink()
            rec = TaskRecorder(sink=sink)

            def leaves():
                ids = []
                for work in (2.5, 3):  # a float and an int charge
                    if fused:
                        tid = rec.record_leaf(ids, "leaf", inline, work)
                    else:
                        with rec.task(ids, "leaf", inline) as tid:
                            rec.charge(work)
                    ids.append(tid)
                return ids

            if root:
                ids = leaves()
            else:
                with rec.task(label="root"):
                    rec.charge(1.25)
                    ids = leaves()
            return ids, rec.graph().tasks, sink.events, sink.counters

        assert record(fused=True) == record(fused=False)
        with pytest.raises(ValueError):
            TaskRecorder().record_leaf((), "leaf", False, -1.0)


class TestSchedulerEvents:
    def test_event_schema(self):
        graph = fanout_graph()
        sink = TraceSink()
        result = WorkStealingScheduler(FAST, sink=sink).run(graph, workers=2)
        kinds = [e["kind"] for e in sink.events]
        assert kinds[0] == "run_begin"
        assert kinds[-1] == "run_end"
        starts = sink.events_of("task_start")
        finishes = sink.events_of("task_finish")
        assert len(starts) == len(finishes) == len(graph)
        assert {e["task"] for e in starts} == set(range(len(graph)))
        for event in starts:
            assert set(event) == {"kind", "t", "worker", "task", "label"}
        end = sink.events_of("run_end")[0]
        assert end["makespan"] == result.makespan
        assert end["steals"] == result.steals

    def test_steal_events_match_result(self):
        graph = fanout_graph(count=16)
        sink = TraceSink()
        result = WorkStealingScheduler(MACHINES["xeon8"], sink=sink).run(graph)
        assert len(sink.events_of("steal")) == result.steals
        for event in sink.events_of("steal"):
            assert event["thief"] != event["victim"]

    def test_idle_busy_transitions_pair_up(self):
        graph = fanout_graph(count=8)
        sink = TraceSink()
        WorkStealingScheduler(FAST, sink=sink).run(graph, workers=3)
        for worker in range(3):
            states = [
                e["kind"]
                for e in sink.events
                if e["kind"] in ("idle", "busy") and e["worker"] == worker
            ]
            # strictly alternating, starting busy (workers begin idle)
            for a, b in zip(states, states[1:]):
                assert a != b
            if states:
                assert states[0] == "busy"

    def test_tracing_does_not_perturb_schedule(self):
        graph = fanout_graph(count=12, work=7.0)
        machine = MACHINES["niagara"]
        bare = WorkStealingScheduler(machine, seed=5).run(graph, workers=4)
        sink = TraceSink()
        traced = WorkStealingScheduler(machine, seed=5).run(
            graph, workers=4, sink=sink
        )
        assert bare == traced

    def test_run_sink_overrides_instance_sink(self):
        graph = fanout_graph()
        instance_sink = TraceSink()
        run_sink = TraceSink()
        WorkStealingScheduler(FAST, sink=instance_sink).run(
            graph, workers=2, sink=run_sink
        )
        assert instance_sink.events == []
        assert run_sink.events_of("run_begin")

    def test_deque_depth_histogram_recorded(self):
        sink = TraceSink()
        WorkStealingScheduler(FAST, sink=sink).run(fanout_graph(), workers=2)
        assert sink.histograms["scheduler.deque_depth"].count > 0
        assert sink.histograms["scheduler.task_duration"].count == 7
