"""Tests for the task recorder and the work-stealing schedule simulator."""

import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    MACHINES,
    Machine,
    ScheduleResult,
    TaskGraph,
    TaskRecorder,
    WorkStealingScheduler,
)
from repro.observe import TraceSink
from repro.observe.stress import SHAPES, random_task_graph
from repro.runtime.task import Task

FAST = Machine(
    name="test", cores=4, cycle_time=1.0, spawn_time=0.0, steal_time=0.0
)


def record_fanout(count: int, work: float) -> TaskGraph:
    rec = TaskRecorder()
    with rec.task(label="root"):
        for k in range(count):
            with rec.task(label=f"leaf{k}"):
                rec.charge(work)
    return rec.graph()


class TestRecorder:
    def test_simple_graph(self):
        graph = record_fanout(3, 10.0)
        assert len(graph) == 4
        assert graph.total_work() == 30.0
        root = graph.tasks[0]
        assert root.spawns == 3
        assert [task.parent for task in graph.tasks] == [None, 0, 0, 0]

    def test_charge_outside_task_rejected(self):
        rec = TaskRecorder()
        with pytest.raises(RuntimeError):
            rec.charge(1.0)

    def test_negative_work_rejected(self):
        rec = TaskRecorder()
        with rec.task():
            with pytest.raises(ValueError):
                rec.charge(-1.0)

    def test_with_form_closes_its_scopes_when_the_body_raises(self):
        rec = TaskRecorder()
        with pytest.raises(KeyError):
            with rec.task(label="root"):
                with rec.task(label="child", inline=True):
                    raise KeyError("body")
        with rec.task(label="after"):
            rec.charge(1.0)
        graph = rec.graph()
        assert [task.label for task in graph.tasks] == ["root", "after"]
        assert graph.tasks[1].parent is None

    def test_deps_recorded(self):
        rec = TaskRecorder()
        with rec.task() as root:
            with rec.task() as a:
                rec.charge(5)
            with rec.task(deps=[a]) as b:
                rec.charge(5)
        graph = rec.graph()
        assert graph.tasks[b].deps == (a,)

    def test_inline_folds_work_into_parent(self):
        rec = TaskRecorder()
        with rec.task() as root:
            with rec.task(inline=True):
                rec.charge(42)
        graph = rec.graph()
        assert len(graph) == 1
        assert graph.tasks[root].work == 42
        assert graph.tasks[root].spawns == 0

    def test_inline_at_top_level_promotes(self):
        rec = TaskRecorder()
        with rec.task(inline=True):
            rec.charge(7)
        assert len(rec.graph()) == 1

    def test_graph_with_open_scope_rejected(self):
        rec = TaskRecorder()
        ctx = rec.task()
        ctx.__enter__()
        with pytest.raises(RuntimeError):
            rec.graph()

    def test_forward_dep_rejected(self):
        graph_tasks = [Task(tid=0, deps=(1,)), Task(tid=1)]
        with pytest.raises(ValueError):
            TaskGraph(graph_tasks).validate()

    @pytest.mark.parametrize("tasks,message", [
        ([Task(0, deps=(1,)), Task(1)], "task 0 depends on later/unknown task 1"),
        ([Task(0), Task(1, deps=(1,))], "task 1 depends on later/unknown task 1"),
        ([Task(0), Task(1, deps=(-1,))], "task 1 depends on later/unknown task -1"),
        ([Task(0), Task(1, parent=2), Task(2)], "task 1 spawned by unknown task 2"),
        ([Task(0, parent=-1)], "task 0 spawned by unknown task -1"),
        ([Task(0), Task(1, work=-0.5)], "task 1 has negative work"),
        ([Task(0), Task(5), Task(6, deps=(3,))],
         "task 6 depends on later/unknown task 3"),
        ([Task(0), Task(5), Task(7, parent=6)], "task 7 spawned by unknown task 6"),
    ], ids=["forward-dep", "self-dep", "negative-dep", "unknown-parent",
            "negative-parent", "negative-work", "non-dense-dep",
            "non-dense-parent"])
    def test_validate_rejects_with_its_message(self, tasks, message):
        with pytest.raises(ValueError) as info:
            TaskGraph(tasks).validate()
        assert str(info.value) == message

    def test_validate_accepts_ids_that_are_not_dense(self):
        """Ids need not be indices: a dep or parent is known once a task
        with that id came before."""
        TaskGraph(
            [Task(0), Task(1, deps=(0,)), Task(5, parent=1), Task(6, deps=(5, 0))]
        ).validate()

    def test_critical_path_chain(self):
        rec = TaskRecorder()
        prev = None
        with rec.task():
            for _ in range(3):
                deps = [prev] if prev is not None else []
                with rec.task(deps=deps) as tid:
                    rec.charge(10)
                prev = tid
        assert rec.graph().critical_path() == 30.0


class TestScheduler:
    def test_empty_graph(self):
        result = WorkStealingScheduler(FAST).run(TaskGraph([]))
        assert result.makespan == 0.0
        assert result.speedup == 1.0

    def test_single_task(self):
        rec = TaskRecorder()
        with rec.task():
            rec.charge(100)
        result = WorkStealingScheduler(FAST).run(rec.graph())
        assert result.makespan == 100.0
        assert result.speedup == 1.0

    def test_perfect_fanout_scales(self):
        graph = record_fanout(8, 100.0)
        result = WorkStealingScheduler(FAST).run(graph, workers=4)
        # 800 work on 4 workers with zero overhead: makespan 200.
        assert result.makespan == 200.0
        assert result.speedup == pytest.approx(4.0)

    def test_chain_does_not_scale(self):
        rec = TaskRecorder()
        prev = None
        with rec.task():
            for _ in range(8):
                deps = [prev] if prev is not None else []
                with rec.task(deps=deps) as tid:
                    rec.charge(50)
                prev = tid
        result = WorkStealingScheduler(FAST).run(rec.graph(), workers=8)
        assert result.speedup == pytest.approx(1.0)

    def test_more_workers_never_slower_without_overhead(self):
        graph = record_fanout(16, 25.0)
        times = [
            WorkStealingScheduler(FAST).run(graph, workers=w).makespan
            for w in (1, 2, 4, 8)
        ]
        assert times == sorted(times, reverse=True)

    def test_spawn_overhead_penalizes_fine_grain(self):
        costly = Machine(
            name="costly", cores=4, cycle_time=1.0, spawn_time=50.0, steal_time=0.0
        )
        fine = record_fanout(64, 1.0)
        coarse = record_fanout(4, 16.0)
        sched = WorkStealingScheduler(costly)
        assert sched.run(coarse).makespan < sched.run(fine).makespan

    def test_sequential_time_excludes_overhead(self):
        graph = record_fanout(4, 10.0)
        result = WorkStealingScheduler(
            Machine("m", cores=2, cycle_time=2.0, spawn_time=99.0, steal_time=99.0)
        ).run(graph)
        assert result.sequential_time == 80.0

    def test_deterministic(self):
        graph = record_fanout(32, 7.0)
        sched = WorkStealingScheduler(MACHINES["xeon8"], seed=123)
        first = sched.run(graph)
        second = sched.run(graph)
        assert first == second

    def test_makespan_at_least_critical_path(self):
        rec = TaskRecorder()
        with rec.task():
            rec.charge(10)
            with rec.task() as a:
                rec.charge(100)
            with rec.task(deps=[a]):
                rec.charge(100)
            with rec.task():
                rec.charge(20)
        result = WorkStealingScheduler(FAST).run(rec.graph(), workers=4)
        assert result.makespan >= 210.0

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler(FAST).run(record_fanout(2, 1.0), workers=0)

    def test_dependencies_respected_across_workers(self):
        # b depends on a; even with steals, b must start after a finishes.
        rec = TaskRecorder()
        with rec.task():
            with rec.task() as a:
                rec.charge(100)
            with rec.task(deps=[a]):
                rec.charge(1)
        result = WorkStealingScheduler(FAST).run(rec.graph(), workers=4)
        assert result.makespan >= 101.0


    def test_every_schedule_matches_the_golden_table(self):
        """``tests/data/scheduler_golden.json`` holds every field of the
        :class:`ScheduleResult` of each stress-graph kind x seed x
        machine x worker count, as an earlier simulator loop computed
        them; the run, traced or not, reproduces each bit for bit."""
        path = pathlib.Path(__file__).parent / "data" / "scheduler_golden.json"
        golden = json.loads(path.read_text())
        seen = 0
        for shape in SHAPES:
            for seed in range(5):
                graph = random_task_graph(seed, shape)
                for name, machine in MACHINES.items():
                    for workers in (1, 2, 8):
                        scheduler = WorkStealingScheduler(machine, seed=seed)
                        result = scheduler.run(graph, workers=workers)
                        traced = scheduler.run(
                            graph, workers=workers, sink=TraceSink()
                        )
                        assert traced == result
                        key = f"{shape}/{seed}/{name}/{workers}"
                        assert list(dataclasses.astuple(result)) == golden[key]
                        seen += 1
        assert seen == len(golden) == 360
        assert sum(row[4] > 0 for row in golden.values()) > 100  # steals


class TestMachines:
    def test_profiles_exist(self):
        for name in ("xeon8", "xeon1", "mobile", "niagara"):
            assert name in MACHINES

    def test_with_cores(self):
        one_way = dataclasses.replace(MACHINES["xeon8"], cores=1)
        assert one_way.cores == 1
        assert one_way.cycle_time == MACHINES["xeon8"].cycle_time

    def test_niagara_slower_single_thread(self):
        assert MACHINES["niagara"].cycle_time > MACHINES["xeon8"].cycle_time

    def test_niagara_cheaper_relative_overhead(self):
        relative = lambda m: m.spawn_time / m.cycle_time
        assert relative(MACHINES["niagara"]) < relative(MACHINES["xeon8"])


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=1, max_size=30),
    st.integers(1, 8),
)
def test_work_conservation(works, workers):
    """Makespan is bounded below by work/P and above by sequential time
    plus scheduling overhead (zero-overhead machine => exactly bounded)."""
    rec = TaskRecorder()
    with rec.task():
        for w in works:
            with rec.task():
                rec.charge(w)
    graph = rec.graph()
    result = WorkStealingScheduler(FAST).run(graph, workers=workers)
    total = sum(works)
    assert result.makespan >= total / workers - 1e-9
    assert result.makespan <= total + 1e-9
