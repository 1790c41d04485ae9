"""Deterministic stress harness for the work-stealing scheduler.

:func:`random_task_graph` generates seeded random task graphs in the
shapes the runtime must handle — wide fan-out, fan-in joins, diamond
chains, deep dependency chains, parent-gated spawn trees, and mixed
random DAGs (including zero-work tasks and inlined scopes).
:func:`check_invariants` simulates one graph twice under tracing and
asserts the scheduler invariants that the theory of §3.2/§3.4 promises:

1. **No deadlock** — the simulation completes and every task finishes.
2. **Exactly-once execution** — each task has exactly one ``task_start``
   and one ``task_finish`` event.
3. **Determinism** — the same (graph, machine, workers, seed) produces a
   byte-identical JSONL trace and an equal :class:`ScheduleResult`.
4. **No steals on one worker** — with ``workers=1`` there is no victim.
5. **Work conservation** — summed busy time equals sequential work plus
   spawn overhead, steal overhead is exactly ``steals * steal_time``,
   and total busy time never exceeds ``makespan * workers``.
6. **Greedy bound** — ``makespan <= T1'/P + c * Tinf'`` where ``T1'`` is
   total busy time (work + spawn + steal overhead) and ``Tinf'`` is the
   span over dependency and parent-gating edges with each node charged
   its duration plus one steal.  A greedy scheduler satisfies c = 1;
   the default leaves a small margin for float accumulation.

Dependency ordering (every task starts only after its deps and its
spawning parent have finished) is asserted as well — it is implied by
the simulation but cheap to check from the trace.

The fault-tolerance layer has a sibling harness,
:mod:`repro.faults.harness`, which plays the same role for the parallel
tuning loop and the serve daemon: seeded fault plans instead of seeded
task graphs, one ``sweep`` over injector seeds, and the recovery-parity
and serving invariants instead of the scheduler invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.observe.trace import TraceSink
from repro.runtime.machine import Machine
from repro.runtime.scheduler import ScheduleResult, WorkStealingScheduler
from repro.runtime.task import TaskGraph, TaskRecorder

import random

#: graph shapes the generator knows how to build.
SHAPES: Tuple[str, ...] = (
    "fanout",
    "fanin",
    "diamond",
    "chain",
    "parent_gated",
    "random",
)


# -- random graph generation -----------------------------------------------


def _gen_fanout(rec: TaskRecorder, rng: random.Random, budget: int) -> None:
    with rec.task(label="root"):
        rec.charge(rng.uniform(0, 20))
        for k in range(min(budget - 1, rng.randint(2, 24))):
            with rec.task(label=f"leaf{k}"):
                rec.charge(rng.uniform(1, 100))


def _gen_fanin(rec: TaskRecorder, rng: random.Random, budget: int) -> None:
    with rec.task(label="root"):
        produced: List[int] = []
        for k in range(min(budget - 2, rng.randint(2, 16))):
            with rec.task(label=f"prod{k}") as tid:
                rec.charge(rng.uniform(1, 50))
            produced.append(tid)
        with rec.task(deps=produced, label="join"):
            rec.charge(rng.uniform(1, 50))


def _gen_diamond(rec: TaskRecorder, rng: random.Random, budget: int) -> None:
    with rec.task(label="root"):
        prev: Optional[int] = None
        for k in range(rng.randint(1, 8)):
            if len(rec._tasks) + 6 > budget:
                break
            deps = [prev] if prev is not None else []
            with rec.task(deps=deps, label=f"top{k}") as top:
                rec.charge(rng.uniform(1, 20))
            mids: List[int] = []
            for j in range(rng.randint(2, 4)):
                with rec.task(deps=[top], label=f"mid{k}.{j}") as mid:
                    rec.charge(rng.uniform(1, 40))
                mids.append(mid)
            with rec.task(deps=mids, label=f"bot{k}") as bot:
                rec.charge(rng.uniform(1, 20))
            prev = bot


def _gen_chain(rec: TaskRecorder, rng: random.Random, budget: int) -> None:
    with rec.task(label="root"):
        prev: Optional[int] = None
        for k in range(min(budget - 1, rng.randint(8, 40))):
            deps = [prev] if prev is not None else []
            with rec.task(deps=deps, label=f"link{k}") as tid:
                rec.charge(rng.uniform(1, 30))
            prev = tid


def _gen_parent_gated(rec: TaskRecorder, rng: random.Random, budget: int) -> None:
    def grow(depth: int) -> None:
        rec.charge(rng.uniform(1, 30))
        if depth == 0:
            return
        for _ in range(rng.randint(1, 3)):
            if len(rec._tasks) >= budget:
                return
            with rec.task(label=f"node@{depth}"):
                grow(depth - 1)

    with rec.task(label="root"):
        grow(rng.randint(2, 4))


def _gen_random(rec: TaskRecorder, rng: random.Random, budget: int) -> None:
    closed: List[int] = []

    def grow(depth: int) -> None:
        rec.charge(rng.uniform(0, 10))  # zero-work tasks are legal
        if depth == 0:
            return
        for _ in range(rng.randint(1, 5)):
            if len(rec._tasks) >= budget:
                return
            dep_count = min(len(closed), rng.randint(0, 2))
            deps = rng.sample(closed, dep_count) if dep_count else []
            inline = rng.random() < 0.15
            with rec.task(deps=deps, inline=inline, label=f"r@{depth}") as tid:
                grow(depth - 1)
            if not inline:
                closed.append(tid)

    with rec.task(label="root"):
        grow(3)


_GENERATORS: Dict[str, Callable[[TaskRecorder, random.Random, int], None]] = {
    "fanout": _gen_fanout,
    "fanin": _gen_fanin,
    "diamond": _gen_diamond,
    "chain": _gen_chain,
    "parent_gated": _gen_parent_gated,
    "random": _gen_random,
}


def random_task_graph(
    seed: int,
    shape: Optional[str] = None,
    max_tasks: int = 64,
    sink: Optional[TraceSink] = None,
) -> TaskGraph:
    """A seeded random task graph; ``shape=None`` picks one from the seed."""
    rng = random.Random(seed)
    if shape is None:
        shape = SHAPES[rng.randrange(len(SHAPES))]
    try:
        generator = _GENERATORS[shape]
    except KeyError:
        raise ValueError(f"unknown shape {shape!r}; one of {SHAPES}") from None
    rec = TaskRecorder(sink=sink)
    generator(rec, rng, max_tasks)
    graph = rec.graph()
    graph.validate()
    return graph


# -- invariants ------------------------------------------------------------


def augmented_span(
    graph: TaskGraph, machine: Machine, include_steal: bool = True
) -> float:
    """Span (critical path) under the simulator's real precedence rules.

    Edges are dependency edges plus parent-*finish* gating (a child is
    enabled only once its spawner completed); each node costs its full
    simulated duration (compute + spawn overhead), plus one steal if
    ``include_steal`` — the worst case for a ready critical task to be
    picked up by an idle worker.
    """
    finish: Dict[int, float] = {}
    best = 0.0
    for task in graph.tasks:
        duration = machine.compute_time(task.work)
        duration += task.spawns * machine.spawn_time
        if include_steal:
            duration += machine.steal_time
        start = 0.0
        for dep in task.deps:
            start = max(start, finish[dep])
        if task.parent is not None:
            start = max(start, finish[task.parent])
        finish[task.tid] = start + duration
        best = max(best, finish[task.tid])
    return best


@dataclass
class InvariantReport:
    """Everything :func:`check_invariants` measured for one graph."""

    result: ScheduleResult
    trace: TraceSink
    busy_time: float
    steal_time: float
    span_bound: float
    greedy_bound: float


def _tolerance(magnitude: float) -> float:
    return 1e-6 * max(1.0, magnitude)


def check_invariants(
    graph: TaskGraph,
    machine: Machine,
    workers: int,
    seed: int = 0x5EED,
    greedy_constant: float = 1.0 + 1e-9,
) -> InvariantReport:
    """Run ``graph`` twice under tracing and assert all invariants.

    Raises AssertionError (with a descriptive message) on any violation;
    returns the measurements on success.
    """
    sink = TraceSink()
    result = WorkStealingScheduler(machine, seed=seed).run(
        graph, workers=workers, sink=sink
    )
    rerun_sink = TraceSink()
    rerun = WorkStealingScheduler(machine, seed=seed).run(
        graph, workers=workers, sink=rerun_sink
    )

    n = len(graph)
    starts: Dict[int, float] = {}
    finishes: Dict[int, float] = {}
    start_counts: Dict[int, int] = {}
    finish_counts: Dict[int, int] = {}
    for event in sink.events:
        kind = event["kind"]
        if kind == "task_start":
            tid = event["task"]
            starts[tid] = event["t"]
            start_counts[tid] = start_counts.get(tid, 0) + 1
        elif kind == "task_finish":
            tid = event["task"]
            finishes[tid] = event["t"]
            finish_counts[tid] = finish_counts.get(tid, 0) + 1

    # 1. No deadlock: run() raises on deadlock; double-check completion.
    assert result.tasks == n, f"scheduled {result.tasks} of {n} tasks"
    assert len(finishes) == n, "some tasks never emitted task_finish"
    assert math.isfinite(result.makespan), "non-finite makespan"

    # 2. Every task runs exactly once.
    for task in graph.tasks:
        assert start_counts.get(task.tid, 0) == 1, (
            f"task {task.tid} started {start_counts.get(task.tid, 0)} times"
        )
        assert finish_counts.get(task.tid, 0) == 1, (
            f"task {task.tid} finished {finish_counts.get(task.tid, 0)} times"
        )

    # 3. Same seed => identical trace and result.
    assert rerun == result, "re-run with same seed produced different result"
    assert rerun_sink.to_jsonl() == sink.to_jsonl(), (
        "re-run with same seed produced a different trace"
    )

    # 4. A single worker has nobody to steal from.
    if workers == 1:
        assert result.steals == 0, f"{result.steals} steals with one worker"
    assert len(sink.events_of("steal")) == result.steals, (
        "steal events disagree with ScheduleResult.steals"
    )

    # 5. Work conservation.
    busy = sum(finishes[tid] - starts[tid] for tid in finishes)
    total_spawns = sum(task.spawns for task in graph.tasks)
    expected_busy = result.sequential_time + total_spawns * machine.spawn_time
    assert abs(busy - expected_busy) <= _tolerance(expected_busy), (
        f"busy time {busy} != work + spawn overhead {expected_busy}"
    )
    steal_busy = result.steals * machine.steal_time
    capacity = result.makespan * workers
    assert busy + steal_busy <= capacity + _tolerance(capacity), (
        f"busy {busy} + steal {steal_busy} exceeds capacity {capacity}"
    )

    # 6. Greedy scheduling bound: makespan <= T1'/P + c * Tinf'.
    span = augmented_span(graph, machine, include_steal=True)
    t1 = expected_busy + steal_busy
    bound = t1 / workers + greedy_constant * span
    assert result.makespan <= bound + _tolerance(bound), (
        f"makespan {result.makespan} violates greedy bound {bound} "
        f"(T1'={t1}, P={workers}, Tinf'={span})"
    )
    # ... and the matching lower bounds.
    assert result.makespan + _tolerance(capacity) >= (busy + steal_busy) / workers
    assert result.makespan + _tolerance(result.critical_path) >= result.critical_path

    # Dependency ordering (implied, but cheap to confirm from the trace).
    for task in graph.tasks:
        for dep in task.deps:
            assert starts[task.tid] >= finishes[dep] - 1e-9, (
                f"task {task.tid} started before dependency {dep} finished"
            )
        if task.parent is not None:
            assert starts[task.tid] >= finishes[task.parent] - 1e-9, (
                f"task {task.tid} started before parent {task.parent} finished"
            )

    return InvariantReport(
        result=result,
        trace=sink,
        busy_time=busy,
        steal_time=steal_busy,
        span_bound=span,
        greedy_bound=bound,
    )
