"""Work-stealing scheduler, run as a deterministic discrete-event simulation.

Faithful to the runtime described in paper §3.2/§3.4:

* one deque per worker; the owner treats the top as a stack (push/pop
  newest — depth-first order, maximizing locality),
* an idle worker selects a random victim and steals the *oldest* task
  from the bottom of the victim's deque (stealing the outermost
  continuation, Cilk-style THE protocol),
* a task becomes schedulable only when its spawner has finished and all
  of its dependency edges are satisfied; the worker that satisfies the
  last dependency pushes the task onto its own deque (no barriers),
* spawning costs ``machine.spawn_time`` per child (paid by the spawner)
  and each successful steal costs ``machine.steal_time``; the purely
  sequential code path pays neither.

Because CPython cannot exhibit real multicore speedup, the scheduler runs
over *recorded* task graphs (see :mod:`repro.runtime.task`) in simulated
time.  The simulation is event-driven and fully deterministic given the
RNG seed, so autotuning decisions are reproducible.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, List, Optional, Set

from repro.runtime.machine import Machine
from repro.runtime.task import TaskGraph, finish_time

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (observe -> runtime)
    from repro.observe.trace import TraceSink


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating a task graph on a machine.

    Attributes:
        makespan: simulated parallel completion time.
        sequential_time: time the pure sequential code path would take
            (total work x cycle_time, zero scheduling overhead).
        total_work: sum of task work units.
        critical_path: span (T_inf) in simulated time units.
        steals: number of successful steals.
        tasks: number of scheduled tasks.
        workers: worker count used.
    """

    makespan: float
    sequential_time: float
    total_work: float
    critical_path: float
    steals: int
    tasks: int
    workers: int

    @property
    def speedup(self) -> float:
        """Sequential time over parallel makespan."""
        if self.makespan == 0:
            return 1.0
        return self.sequential_time / self.makespan

    @property
    def utilization(self) -> float:
        """Fraction of worker-time spent on useful work."""
        if self.makespan == 0:
            return 1.0
        return self.sequential_time / (self.makespan * self.workers)


class WorkStealingScheduler:
    """Simulates the PetaBricks dynamic scheduler on a :class:`Machine`."""

    def __init__(
        self,
        machine: Machine,
        seed: int = 0x5eed,
        sink: Optional["TraceSink"] = None,
    ) -> None:
        self.machine = machine
        self.seed = seed
        #: optional observability sink (see :mod:`repro.observe.trace`);
        #: when None the simulation pays only an ``is None`` test per event
        #: site, so tracing is zero-cost unless requested.
        self.sink = sink

    def run(
        self,
        graph: TaskGraph,
        workers: Optional[int] = None,
        sink: Optional["TraceSink"] = None,
    ) -> ScheduleResult:
        """Simulate ``graph`` on ``workers`` cores (default: all cores).

        ``sink`` overrides the scheduler's own sink for this run.
        Tracing never perturbs the schedule: the event stream is derived
        from the same deterministic simulation, so results with and
        without a sink are identical.
        """
        machine = self.machine
        trace = sink if sink is not None else self.sink
        worker_count = machine.cores if workers is None else workers
        if worker_count < 1:
            raise ValueError("need at least one worker")

        tasks = graph.tasks
        total_work = graph.total_work()
        if not tasks:
            return ScheduleResult(
                makespan=0.0,
                sequential_time=0.0,
                total_work=0.0,
                critical_path=0.0,
                steals=0,
                tasks=0,
                workers=worker_count,
            )

        # Per task, indexed by tid, in one pass over the recorded
        # (topological) order: what running it costs its worker, its
        # unmet dependency edges, whether its spawner is still running,
        # the tasks waiting on it, the tasks it spawned, and when it
        # would finish on unboundedly many workers (the span's terms).
        durations: List[float] = []
        pending_deps: List[int] = []
        gated: List[bool] = []
        dependents: List[List[int]] = [[] for _ in tasks]
        children: List[List[int]] = [[] for _ in tasks]
        finish: List[float] = []
        compute_time, spawn_time = machine.compute_time, machine.spawn_time
        for task in tasks:
            durations.append(compute_time(task.work) + task.spawns * spawn_time)
            pending_deps.append(len(task.deps))
            for dep in task.deps:
                dependents[dep].append(task.tid)
            gated.append(task.parent is not None)
            if task.parent is not None:
                children[task.parent].append(task.tid)
            finish.append(finish_time(task, finish, tasks))

        deques: List[Deque[int]] = [deque() for _ in range(worker_count)]
        queued = 0  # tasks on all deques together
        idle: Set[int] = set(range(worker_count))
        finished = 0
        steals = 0
        makespan = 0.0
        rng: Optional[random.Random] = None  # built at the first steal
        # Per-worker idle/busy state mirrored for transition events only.
        was_idle = [True] * worker_count if trace is not None else None

        if trace is not None:
            trace.count("scheduler.runs")
            trace.emit(
                "run_begin",
                t=0.0,
                machine=machine.name,
                workers=worker_count,
                tasks=len(tasks),
                total_work=total_work,
            )

        # Event heap of (time, sequence, worker, task) completions.
        events: List = []
        seq = 0

        def push(worker: int, tid: int, now: float = 0.0) -> None:
            nonlocal queued
            deques[worker].append(tid)
            queued += 1
            if trace is not None:
                trace.count("scheduler.pushes")
                trace.observe("scheduler.deque_depth", len(deques[worker]))
                trace.emit(
                    "spawn",
                    t=now,
                    worker=worker,
                    task=tid,
                    depth=len(deques[worker]),
                )

        def start(worker: int, tid: int, now: float) -> None:
            nonlocal seq
            duration = durations[tid]
            idle.discard(worker)
            seq += 1
            heapq.heappush(events, (now + duration, seq, worker, tid))
            if trace is not None:
                if was_idle[worker]:
                    was_idle[worker] = False
                    trace.emit("busy", t=now, worker=worker)
                trace.count("scheduler.tasks_started")
                trace.observe("scheduler.task_duration", duration)
                trace.emit(
                    "task_start",
                    t=now,
                    worker=worker,
                    task=tid,
                    label=tasks[tid].label,
                )

        def try_dispatch(worker: int, now: float) -> bool:
            """Give an idle worker something to run; True on success."""
            nonlocal steals, queued, rng
            if not queued:
                return False
            queued -= 1
            if deques[worker]:
                start(worker, deques[worker].pop(), now)  # LIFO: own top
                return True
            # Some other deque holds a task: steal it.
            victims = [
                w for w in range(worker_count) if w != worker and deques[w]
            ]
            if rng is None:
                rng = random.Random(self.seed)
            victim = rng.choice(victims)
            stolen = deques[victim].popleft()  # FIFO end: oldest task
            steals += 1
            if trace is not None:
                trace.count("scheduler.steals")
                trace.emit(
                    "steal", t=now, thief=worker, victim=victim, task=stolen
                )
            start(worker, stolen, now + machine.steal_time)
            return True

        def mark_idle_transitions(now: float) -> None:
            """Emit idle events for workers that failed to find work."""
            for worker in idle:
                if not was_idle[worker]:
                    was_idle[worker] = True
                    trace.emit("idle", t=now, worker=worker)

        # Seed: enabled roots start on worker 0's deque (the main thread
        # creates the initial tasks).
        for task in tasks:
            if task.parent is None and pending_deps[task.tid] == 0:
                push(0, task.tid)
        for worker in sorted(idle):
            try_dispatch(worker, 0.0)

        while events:
            now, _, worker, tid = heapq.heappop(events)
            makespan = max(makespan, now)
            finished += 1
            if trace is not None:
                trace.count("scheduler.tasks_finished")
                trace.emit("task_finish", t=now, worker=worker, task=tid)

            # Children become spawnable once the parent finishes; newly
            # enabled tasks go on this worker's deque.  Reverse order puts
            # the first spawn on top so the owner executes depth-first in
            # program order.
            newly_ready: List[int] = []
            for child in children[tid]:
                gated[child] = False
                if pending_deps[child] == 0:
                    newly_ready.append(child)
            for dependent in dependents[tid]:
                pending_deps[dependent] -= 1
                if pending_deps[dependent] == 0 and not gated[dependent]:
                    newly_ready.append(dependent)
            for ready in reversed(newly_ready):
                push(worker, ready, now)

            idle.add(worker)
            # Wake idle workers (including this one): any that can take or
            # steal a task does so at the current time.  sorted() snapshots
            # the set; try_dispatch removes workers it occupies.
            if queued:
                for candidate in sorted(idle):
                    if candidate in idle:
                        try_dispatch(candidate, now)
            if trace is not None:
                mark_idle_transitions(now)

        if finished != len(tasks):
            raise RuntimeError(
                f"schedule deadlock: {len(tasks) - finished} tasks never ran"
            )

        if trace is not None:
            trace.emit(
                "run_end", t=makespan, makespan=makespan, steals=steals,
                tasks=finished,
            )

        return ScheduleResult(
            makespan=makespan,
            sequential_time=machine.compute_time(total_work),
            total_work=total_work,
            critical_path=compute_time(max(finish)),
            steals=steals,
            tasks=len(tasks),
            workers=worker_count,
        )
