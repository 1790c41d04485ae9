"""Tasks, task graphs, and the recorder used by generated code.

The generated (dynamic-mode) code of a PetaBricks program does not execute
work directly: it creates *tasks* with dependency edges and feeds them to
the work-stealing scheduler (paper §3.2).  In this reproduction the
program logic executes eagerly in a valid sequential order for
*correctness*, while a :class:`TaskRecorder` captures the task graph the
generated code would have produced — every spawned task, its abstract work,
its dependency edges, and the spawn tree.  The scheduler
(:mod:`repro.runtime.scheduler`) then replays that graph on a simulated
machine to obtain parallel timings.

A task below the sequential cutoff is *inlined*: its work is charged to
the task that would have spawned it and no scheduling overhead is paid.
This models the paper's dual sequential/dynamic code versions.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (observe -> runtime)
    from repro.observe.trace import TraceSink


@dataclass(slots=True)
class Task:
    """One schedulable unit of work.

    Attributes:
        tid: dense integer id (spawn order).
        work: abstract work units executed by the task body (inlined
            descendants included).
        deps: ids of tasks that must complete before this one may run.
        parent: id of the spawning task (None for roots).
        label: diagnostic tag (rule name, region, ...).
        spawns: number of child tasks this task pushed (each costs
            ``machine.spawn_time`` at simulation).
    """

    tid: int
    work: float = 0.0
    deps: Tuple[int, ...] = ()
    parent: Optional[int] = None
    label: str = ""
    spawns: int = 0


class TaskGraph:
    """An immutable DAG of tasks plus the spawn tree."""

    def __init__(self, tasks: Sequence[Task]) -> None:
        self.tasks: Tuple[Task, ...] = tuple(tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def total_work(self) -> float:
        """Sum of all task work: the sequential execution time in work
        units (no scheduling overhead)."""
        return sum(task.work for task in self.tasks)

    def critical_path(self) -> float:
        """Longest work-weighted path through dependency + spawn edges:
        the span (T_inf) of the computation."""
        finish: List[float] = []
        for task in self.tasks:  # tasks are recorded in topological order
            finish.append(finish_time(task, finish, self.tasks))
        return max(finish, default=0.0)

    def validate(self) -> None:
        """Check topological recording order and edge sanity."""
        seen = set()
        for task in self.tasks:
            for dep in task.deps:
                if dep not in seen:
                    raise ValueError(
                        f"task {task.tid} depends on later/unknown task {dep}"
                    )
            if task.parent is not None and task.parent not in seen:
                raise ValueError(
                    f"task {task.tid} spawned by unknown task {task.parent}"
                )
            if task.work < 0:
                raise ValueError(f"task {task.tid} has negative work")
            seen.add(task.tid)


def finish_time(task: Task, finish: Sequence[float], tasks: Sequence[Task]) -> float:
    """When ``task`` ends on an unbounded machine, given ``finish`` of
    every task before it (indexed by id): after its dependencies, and
    no earlier than its spawner started.  The span's one formula, for
    :meth:`TaskGraph.critical_path` and the scheduler's setup pass."""
    start = 0.0
    for dep in task.deps:
        start = max(start, finish[dep])
    if task.parent is not None:
        # a child cannot start before its spawner has started;
        # approximate with the parent's start (parent work may
        # continue after the spawn).
        start = max(start, finish[task.parent] - tasks[task.parent].work)
    return start + task.work


class TaskRecorder:
    """Builds a :class:`TaskGraph` while generated code runs.

    Usage::

        recorder = TaskRecorder()
        with recorder.task(label="root") as root:
            recorder.charge(50)                  # work in the current task
            with recorder.task(deps=[...]):      # a spawned child
                recorder.charge(500)
        graph = recorder.graph()

    ``charge`` adds work to the innermost open task.  When ``inline=True``
    (below the sequential cutoff) ``task`` does not create a node: the
    block's work accumulates into the enclosing task, modelling the
    sequential code path.  ``task`` is the ``with`` form of
    :meth:`open`/:meth:`close`, the pair the execution engine calls
    directly; ``task`` closes its scope when the body raises too, while
    the engine leaves its scopes open (a failed run's recorder is
    discarded, not unwound).
    """

    def __init__(self, sink: Optional["TraceSink"] = None) -> None:
        self._tasks: List[Task] = []
        self._stack: List[int] = []
        #: optional observability sink; None (the default) costs one
        #: ``is None`` test per recorded task and nothing else.
        self.sink = sink

    # -- recording ---------------------------------------------------------

    def charge(self, work: float) -> None:
        """Add abstract work units to the innermost open task."""
        if work < 0:
            raise ValueError("work must be non-negative")
        if not self._stack:
            raise RuntimeError("charge() outside any open task")
        self._tasks[self._stack[-1]].work += work
        if self.sink is not None:
            self.sink.count("recorder.work_charged", work)

    def open(
        self, deps: Iterable[int] = (), label: str = "", inline: bool = False
    ) -> int:
        """Open a task scope and return its id; :meth:`close` ends it.

        ``deps`` are ids of previously closed tasks.  With ``inline=True``
        no node is created: the scope re-opens the innermost open task,
        so its work and children fold into it (once sequential,
        everything below stays sequential, paper §3.2); with nothing
        open to fold into it is promoted to a real root task.
        """
        stack = self._stack
        if inline and stack:
            tid = stack[-1]
            if self.sink is not None:
                self.sink.count("recorder.inlined")
        else:
            tid = self._append(tuple(deps), label, 0.0)
        stack.append(tid)
        return tid

    def close(self, tid: int) -> None:
        """Close the innermost open scope, which :meth:`open` returned
        ``tid`` for."""
        if not self._stack or self._stack[-1] != tid:
            raise RuntimeError("task scopes closed out of order")
        self._stack.pop()

    @contextlib.contextmanager
    def task(
        self,
        deps: Iterable[int] = (),
        label: str = "",
        inline: bool = False,
    ) -> Iterator[int]:
        """:meth:`open`, then :meth:`close` when the body returns or
        raises, as a context manager yielding the task id."""
        tid = self.open(deps, label, inline)
        try:
            yield tid
        finally:
            self.close(tid)

    def record_leaf(
        self, deps: Iterable[int], label: str, inline: bool, work: float
    ) -> int:
        """``with self.task(deps, label, inline): self.charge(work)`` as
        one call, for a scope that has already run and opened no task of
        its own: same task, same sink traffic.  Returns the id the
        ``with`` would yield."""
        if work < 0:
            raise ValueError("work must be non-negative")
        stack, sink = self._stack, self.sink
        if inline and stack:
            tid = stack[-1]
            if sink is not None:
                sink.count("recorder.inlined")
            self._tasks[tid].work += work
        else:  # appended closed; 0.0 + work is what a charge would add
            tid = self._append(tuple(deps), label, 0.0 + work)
        if sink is not None:
            sink.count("recorder.work_charged", work)
        return tid

    def _append(self, deps: Tuple[int, ...], label: str, work: float) -> int:
        """Record a task under the innermost open one, without opening
        it; the sink sees it as recorded."""
        tid = len(self._tasks)
        parent = self._stack[-1] if self._stack else None
        self._tasks.append(Task(tid, work, deps, parent, label))
        if parent is not None:
            self._tasks[parent].spawns += 1
        if self.sink is not None:
            self.sink.count("recorder.tasks")
            self.sink.emit(
                "task_recorded",
                task=tid,
                parent=parent,
                deps=len(deps),
                label=label,
            )
        return tid

    # -- output ------------------------------------------------------------

    def graph(self) -> TaskGraph:
        """The recorded task graph (recorder must be fully unwound)."""
        if self._stack:
            raise RuntimeError("graph() called with open task scopes")
        graph = TaskGraph(self._tasks)
        graph.validate()
        return graph
