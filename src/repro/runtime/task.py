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

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (observe -> runtime)
    from repro.observe.trace import TraceSink


@dataclass
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
        #: spawn tree, built by the first ``children_of`` — only the
        #: scheduler simulation reads it, most recorded graphs never are
        self._children: Optional[Dict[int, List[int]]] = None

    def __len__(self) -> int:
        return len(self.tasks)

    def children_of(self, tid: int) -> Tuple[int, ...]:
        children = self._children
        if children is None:
            children = {}
            for task in self.tasks:
                if task.parent is not None:
                    children.setdefault(task.parent, []).append(task.tid)
            self._children = children
        return tuple(children.get(tid, ()))

    def total_work(self) -> float:
        """Sum of all task work: the sequential execution time in work
        units (no scheduling overhead)."""
        return sum(task.work for task in self.tasks)

    def critical_path(self) -> float:
        """Longest work-weighted path through dependency + spawn edges:
        the span (T_inf) of the computation."""
        finish: Dict[int, float] = {}
        for task in self.tasks:  # tasks are recorded in topological order
            start = 0.0
            for dep in task.deps:
                start = max(start, finish.get(dep, 0.0))
            if task.parent is not None:
                # a child cannot start before its spawner has started;
                # approximate with the parent's start (parent work may
                # continue after the spawn).
                parent = self.tasks[task.parent]
                parent_start = finish.get(parent.tid, parent.work) - parent.work
                start = max(start, parent_start)
            finish[task.tid] = start + task.work
        return max(finish.values(), default=0.0)

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


class TaskRecorder:
    """Builds a :class:`TaskGraph` while generated code runs.

    Usage from the execution engine::

        recorder = TaskRecorder()
        with recorder.task(label="root") as root:
            recorder.charge(50)                  # work in the current task
            with recorder.task(deps=[...]):      # a spawned child
                recorder.charge(500)
        graph = recorder.graph()

    ``charge`` adds work to the innermost open task.  When ``inline=True``
    (below the sequential cutoff) ``task`` does not create a node: the
    block's work accumulates into the enclosing task, modelling the
    sequential code path.
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

    def task(
        self,
        deps: Iterable[int] = (),
        label: str = "",
        inline: bool = False,
    ) -> "_TaskContext":
        """Open a task scope (a context manager yielding the task id).

        ``deps`` are ids of previously closed tasks.  With ``inline=True``
        no node is created and the scope's work folds into the parent.
        """
        return _TaskContext(self, tuple(deps), label, inline)

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

    def current_task(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    # -- internals used by _TaskContext -------------------------------------

    def _open(self, deps: Tuple[int, ...], label: str) -> int:
        tid = self._append(deps, label, 0.0)
        self._stack.append(tid)
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

    def _close(self, tid: int) -> None:
        if not self._stack or self._stack[-1] != tid:
            raise RuntimeError("task scopes closed out of order")
        self._stack.pop()

    # -- output ------------------------------------------------------------

    def graph(self) -> TaskGraph:
        """The recorded task graph (recorder must be fully unwound)."""
        if self._stack:
            raise RuntimeError("graph() called with open task scopes")
        graph = TaskGraph(self._tasks)
        graph.validate()
        return graph


class _TaskContext:
    """Context manager for one task scope (see :meth:`TaskRecorder.task`)."""

    __slots__ = ("_recorder", "_deps", "_label", "_inline", "tid")

    def __init__(
        self,
        recorder: TaskRecorder,
        deps: Tuple[int, ...],
        label: str,
        inline: bool,
    ) -> None:
        self._recorder = recorder
        self._deps = deps
        self._label = label
        # Inline when requested, or when nested inside an inlined scope
        # with no recorder stack to attach to: once sequential, everything
        # below stays sequential (paper §3.2).
        self._inline = inline
        self.tid: Optional[int] = None

    def __enter__(self) -> Optional[int]:
        recorder = self._recorder
        if self._inline and recorder._stack:
            if recorder.sink is not None:
                recorder.sink.count("recorder.inlined")
            return recorder._stack[-1]
        if self._inline and not recorder._stack:
            # Nothing to inline into: promote to a real root task.
            self._inline = False
        self.tid = recorder._open(self._deps, self._label)
        return self.tid

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._inline:
            assert self.tid is not None
            self._recorder._close(self.tid)
