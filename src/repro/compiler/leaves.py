"""Execution: a frame replays its :class:`~repro.compiler.plan.RunPlan`
(paper §3.2, the runtime library under the generated code).

:func:`run_frame` looks the frame's plan up (building it on a miss),
guards the recursion and replays the plan: allocate the output and
``through`` matrices the plan lists, then run its groups in schedule
order — a whole-region rule once, an instance step through its leaf
(interpreter, closure kernel or vector step), the members of a lockstep
group one plane at a time, interleaved — recursing into other
transforms, each frame replaying its own plan, for calls in a body.
Every block or application is recorded as a task with its dependency
edges; below the tuned sequential cutoff tasks are inlined, the dual
code paths of §3.2.  Nothing is decided here that the plan could hold.

What a frame costs beyond its leaves: one keyed plan lookup per
distinct (transform, input shapes) per run — later frames of that shape
read the run's own table — one open/close pair per recorded task, and
no coercion of views a sibling call passes or returns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compiler.config import ChoiceConfig
from repro.compiler.ir import RegionIR, RuleIR
from repro.compiler.plan import Bounds, PlanStep, RunPlan, lockstep
from repro.language.errors import ExecutionError
from repro.language.interp import Scope, execute
from repro.runtime.matrix import Matrix, MatrixView
from repro.runtime.task import TaskRecorder

#: Simulated-work model for the vectorized leaf: one step charges
#: ``volume * (base_work + static_ops) * _VECTOR_WORK_FACTOR +
#: _VECTOR_STEP_WORK``.  The factor models the per-element speedup of
#: slice arithmetic over per-cell calls; the flat term models the fixed
#: slice-setup cost.  Together they make ``__leaf_path__`` a genuine
#: tradeoff for the autotuner: vector wins on large blocks, loses below
#: the (tunable) cutoff.
_VECTOR_WORK_FACTOR = 1.0 / 16.0
_VECTOR_STEP_WORK = 32.0


class EngineState:
    """Mutable state threaded through one top-level run."""

    __slots__ = (
        "config", "config_key", "recorder", "inline", "call_stack", "applications", "plans",
    )

    def __init__(
        self, config: ChoiceConfig, config_key: Tuple, recorder: TaskRecorder
    ) -> None:
        self.config = config
        #: ``config.key()``, built once per top-level run for every
        #: frame's plan lookup
        self.config_key = config_key
        self.recorder = recorder
        self.inline = False
        self.call_stack: List[Tuple[str, Tuple[int, ...]]] = []
        self.applications = 0
        #: ``{(transform, input shapes): plan}`` of this run's frames
        #: without explicit sizes: the config cannot change within a
        #: run, so a frame's second visit skips the keyed LRU lookup
        self.plans: Dict[Tuple, RunPlan] = {}


def run_frame(
    transform,
    state: EngineState,
    input_views: Dict[str, MatrixView],
    explicit_sizes=None,
) -> Tuple[Dict[str, Matrix], Dict[str, MatrixView], Dict[str, int]]:
    """One frame of ``transform``: look up (or build) its plan, guard the
    recursion, replay.  ``input_views`` is in declared order.  Returns
    the outputs, every view of the frame by matrix name and its sizes."""
    sink = state.recorder.sink
    shapes = tuple([view.shape for view in input_views.values()])
    key = (transform, shapes)
    plan = state.plans.get(key) if explicit_sizes is None else None
    hit = plan is not None
    if not hit:
        plan, hit = transform._frame_plan(
            state.config, state.config_key, shapes, explicit_sizes, sink
        )
        if explicit_sizes is None:
            state.plans[key] = plan
    if sink is not None:
        sink.count("exec.plan_hits" if hit else "exec.plan_misses")
    if plan.frame in state.call_stack:
        raise ExecutionError(
            f"{transform.name}: infinite recursion — the configuration "
            f"selects a recursive rule at sizes {dict(plan.env)}"
        )
    state.call_stack.append(plan.frame)
    try:
        outputs, views = _replay(state, plan, input_views, hit)
    finally:
        state.call_stack.pop()
    return outputs, views, plan.env


def _replay(
    state: EngineState, plan: RunPlan, input_views, hit: bool
) -> Tuple[Dict[str, Matrix], Dict[str, MatrixView]]:
    """Allocate, then run ``plan``'s steps, recording their tasks; the
    outputs and every view of the frame.  The one execution path: a
    plan built a moment ago (``hit`` false: its geometry lookups were
    counted while it was built) and one replayed for the millionth
    time run this same loop.  Its task scopes are the recorder's direct
    pair: if a step raises they stay open, and the run is lost."""
    views: Dict[str, MatrixView] = dict(input_views)
    outputs: Dict[str, Matrix] = {}
    for name, shape, is_output, label in plan.allocations:
        storage = Matrix.zeros(shape, name=label)
        views[name] = storage.whole()
        if is_output:
            outputs[name] = storage

    outer_inline = state.inline
    inline = state.inline = outer_inline or plan.inline
    recorder = state.recorder
    try:
        frame_task = recorder.open((), plan.transform.name, inline)
        tasks: List[int] = []
        for group in plan.groups:
            group_task = recorder.open(
                [tasks[index] for index in group.deps], group.label, inline
            )
            step = plan.steps[group.start]
            if step.geometry is None:  # a whole rule: alone
                _apply_once(
                    state, plan.transform, step.rule, plan.env, views,
                    plan.tunables, step.region_bounds,
                )
            else:
                steps = plan.steps[group.start : group.stop]
                _run_steps(state, plan, steps, views, hit)
            recorder.close(group_task)
            tasks.append(group_task)
        recorder.close(frame_task)
    finally:
        state.inline = outer_inline
    return outputs, views


def _run_steps(
    state: EngineState,
    plan: RunPlan,
    steps: Sequence[PlanStep],
    views: Dict[str, MatrixView],
    hit: bool,
) -> None:
    """The instance steps' one driver: per row of :func:`lockstep`,
    each step's leaf records its tasks behind every task of the row
    before — ``rows``, ``[tasks of the row before, tasks of this
    row]``, is that barrier across a group's members."""
    sink = state.recorder.sink
    rows: List[List[int]] = [[], []]
    leaves = []
    for step in steps:
        if sink is not None:
            if hit:  # its geometry came from cache
                sink.count("exec.geom_cache_hits")
            if step.demoted:
                sink.count("exec.vector_fallbacks")
        leaves.append(
            _vector_leaf(state, plan, step, views, rows)
            if step.plan is not None
            else _instance_leaf(state, plan, step, views, rows)
        )
    for _row in lockstep(steps, leaves):
        if rows[1]:
            rows[0] = rows[1]
            rows[1] = []


def _instance_leaf(
    state: EngineState,
    plan: RunPlan,
    step: PlanStep,
    views: Dict[str, MatrixView],
    rows: List[List[int]],
) -> Callable[[Tuple[int, ...]], None]:
    """The per-cell leaves: ``leaf(chain_values)`` runs one chain
    step as its blocked data-parallel tasks, each behind the tasks of
    the row before (``rows[0]``), adding them to this row's
    (``rows[1]``).  Task labels, block deps, and barrier structure
    are identical for the interpreter and closure paths.  A closure
    block returns its work where the interpreter has charged its
    own; one that can open no task inside — no sibling call, no
    fallback rule — is recorded after the fact."""
    kernel = step.kernel
    apply_block = (
        _interp_block_runner if kernel is None else _closure_block_runner
    )(state, plan, step, views)
    fused = kernel is not None and not kernel.uses_call and step.fallback is None
    recorder, inline, blocks = state.recorder, state.inline, step.blocks

    def leaf(chain_values: Tuple[int, ...]) -> None:
        previous, tasks = rows
        for label, instances in blocks:
            if fused:
                block_task = recorder.record_leaf(
                    previous, label, inline,
                    apply_block(chain_values, instances),
                )
            else:
                block_task = recorder.open(previous, label, inline)
                work = apply_block(chain_values, instances)
                if work is not None:
                    recorder.charge(work)
                recorder.close(block_task)
            tasks.append(block_task)

    return leaf


def _where_failure(
    plan: RunPlan, step: PlanStep, chain_values: Tuple[int, ...], values: Tuple[int, ...]
) -> ExecutionError:
    """The error for an instance whose where-clause rejects it with
    no fallback rule to catch it (same text on every leaf path)."""
    assignment = dict(zip(step.geometry.chain_vars, chain_values))
    assignment.update(zip(step.geometry.free_vars, values))
    return ExecutionError(
        f"{plan.transform.name} {step.rule.label}: where-clause fails "
        f"at {assignment} and no fallback exists"
    )


def _interp_block_runner(
    state: EngineState,
    plan: RunPlan,
    step: PlanStep,
    views: Dict[str, MatrixView],
) -> Callable[[Tuple[int, ...], Sequence[Tuple[int, ...]]], None]:
    """Reference path: the rule-body interpreter, one call per cell.

    One mutable instance env is reused across all instances;
    :func:`_apply_once` never leaks it into anything that outlives the
    call.
    """
    rule, fallback, transform = step.rule, step.fallback, plan.transform
    chain_vars, free_vars = step.geometry.chain_vars, step.geometry.free_vars
    tunables = plan.tunables
    instance_env = dict(plan.env)

    def apply_block(
        chain_values: Tuple[int, ...],
        block_instances: Sequence[Tuple[int, ...]],
    ) -> None:
        for var, value in zip(chain_vars, chain_values):
            instance_env[var] = value
        for values in block_instances:
            for var, value in zip(free_vars, values):
                instance_env[var] = value
            chosen = rule
            if rule.residual_where and not rule.residual_ok(instance_env):
                if fallback is None:
                    raise _where_failure(plan, step, chain_values, values)
                chosen = fallback
            _apply_once(state, transform, chosen, instance_env, views, tunables)

    return apply_block


def _closure_block_runner(
    state: EngineState,
    plan: RunPlan,
    step: PlanStep,
    views: Dict[str, MatrixView],
) -> Callable[[Tuple[int, ...], Sequence[Tuple[int, ...]]], Optional[float]]:
    """Lowered path: one call per block into the site's generated
    loop, which hands each cell its where-clause rejects back here,
    in place, for the fallback rule to run on the interpreter.  The
    block's work comes back as one sum (identical task totals, since
    per-instance charges are summed within the block's task either
    way), ``None`` when it accepted no cell."""
    fallback, transform, kernel = step.fallback, plan.transform, step.kernel
    env, tunables = plan.env, plan.tunables
    n_chain = len(step.geometry.chain_vars)

    def reject(*values: int) -> None:
        if fallback is None:
            raise _where_failure(plan, step, values[:n_chain], values[n_chain:])
        _apply_once(
            state, transform, fallback,
            {**env, **dict(zip(kernel.params, values))}, views, tunables,
        )

    program = transform.program
    block = kernel.maker(
        env,
        tunables,
        {name: views[name].to_numpy() for name in kernel.matrices},
        lambda name, args: _call_sibling(state, program, name, args),
        reject,
        step.geometry.var_ranges,
    )
    sink = state.recorder.sink

    def apply_block(
        chain_values: Tuple[int, ...],
        block_instances: Sequence[Tuple[int, ...]],
    ) -> Optional[float]:
        work, accepted = block(*chain_values, block_instances)
        if not accepted:
            return None
        state.applications += accepted
        if sink is not None:
            sink.count("exec.closure_calls", accepted)
        return work

    return apply_block


def _vector_leaf(
    state: EngineState,
    plan: RunPlan,
    step: PlanStep,
    views: Dict[str, MatrixView],
    rows: List[List[int]],
) -> Callable[[Tuple], None]:
    """Vector path: ``leaf(item)`` is one task (behind ``rows[0]``,
    added to ``rows[1]``, as :func:`_instance_leaf`) and one call of
    ``step.plan``'s step — the site's one batch-axis kernel, run here at
    batch 1 — per (chain step, tile) item of :meth:`PlanStep.sweep`.
    Bit-identical results to the per-cell paths with a *different*
    (cheaper) task graph and work model — what makes the leaf path
    worth tuning; a step's own tasks form one sequential chain, always
    a legal schedule of the recorded graph."""
    vector = step.plan
    arrays = {
        name: views[name].to_numpy()[None] for name in vector.matrices
    }
    run_step = vector.maker(plan.env, plan.tunables, arrays)
    tiled = step.tiles is not None
    label = step.leaf_label
    cell_work = step.cell_work
    recorder = state.recorder
    sink = recorder.sink
    inline = state.inline

    def leaf(item: Tuple) -> None:
        chain_values, free_args, volume = item
        run_step(*chain_values, *free_args)
        # The honest cost model: per-call slice setup is a real
        # fixed cost, so over-tiling loses simulated work even
        # though each sweep is smaller.  (The factor is a power
        # of two, so the product is exact in any association.)
        rows[1].append(recorder.record_leaf(
            rows[0], label, inline,
            volume * cell_work * _VECTOR_WORK_FACTOR + _VECTOR_STEP_WORK,
        ))
        state.applications += volume
        if sink is not None:
            sink.count("exec.vectorized_blocks")
            sink.count("exec.vectorized_cells", volume)
            if tiled:
                sink.count("exec.tiled_blocks")

    return leaf


# -- rule application ------------------------------------------------------------


def _apply_once(
    state: EngineState,
    transform,
    rule: RuleIR,
    env: Dict[str, int],
    views: Dict[str, MatrixView],
    tunables: Dict[str, int],
    region_bounds: Optional[Tuple[Bounds, ...]] = None,
) -> None:
    """Run ``rule`` of ``transform`` once under ``env``.  ``region_bounds``
    are the concrete bounds of ``rule.all_regions`` when a plan already
    holds them (whole rules: a function of the sizes only); per-instance
    applications derive them from ``env`` here."""
    state.applications += 1
    regions = rule.all_regions
    plan_env = region_bounds is not None  # else a mutable instance env
    if region_bounds is None:
        region_bounds = [region.box.concrete(env) for region in regions]
    folds = transform._storage_folds
    if folds:
        region_bounds = [
            _slot_bounds(transform, region.matrix, bounds, env)
            if region.matrix in folds else bounds
            for region, bounds in zip(regions, region_bounds)
        ]
    bindings: Dict[str, object] = {
        region.bind_name: _region_view(region, bounds, views[region.matrix])
        for region, bounds in zip(regions, region_bounds)
    }

    if rule.native_body is not None:
        rule.native_body(NativeContext(
            transform.program, state, bindings, env if plan_env else dict(env), tunables
        ))
        state.recorder.charge(rule.base_work)
        return

    scope = Scope(
        {**env, **tunables, **bindings},
        call_transform=lambda name, args: _call_sibling(
            state, transform.program, name, args
        ),
    )
    execute(rule.body, scope)
    state.recorder.charge(rule.base_work + scope.ops)


def _slot_bounds(transform, matrix: str, bounds: Bounds, env: Dict[str, int]) -> Bounds:
    """The bounds of a cell of folded ``matrix`` in its storage: the
    plane, checked against the declared extent (with the error an
    unfolded view raises), becomes its slot ``plane % window``."""
    axis, window = transform._storage_folds[matrix]
    plane = bounds[axis][0]
    dims = transform.ir.matrices[matrix].dims
    if not 0 <= plane < dims[axis].eval_floor(env):
        raise IndexError(
            f"cell{tuple(lo for lo, _ in bounds)} outside view of "
            f"shape {tuple(dim.eval_floor(env) for dim in dims)}"
        )
    slot = plane % window
    return (*bounds[:axis], (slot, slot + 1), *bounds[axis + 1:])


def _region_view(region: RegionIR, bounds: Bounds, base: MatrixView) -> MatrixView:
    """``base`` narrowed to ``region`` at its concrete ``bounds``."""
    if region.view_kind == "cell":
        return base.cell(*(lo for lo, _ in bounds))
    if region.view_kind == "row":
        return base.row(bounds[1][0])
    if region.view_kind == "column":
        return base.column(bounds[0][0])
    if region.view_kind == "all":
        return base
    los = [lo for lo, _ in bounds]
    his = [hi for _, hi in bounds]
    return base.region(*los, *his)


def _call_frame(
    state: EngineState, program, name: str, args: Sequence
) -> Tuple[Dict[str, Matrix], Dict[str, MatrixView], Dict[str, int]]:
    """The one sibling-call path: run transform ``name`` of ``program``
    on ``args`` (declared order) as a frame of this run."""
    callee = program.transforms.get(name) or program.transform(name)
    return run_frame(callee, state, callee._bind(args))


def _call_sibling(
    state: EngineState, program, name: str, args: Sequence,
    caller: str = "in an expression",
) -> MatrixView:
    """:func:`_call_frame` for a caller that takes one output: the
    view the callee's frame wrote it through."""
    outputs, views, _env = _call_frame(state, program, name, args)
    if len(outputs) != 1:
        raise ExecutionError(
            f"call to {name!r} {caller} requires exactly one output, "
            f"it has {len(outputs)}"
        )
    return views[next(iter(outputs))]


class NativeContext:
    """The interface handed to native (Python) rule bodies.

    Provides the bound region views, size variables, tunables, work
    accounting, parallel task structure, and calls to other transforms —
    everything the embedded C++ of the original could reach through the
    runtime library.
    """

    __slots__ = ("_program", "_state", "_bindings", "_env", "_tunables")

    def __init__(
        self,
        program,
        state: EngineState,
        bindings: Dict[str, object],
        env: Dict[str, int],
        tunables: Dict[str, int],
    ) -> None:
        self._program = program
        self._state = state
        self._bindings = bindings
        self._env = env
        self._tunables = tunables

    def __getitem__(self, name: str) -> MatrixView:
        try:
            return self._bindings[name]  # type: ignore[return-value]
        except KeyError:
            raise ExecutionError(f"no binding named {name!r}") from None

    def var(self, name: str) -> int:
        if name not in self._env:
            raise ExecutionError(f"no variable named {name!r}")
        return int(self._env[name])

    def tunable(self, name: str, default: Optional[int] = None) -> int:
        if name in self._tunables:
            return self._tunables[name]
        if default is not None:
            return default
        raise ExecutionError(f"no tunable named {name!r}")

    def charge(self, work: float) -> None:
        """Charge abstract work units to the current task."""
        self._state.recorder.charge(work)

    def call(self, name: str, *inputs) -> MatrixView:
        """Run another transform (or this one recursively) and return its
        single output as a view."""
        return _call_sibling(
            self._state, self._program, name, inputs, "from a native rule body"
        )

    def call_multi(self, name: str, *inputs) -> Dict[str, Matrix]:
        """Run a transform with multiple outputs."""
        return _call_frame(self._state, self._program, name, inputs)[0]

    def parallel(self, *thunks: Callable[[], object]) -> List[object]:
        """Run thunks as sibling tasks (parallel in the task graph; the
        scheduler simulator may overlap them)."""
        recorder, inline = self._state.recorder, self._state.inline
        results: List[object] = []
        for index, thunk in enumerate(thunks):
            tid = recorder.open((), f"par{index}", inline)
            results.append(thunk())
            recorder.close(tid)
        return results

    def spawn(self, thunk: Callable[[], object]) -> object:
        """Run one thunk in a child task."""
        return self.parallel(thunk)[0]
