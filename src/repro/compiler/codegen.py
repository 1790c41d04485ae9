"""Code generation and the execution engine (paper §3.1 phase 5, §3.2).

A :class:`CompiledTransform` is the executable artifact: the analogue of
the generated C++.  Everything a call decides *before* it touches data —
size binding, order and size guards, allocations, which option each
choice-grid segment takes under the :class:`ChoiceConfig` (possibly a
different rule per region size, which is how autotuned recursive
compositions arise), iteration geometry, leaf path, tiling, task labels,
dependency edges — is a pure function of (program, configuration
content, input shapes, explicit sizes).  :meth:`CompiledTransform.plan`
computes it once into an immutable, cached :class:`RunPlan`; running a
transform is then:

1. look the frame's plan up (build it on a miss), check the recursion
   guard, allocate output and ``through`` matrices as the plan lists,
2. replay the plan's steps in schedule order: per-instance with the
   iteration order and blocking dictated by the dependency analysis —
   the segments of a lockstep group (a folded matrix's segments sharing
   one band) one plane at a time, interleaved — or once for
   whole-region rules, recursing into other transforms (each frame
   replaying its own plan) for calls in the body,
3. record the task graph a work-stealing runtime would execute — each
   block/application is a task with its dependency edges; below the
   tuned sequential cutoff, code switches to the sequential version
   (tasks are inlined, no spawn overhead), mirroring the dual code paths
   of §3.2.

Dynamic mode keys plans by the content of the config handed to ``run``:
one compiled program serves any number of configurations, and a mutated
config simply misses.  Static mode (:func:`specialize`) bakes one
configuration in: the static program carries a frozen copy and its key,
computed once, and no longer consults a config at run time.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.engine_fast import (
    LEAF_INTERP,
    LEAF_VECTOR,
    Geometry,
    LRUCache,
    RuleKernel,
    VectorPlan,
    build_geometry,
    geometry_key,
    lower_rule,
)
from repro.engine_fast.geometry import split_chain_free
from repro.language import parse_program
from repro.language.errors import CompileError, PetaBricksError
from repro.language.interp import Scope, execute
from repro.runtime.matrix import Matrix, MatrixView
from repro.runtime.task import TaskGraph, TaskRecorder
from repro.symbolic import Affine, solve_bounds_for

from repro.compiler.choicegrid import ChoiceGrid, ChoiceOption, Segment, build_choice_grid
from repro.compiler.applicable import analyze_applicable_regions
from repro.compiler.config import (
    BLOCK_SIZE, FUSE, INTERCHANGE, LEAF_PATH, SEQ_CUTOFF, TILE_I, TILE_J, VECTORIZE_CUTOFF,
    ChoiceConfig, Selector, site_key,
)
from repro.compiler.depgraph import ChoiceDepGraph, build_dep_graph
from repro.compiler.ir import (
    ROLE_OUTPUT,
    ProgramIR,
    RegionIR,
    RuleIR,
    ScheduleIR,
    TransformIR,
    build_ir,
)

ArrayLike = Union[Matrix, MatrixView, np.ndarray, Sequence[float]]

#: Simulated-work model for the vectorized leaf: one step charges
#: ``volume * (base_work + static_ops) * _VECTOR_WORK_FACTOR +
#: _VECTOR_STEP_WORK``.  The factor models the per-element speedup of
#: slice arithmetic over per-cell calls; the flat term models the fixed
#: slice-setup cost.  Together they make ``__leaf_path__`` a genuine
#: tradeoff for the autotuner: vector wins on large blocks, loses below
#: the (tunable) cutoff.
_VECTOR_WORK_FACTOR = 1.0 / 16.0
_VECTOR_STEP_WORK = 32.0

#: Geometry entries are small — ranges and one value list per variable;
#: the instance product of a per-cell site is added when its first
#: step is planned, a vector site never has one — but recursive
#: transforms can visit many distinct size-envs; cap the cache rather
#: than grow without bound.
_GEOM_CACHE_LIMIT = 4096

#: Run plans per transform.  A tuner evaluates thousands of (config,
#: shape) pairs it never revisits, so the bound is what a warm workload
#: re-uses (a daemon's live shapes, the frames of one recursion), not
#: ``_GEOM_CACHE_LIMIT``: 4096 plans took ``tune_search`` peak RSS from
#: 47 to 76 MiB, 256 leave it at 48.
_PLAN_CACHE_LIMIT = 256

Bounds = Tuple[Tuple[int, int], ...]


class ExecutionError(PetaBricksError):
    """Raised for failures while running generated code (bad input
    shapes, unsatisfied size guards, runaway recursion...)."""


@dataclass
class RunResult:
    """Outputs plus the recorded task graph of one top-level run."""

    outputs: Dict[str, Matrix]
    graph: TaskGraph
    sizes: Dict[str, int]
    rule_applications: int

    def output(self, name: Optional[str] = None) -> np.ndarray:
        """Convenience: one output as a numpy array."""
        if name is None:
            if len(self.outputs) != 1:
                raise ValueError("transform has multiple outputs; pass a name")
            name = next(iter(self.outputs))
        return self.outputs[name].data


def normalize_sizes(sizes: object) -> Dict[str, int]:
    """Explicit ``sizes=`` bindings as ``{variable: non-negative int}``.

    The one gate between caller-supplied sizes (library arguments, CLI
    flags, JSON request bodies) and the integer evaluator: integral
    values of any numeric type (``int``, NumPy ints, ``3.0``) become
    ``int``; anything else — a non-mapping, a string, a bool, ``2.7``, a
    negative — raises :class:`ExecutionError` naming the variable.
    """
    if sizes is None:
        return {}
    if not isinstance(sizes, Mapping):
        raise ExecutionError(
            f"sizes must map size variables to integers, got "
            f"{type(sizes).__name__}"
        )
    normalized: Dict[str, int] = {}
    for var, value in sizes.items():
        number = None
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                number = int(value)
            except (ValueError, OverflowError):  # nan, inf
                pass
        if number is None or number != value or number < 0:
            raise ExecutionError(
                f"size variable {var!r} must be a non-negative integer, "
                f"got {value!r}"
            )
        normalized[var] = number
    return normalized


#: "fused variant not planned yet" marker (None is a valid cached plan).
_FUSED_UNSET = object()


@dataclass(frozen=True, slots=True)
class PlanStep:
    """One non-empty scheduled segment of a :class:`RunPlan`: the rule
    the configuration selected and everything applying it needs that
    does not depend on matrix contents.  A whole-region (or native) rule
    carries ``region_bounds``; an instance rule its ``geometry`` and
    resolved leaf — vector (``plan``, ``tiles``, ``leaf_label``,
    ``cell_work``) or per-cell (``kernel``, ``None`` = interpreter, and
    ``blocks``).  The site and the vector plan are held by reference, so
    ``rule.native_body`` and ``plan.maker`` are read when the step runs.
    """

    site: "Site"  # the (segment, selected primary rule) pair
    fallback: Optional[RuleIR]
    #: concrete ``[lo, hi)`` bounds per ``rule.all_regions``
    region_bounds: Optional[Tuple[Bounds, ...]] = None
    geometry: Optional[Geometry] = None
    plan: Optional[VectorPlan] = None
    #: ``(tile sizes per free var, interchange?)``, ``None`` = untiled
    tiles: Optional[Tuple[Tuple[int, ...], bool]] = None
    leaf_label: str = ""
    cell_work: float = 0.0
    kernel: Optional[RuleKernel] = None
    #: a per-cell step's block tasks, ``(label, instance tuples)``: the
    #: ``__block_size__`` slices of ``geometry.free_products``
    blocks: Tuple[Tuple[str, Tuple[Tuple[int, ...], ...]], ...] = ()
    #: the vector leaf was configured and the site (or its step volume)
    #: refused it: counted as ``exec.vector_fallbacks`` per run
    demoted: bool = False

    @property
    def rule(self) -> RuleIR:
        return self.site.rule

    def sweep(self) -> Iterator[Tuple]:
        """An instance step's items in execution order: its vector plan's
        :meth:`VectorPlan.sweep` (tiled as ``tiles`` says), or per-cell
        chain values (no chain variables: the one unchained step)."""
        if self.plan is not None:
            return self.plan.sweep(self.geometry, *(self.tiles or ((), False)))
        return itertools.product(*self.geometry.chain_value_lists)


class PlanGroup(NamedTuple):
    """One task of a :class:`RunPlan`: ``steps[start:stop]``, a lockstep
    group (a folding PB606 verdict's ``groups``, its members that are
    not empty at these sizes) or a step on its own."""

    label: str
    #: positions in ``RunPlan.groups`` of the groups this one's
    #: dependency edges come from (ascending, so are their task ids)
    deps: Tuple[int, ...]
    start: int
    stop: int


def lockstep(
    steps: Sequence[PlanStep], leaves: Sequence[Callable[[Tuple], object]]
) -> Iterator[Tuple]:
    """The one chain iteration of a :class:`PlanGroup`, run by the serial
    replay and :mod:`repro.batch.stacked`: ``leaves[k]`` takes each
    :meth:`PlanStep.sweep` item of ``steps[k]``, one row per chain step,
    members in schedule order (they sweep the same planes, untiled); a
    step on its own is a group of one."""
    return zip(
        *(map(leaf, step.sweep()) for step, leaf in zip(steps, leaves)),
        strict=True,
    )


class FrameDecisions(NamedTuple):
    """Everything a :class:`RunPlan` reads from its configuration,
    resolved at the frame's problem size by
    :meth:`CompiledTransform.decisions`.  Equal decisions at equal
    shapes and sizes build equal plans, so with them they are the plan
    cache's second key: configurations that differ only where this frame
    does not look (another size band, another transform) share a plan."""

    #: the option index each segment of ``segment_order`` picks
    options: Tuple[int, ...]
    inline: bool  # the problem size is below ``__seq_cutoff__``
    leaf: Optional[int]
    vectorize_cutoff: Optional[int]
    block: Optional[int]
    #: the ``__tile_i__``, ``__tile_j__``, ``__interchange__`` entries as
    #: given (``None``: absent), for :meth:`Site.tiles` to resolve
    #: against each rule's declared schedule
    tiles: Tuple[Optional[int], Optional[int], Optional[int]]
    tunables: Tuple[Tuple[str, int], ...]  # resolved user tunables


@dataclass(frozen=True, slots=True)
class RunPlan:
    """One frame of one transform, decided — see
    :meth:`CompiledTransform.plan`.  Immutable and free of matrix data:
    scalars plus references into the transform's shared
    :class:`Geometry`/:class:`VectorPlan`/:class:`RuleIR` objects, so
    any number of threads may replay one plan at once.  Only a per-cell
    step holds anything proportional to its iteration count: the block
    slices (one reference per instance) of the instance product that
    lives on the shared geometry, built when the first such step is
    planned."""

    #: whose frame this is: the planned transform, or its
    #: ``fused_variant()`` when ``__fuse__`` redirects the call
    transform: "CompiledTransform"
    env: Dict[str, int]
    frame: Tuple[str, Tuple[Tuple[str, int], ...]]  # recursion-guard key
    #: (name, shape, is_output, storage label) per allocated matrix;
    #: the shape is the *physical* one: a folded ``through`` matrix
    #: keeps only its window of planes (``_storage_folds``)
    allocations: Tuple[Tuple[str, Tuple[int, ...], bool, str], ...]
    #: cells of the call's inputs and *declared* matrices
    problem_size: int
    #: this frame is below the sequential cutoff (a caller's verdict is
    #: inherited at run time on top of it)
    inline: bool
    tunables: Dict[str, int]
    steps: Tuple[PlanStep, ...]
    groups: Tuple[PlanGroup, ...]


class _EngineState:
    """Mutable state threaded through one top-level run."""

    __slots__ = (
        "config",
        "config_key",
        "recorder",
        "inline",
        "call_stack",
        "applications",
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


class CompiledProgram:
    """A compiled set of transforms sharing one call graph."""

    def __init__(self, ir: ProgramIR) -> None:
        self.ir = ir
        #: ``(frozen config, its key)`` on a :func:`specialize`d program
        self.static: Optional[Tuple[ChoiceConfig, Tuple]] = None
        self.transforms: Dict[str, CompiledTransform] = {}
        for name, tir in ir.transforms.items():
            self.transforms[name] = CompiledTransform(tir, self)

    def transform(self, name: str) -> "CompiledTransform":
        if name not in self.transforms:
            raise CompileError(f"unknown transform {name!r}")
        return self.transforms[name]


def compile_program(
    source: Union[str, ProgramIR, TransformIR, Sequence[TransformIR]],
    template_values: Optional[Dict[str, Sequence[int]]] = None,
    analyze: bool = True,
) -> CompiledProgram:
    """Compile DSL source text, a ProgramIR, or built TransformIR(s).

    ``template_values`` instantiates template transforms: e.g.
    ``{"T": [4, 64]}`` creates independently-tuned ``T_4`` and ``T_64``.

    With ``analyze`` (the default) the error-severity subset of the
    static verifier suite (:mod:`repro.analysis`) runs over the compiled
    transforms at a small witness budget; a finding becomes a
    :class:`CompileError` carrying the diagnostic's code, position, and
    hint.  Pass ``analyze=False`` to skip it — ``repro check`` does, so
    problems report as diagnostics instead of raising, and tests that
    build intentionally-broken transforms can too.
    """
    if isinstance(source, str):
        ir = build_ir(parse_program(source), template_values)
    elif isinstance(source, ProgramIR):
        ir = source
    elif isinstance(source, TransformIR):
        ir = ProgramIR({source.name: source})
    else:
        table = {t.name: t for t in source}
        ir = ProgramIR(table)
    program = CompiledProgram(ir)
    if analyze:
        # Local import: repro.analysis sits on top of this module.
        from repro.analysis.check import analyze_program
        from repro.analysis.witness import WitnessBudget

        budget = WitnessBudget(
            max_size=2, max_envs=4, max_instances=256, max_cells=512
        )
        report = analyze_program(program, budget, errors_only=True)
        for diag in report:
            raise CompileError(
                f"{diag.transform}.{diag.rule}: {diag.message}"
                if diag.rule
                else f"{diag.transform}: {diag.message}",
                line=diag.line,
                column=diag.column,
                code=diag.code,
                hint=diag.hint,
            )
    return program


class Site:
    """One ``(segment, primary rule)`` pair of the choice grid — the key
    of ``depgraph.rule_directions`` — and the one home of what the
    engine may do there.  A restricted rule packaged with several
    fallbacks is one site (nothing here depends on which fallback
    catches the rejected cells); fallback rules only ever run through
    ``_apply_once`` and have none.

    Created empty with the transform; each fact is computed on first
    read and then stored — lazily, so only sites that execute pay
    analysis and lowering and IR rewritten before the first run is
    seen; unlocked like ``_frame_plan``, racing threads build equal
    values.  The plan builder, :mod:`repro.batch`, the tuner and the
    PB501–PB503/PB604/PB605 diagnostics read these same objects, so
    none of them can disagree with the engine."""

    def __init__(self, transform, segment: Segment, option: ChoiceOption):
        self.transform: CompiledTransform = transform
        self.segment = segment
        #: the first option of the segment that selects ``rule``
        self.option = option
        self.rule: RuleIR = transform.ir.rules[option.primary]

    @functools.cached_property
    def order(self) -> Tuple[Dict[str, int], List[str]]:
        """Iteration direction per rule variable, plus the loop-nesting
        order (outermost first), from the dependency analysis.  Raises
        :class:`ExecutionError` (and stores nothing) for a rule with no
        consistent direction."""
        segment, rule = self.segment, self.rule
        order = self.transform.depgraph.rule_directions[
            segment.key, rule.rule_id
        ]
        directions: Dict[str, int] = {}
        controlling_dim: Dict[str, int] = {}
        for region in rule.to_regions:
            if region.matrix != segment.matrix:
                continue
            for dim, coord in enumerate(rule.access(region)):
                for var, coeff in coord.terms:
                    controlling_dim.setdefault(var, dim)
                    if order.signs[dim] == 0:
                        continue
                    required = order.signs[dim] * (1 if coeff > 0 else -1)
                    if directions.get(var, required) != required:
                        raise ExecutionError(
                            f"{self.transform.name} {rule.label}: variable "
                            f"{var!r} has conflicting iteration directions"
                        )
                    directions[var] = required
        # Nest loops by the dependency analysis' dimension priority.
        rank = {dim: pos for pos, dim in enumerate(order.priority)}
        var_order = sorted(
            rule.rule_vars,
            key=lambda v: rank.get(controlling_dim.get(v, 0), 0),
        )
        return directions, var_order

    @functools.cached_property
    def split(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(chain_vars, free_vars)`` of :attr:`order`, in iteration
        order: what the geometry, the vector planner and the PB604
        verdict are handed."""
        return split_chain_free(*self.order)

    @functools.cached_property
    def schedule(self):
        """The PB604 verdict: may the engine run the free variables
        tile-by-tile (and the chain per tile)?  The analyzer's
        :func:`repro.analysis.depend.schedule_verdict`, the one ``repro
        check`` reports; where it cannot prove safety the tile knobs are
        a verified no-op."""
        # Local import: repro.analysis sits on top of this module.
        from repro.analysis.depend import schedule_verdict

        return schedule_verdict(self)

    @property
    def tilable(self) -> bool:
        """PB604-legal and in no lockstep group (which runs untiled)."""
        return self.schedule.legal and self.segment.key not in self.transform._lockstep

    @functools.cached_property
    def vector(self) -> Tuple[Optional[VectorPlan], str]:
        """``(plan, "")`` or ``(None, reason)``: the site's one vector
        leaf — run by the serial engine at batch 1 and by
        :mod:`repro.batch` at batch B, reported as PB501/PB502/PB503."""
        # Looked up at call time: a tracer replaces the module's name.
        from repro.engine_fast import vectorize

        try:
            chain_vars, free_vars = self.split
        except ExecutionError as error:
            return None, str(error)
        return vectorize.plan_vector_leaf(
            self.transform.ir, self.rule, chain_vars, free_vars,
            self.transform._storage_folds,
        )

    @functools.cached_property
    def kernel(self) -> Optional[RuleKernel]:
        """The rule's closure kernel, looping in the site's iteration
        order (one rule iterated in two orders by two sites has two),
        or ``None``: a rule the lowerer cannot prove bit-for-bit
        equivalent keeps the interpreter — a failed lowering is a lost
        optimization, never a wrong answer."""
        try:
            return lower_rule(
                self.rule, self.transform.ir, *self.split,
                self.transform._storage_folds,
            )
        except Exception:
            return None

    def ranges(
        self, env: Dict[str, int], segment_bounds: Bounds
    ) -> Dict[str, Tuple[int, int]]:
        """Concrete [lo, hi) per rule variable at sizes ``env``: the
        preimage of the segment (``segment_bounds`` is its concrete box)
        under the to-binding, intersected with the applicable variable
        bounds."""
        segment, rule = self.segment, self.rule
        ranges: Dict[str, Tuple[int, int]] = {}
        for var in rule.rule_vars:
            interval = rule.var_bounds[var]
            ranges[var] = interval.concrete(env)

        for region in rule.to_regions:
            if region.matrix != segment.matrix:
                continue
            for dim, coord in enumerate(rule.access(region)):
                if not coord.terms:
                    continue
                if len(coord.terms) > 1:
                    raise ExecutionError(
                        f"{self.transform.name} {rule.label}: output "
                        f"coordinate {coord.expr} couples rule variables"
                    )
                (var,) = coord.vars
                seg_lo, seg_hi = segment_bounds[dim]
                solved = solve_bounds_for(var, coord.expr, seg_lo, seg_hi)
                if solved is None:
                    continue
                lo, hi = solved.concrete(env)
                old_lo, old_hi = ranges[var]
                ranges[var] = (max(lo, old_lo), min(hi, old_hi))
        return ranges

    def tiles(
        self,
        raw: Tuple[Optional[int], Optional[int], Optional[int]],
        geometry: Geometry,
    ) -> Optional[Tuple[Tuple[int, ...], bool]]:
        """The effective (tile sizes per free var, interchange?) of a
        vector step, or ``None`` to run the untiled sweep.

        ``raw`` holds the config's ``__tile_i__``, ``__tile_j__`` and
        ``__interchange__`` entries (``None`` where absent, so the rule's
        declared ``tile(...)`` annotation applies); a size of 0 (or one
        covering the whole extent) leaves that variable unblocked.
        Engages only on PB604-legal sites outside a lockstep group — on
        any other site the knobs are a verified no-op."""
        if not geometry.chain_vars or not geometry.free_vars:
            return None
        declared = self.rule.schedule or ScheduleIR()
        declared_tiles = dict(declared.tile)
        tile_sizes: List[int] = []
        for dim, var in enumerate(geometry.free_vars):
            size = declared_tiles.get(var, 0)
            if dim < 2 and raw[dim] is not None:
                size = (TILE_I, TILE_J)[dim].clamp(int(raw[dim]))
            lo, hi = geometry.var_ranges[var]
            tile_sizes.append(size if 0 < size < hi - lo else 0)
        if not any(tile_sizes) or not self.tilable:
            return None
        interchange = declared.interchange if raw[2] is None else raw[2]
        return tuple(tile_sizes), INTERCHANGE.clamp(int(interchange))


class CompiledTransform:
    """One executable transform: IR + analyses + execution engine."""

    def __init__(self, ir: TransformIR, program: CompiledProgram) -> None:
        self.ir = ir
        self.program = program
        analyze_applicable_regions(ir)
        # build_choice_grid also folds the grid's single-variable order
        # guards (e.g. ``n - 2 >= 0``; checked at run time, so analyses
        # may assume them) into ``ir.assumptions`` — the dependency
        # analysis below sees them, pruning provably-empty conservative
        # edges.
        self.grid: ChoiceGrid = build_choice_grid(ir)
        self.depgraph: ChoiceDepGraph = build_dep_graph(ir, self.grid)
        segments = {seg.key: seg for seg in self.grid.all_segments()}
        #: the grid's segments in schedule (dependency) order; the
        #: graph's other nodes are the input matrices
        self.segment_order: Tuple[Segment, ...] = tuple(
            segments[key]
            for key in self.depgraph.schedule_order
            if key in segments
        )
        #: one :class:`Site` per distinct (segment key, primary rule id)
        #: of the grid, in grid order
        self.sites: Dict[Tuple[str, int], Site] = {}
        for segment in segments.values():
            for option in segment.options:
                key = (segment.key, option.primary)
                if key not in self.sites:
                    self.sites[key] = Site(self, segment, option)
        # Size-keyed caches — iteration geometry per (segment, rule,
        # size-env), size-binding solutions per (input shapes, explicit
        # sizes), run plans per (config content, input shapes, explicit
        # sizes) — are LRU-bounded: a long-lived serve daemon sees
        # arbitrarily many distinct input shapes.
        self._geom_cache: LRUCache = LRUCache(_GEOM_CACHE_LIMIT)
        self._size_cache: LRUCache = LRUCache(_GEOM_CACHE_LIMIT)
        self._plan_cache: LRUCache = LRUCache(_PLAN_CACHE_LIMIT)
        # The legality-gated fused rewrite (repro.rewrite), planned and
        # verified lazily on first request; None once planning decides
        # there is nothing (or nothing provably safe) to fuse.
        self._fused: object = _FUSED_UNSET

    # -- public API ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.ir.name

    def choice_sites(self) -> List[Tuple[str, Segment]]:
        """All (config key, segment) choice sites of this transform."""
        return [
            (site_key(self.name, seg.matrix, seg.index), seg)
            for seg in self.grid.all_segments()
        ]

    def site(self, segment: Segment, rule: RuleIR) -> Site:
        """The :class:`Site` of a primary ``rule`` of ``segment``."""
        return self.sites[segment.key, rule.rule_id]

    def run(
        self,
        inputs: Union[Mapping[str, ArrayLike], Sequence[ArrayLike], None] = None,
        config: Optional[ChoiceConfig] = None,
        sizes: Optional[Mapping[str, int]] = None,
        sink=None,
    ) -> RunResult:
        """Execute the transform and record its task graph.

        ``sink`` (a :class:`repro.observe.trace.TraceSink`) receives the
        recorder's ``task_recorded`` events and counters when given.
        On a :func:`specialize`d program ``config`` is ignored: the
        program's frozen configuration runs.
        """
        static = self.program.static
        if static is not None:
            config, config_key = static
        else:
            config = config or ChoiceConfig()
            config_key = config.key()
        recorder = TaskRecorder(sink=sink)
        state = _EngineState(config, config_key, recorder)
        input_views = self.bind_inputs(inputs)
        outputs, env = self._execute(state, input_views, sizes)
        return RunResult(
            outputs=outputs,
            graph=recorder.graph(),
            sizes=dict(env),
            rule_applications=state.applications,
        )

    # -- input handling -----------------------------------------------------------

    def bind_inputs(
        self,
        inputs: Union[Mapping[str, ArrayLike], Sequence[ArrayLike], None],
    ) -> Dict[str, MatrixView]:
        """``inputs`` (by name or in declared order) as the frame's
        input views, in declared order — what ``run`` executes and the
        batch engine stacks.  The one home of the missing, unexpected
        and wrong-count input errors."""
        if inputs is None:
            inputs = {}
        if not isinstance(inputs, Mapping):
            return self._bind(list(inputs))
        items = dict(inputs)
        views: Dict[str, MatrixView] = {}
        for mat in self.ir.inputs:
            if mat.name not in items:
                raise ExecutionError(
                    f"{self.name}: missing input {mat.name!r}"
                )
            views[mat.name] = _as_view(items.pop(mat.name))
        if items:
            raise ExecutionError(
                f"{self.name}: unexpected inputs {sorted(items)}"
            )
        return views

    def _bind(self, args: Sequence[ArrayLike]) -> Dict[str, MatrixView]:
        """``args`` in declared order as the frame's input views: views
        pass through, anything else is coerced."""
        declared = self.ir.inputs
        if len(args) != len(declared):
            raise ExecutionError(
                f"{self.name}: expected {len(declared)} inputs, "
                f"got {len(args)}"
            )
        return {mat.name: _as_view(arg) for mat, arg in zip(declared, args)}

    def bind_sizes_from_shapes(
        self,
        shapes: Sequence[Tuple[int, ...]],
        explicit: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Size variables from the input *shapes* (declared order) and
        explicit ``sizes=`` — the first step of planning a frame, and a
        public handle for callers that only need the binding.  Cached
        per (shapes, sizes): the iterative affine solve is pure in that
        key, and every configuration a tuner tries re-plans the same
        handful of shapes."""
        declared = self.ir.inputs
        if len(shapes) != len(declared):
            raise ExecutionError(
                f"{self.name}: expected {len(declared)} input shapes, "
                f"got {len(shapes)}"
            )
        shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        explicit = normalize_sizes(explicit)
        key = (shapes, tuple(sorted(explicit.items())))
        cached = self._size_cache.get(key)
        if cached is None:
            cached = self._size_cache[key] = self._bind_sizes_uncached(
                shapes, explicit
            )
        return dict(cached)

    def _bind_sizes_uncached(
        self,
        shapes: Sequence[Tuple[int, ...]],
        explicit: Dict[str, int],
    ) -> Dict[str, int]:
        env: Dict[str, int] = dict(explicit)
        # Iteratively bind size variables from dimension equations.
        equations: List[Tuple[Affine, int, str]] = []
        for mat, shape in zip(self.ir.inputs, shapes):
            if len(shape) != mat.ndim:
                raise ExecutionError(
                    f"{self.name}: input {mat.name!r} is {len(shape)}-D, "
                    f"declared {mat.ndim}-D"
                )
            for expr, extent in zip(mat.dims, shape):
                equations.append((expr, extent, mat.name))
        progress = True
        while progress:
            progress = False
            for expr, extent, mat_name in equations:
                unknown = [v for v in expr.variables() if v not in env]
                if len(unknown) == 1:
                    var = unknown[0]
                    solved = (expr - extent).solved_for(var)
                    value = solved.eval_floor(env)
                    if value < 0 or solved.eval_ceil(env) != value:
                        raise ExecutionError(
                            f"{self.name}: input {mat_name!r} extent "
                            f"{extent} does not satisfy {expr}"
                        )
                    env[var] = value
                    progress = True
        for expr, extent, mat_name in equations:
            if any(v not in env for v in expr.variables()):
                raise ExecutionError(
                    f"{self.name}: cannot infer sizes from {mat_name!r} "
                    f"dimension {expr}"
                )
            if expr.eval_floor(env) != extent:
                raise ExecutionError(
                    f"{self.name}: input {mat_name!r} extent {extent} "
                    f"inconsistent with {expr} = {expr.eval_floor(env)}"
                )
        for var in self.ir.size_vars:
            if var not in env:
                raise ExecutionError(
                    f"{self.name}: size variable {var!r} unbound; pass "
                    f"sizes={{...}}"
                )
        return env

    # -- the engine -------------------------------------------------------------

    def fused_variant(self) -> Optional["CompiledTransform"]:
        """The verified fused rewrite of this transform, or ``None``.

        Planned once: producer→consumer fusion is applied wherever the
        dependence analyzer proves PB601, the result is re-verified by
        the error-severity passes, and the compiled variant is cached.
        ``None`` (also cached) means the transform runs unfused no
        matter what ``__fuse__`` says.
        """
        if self._fused is _FUSED_UNSET:
            from repro.rewrite.fuse import build_fused_variant

            variant = self._fused = build_fused_variant(self)
            if variant is not None:
                # A fused variant never re-fuses (or re-plans) itself.
                variant._fused = None
        return self._fused  # type: ignore[return-value]

    @functools.cached_property
    def storage_verdicts(self) -> Dict[str, object]:
        """The PB606 verdict per ``through`` matrix, decided on first
        use: may the engine keep only a window of its planes?  Like
        :attr:`Site.schedule`, the analyzer's single verdict
        (:func:`repro.analysis.depend.storage_verdict`) kept where the
        engine and ``repro check`` both read it."""
        # Local import: repro.analysis sits on top of this module.
        from repro.analysis.depend import storage_verdict

        return {
            mat.name: storage_verdict(self, mat.name)
            for mat in self.ir.throughs
        }

    @functools.cached_property
    def _storage_folds(self) -> Dict[str, Tuple[int, int]]:
        """``{matrix: (axis, window)}`` of the matrices that fold:
        allocation keeps ``window`` planes along ``axis`` and every
        access takes its plane ``% window`` (the generated kernels
        through ``KernelBuilder.point_index``, the tree-walking path in
        :meth:`_apply_once`).  Not a choice: what may fold always does."""
        return {
            name: (verdict.axis, verdict.window)
            for name, verdict in self.storage_verdicts.items()
            if verdict.folds
        }

    @functools.cached_property
    def _lockstep(self) -> Dict[str, Tuple[str, ...]]:
        """``{segment key: its group}`` over the folding verdicts'
        lockstep ``groups``: one task each, run one plane at a time."""
        return {
            key: group
            for verdict in self.storage_verdicts.values()
            if verdict.folds
            for group in verdict.groups
            for key in group
        }

    def plan(
        self,
        config: Optional[ChoiceConfig],
        shapes: Sequence[Sequence[int]],
        sizes: Optional[Mapping[str, int]] = None,
    ) -> RunPlan:
        """The :class:`RunPlan` of one call under ``config`` on inputs of
        ``shapes`` (declared order) — what ``run`` looks up and replays
        and :mod:`repro.batch.stacked` replays at batch B.

        The cache key is (config *content*, shapes, normalised
        ``sizes``), so a mutated config simply misses.  Planning is
        *eager*: size binding, the order guards and every scheduled
        segment's option index, size guards and geometry are resolved
        before the frame's first segment runs, so a bad option index or
        failing size guard on a late segment raises (the same
        :class:`ExecutionError`) before the earlier segments have run,
        not after.  A plan that fails to build is not cached.
        """
        config = config or ChoiceConfig()
        shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        return self._frame_plan(config, config.key(), shapes, sizes)[0]

    def _frame_plan(
        self, config, config_key, shapes, explicit_sizes, sink=None
    ) -> Tuple[RunPlan, bool]:
        """``(plan, served from cache?)``.  One LRU holds each plan under
        two keys: the config's content and its :class:`FrameDecisions`,
        each with the shapes and sizes.  A config-key miss resolves the
        decisions and reuses a plan built for equal ones.  Unlocked on
        purpose: plans are immutable and equal for equal keys, so two
        threads that miss together build twice and either insert wins."""
        explicit = {} if explicit_sizes is None else normalize_sizes(explicit_sizes)
        sized = (shapes, tuple(sorted(explicit.items())))
        key = (config_key, *sized)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan, True
        variant = self.fused_variant() if config.knob(self.name, FUSE) else None
        if variant is not None:
            plan, hit = variant._frame_plan(
                config, config_key, shapes, explicit, sink
            )
        else:
            env, problem_size, declared = self._frame_sizes(shapes, explicit)
            decisions = self.decisions(config, problem_size)
            decided = (decisions, *sized)
            plan = self._plan_cache.get(decided)
            hit = plan is not None
            if not hit:
                plan = self._build_plan(decisions, env, problem_size, declared, sink)
                self._plan_cache[decided] = plan
        self._plan_cache[key] = plan
        return plan, hit

    def _frame_sizes(
        self, shapes, explicit
    ) -> Tuple[Dict[str, int], int, Tuple[Tuple[int, ...], ...]]:
        """``(env, problem size, declared shapes of the outputs and
        throughs)`` of a frame on inputs of ``shapes``; raises when the
        sizes violate the choice grid's order guards."""
        env = self.bind_sizes_from_shapes(shapes, explicit)
        guard = self.grid.failed_order_guard(env)
        if guard is not None:
            raise ExecutionError(
                f"{self.name}: sizes {dict(env)} violate the assumed "
                f"region ordering {guard} >= 0 (input too small for "
                f"this program's choice grid)"
            )
        # The problem size steering choice selection and the sequential
        # cutoff is the total cells across every matrix of the call.
        # The whole call footprint (not just outputs) shrinks under
        # *any* recursive decomposition, including splits along
        # reduction dimensions that keep the output size constant.  It
        # counts *declared* cells: folding storage must not move a
        # selector, a cutoff or a task graph.
        declared = tuple(
            tuple(dim.eval_floor(env) for dim in mat.dims)
            for mat in self.ir.outputs + self.ir.throughs
        )
        problem_size = sum(map(math.prod, shapes)) + sum(map(math.prod, declared))
        return env, problem_size, declared

    def decisions(self, config: ChoiceConfig, problem_size: int) -> FrameDecisions:
        """What ``config`` decides for a frame of ``problem_size``: the
        one place a plan reads its configuration.  Knobs the frame cannot
        obey are left out (``None``) — the leaf knobs where no rule runs
        per instance, the vector ones unless the leaf is vector — so
        configs that differ only there share one plan."""
        name = self.name
        leaf = vector = None
        if self._per_instance:
            leaf = config.knob(name, LEAF_PATH, problem_size)
            vector = leaf == LEAF_VECTOR
        return FrameDecisions(
            options=tuple(
                (
                    config.choice_for(site_key(name, segment.matrix, segment.index))
                    or self._default_selector(segment)
                ).pick(problem_size)
                for segment in self.segment_order
            ),
            inline=problem_size < config.knob(name, SEQ_CUTOFF),
            leaf=leaf,
            vectorize_cutoff=(
                config.knob(name, VECTORIZE_CUTOFF, problem_size) if vector else None
            ),
            block=None if leaf is None else config.knob(name, BLOCK_SIZE),
            tiles=tuple(
                config.tunables.get(knob.key(name)) if vector else None
                for knob in (TILE_I, TILE_J, INTERCHANGE)
            ),
            tunables=tuple(self.tunables_at(config, problem_size).items()),
        )

    @functools.cached_property
    def _per_instance(self) -> bool:
        """Whether any site runs its rule per instance: only such a step
        reads the leaf knobs."""
        return any(site.rule.is_instance_rule for site in self.sites.values())

    def _build_plan(
        self, decisions: FrameDecisions, env, problem_size, declared, sink
    ) -> RunPlan:
        folds = self._storage_folds
        allocations = []
        for mat, shape in zip(self.ir.outputs + self.ir.throughs, declared):
            if mat.name in folds:
                axis, window = folds[mat.name]
                shape = (
                    *shape[:axis], min(shape[axis], window), *shape[axis + 1:]
                )
            allocations.append(
                (
                    mat.name,
                    shape,
                    mat.role == ROLE_OUTPUT,
                    f"{self.name}.{mat.name}",
                )
            )
        steps: List[PlanStep] = []
        groups: List[Tuple[List[str], set, int]] = []  # keys, deps, start
        position: Dict[str, int] = {}  # segment key -> its group
        for site, fallback, bounds in self.scheduled_segments(
            env, decisions.options
        ):
            # Inputs and empty segments have no step (no task) and
            # contribute no dependency edge.
            key = site.segment.key
            group = self._lockstep.get(key, ())
            if not steps or steps[-1].site.segment.key not in group:
                groups.append(([], set(), len(steps)))
            keys, deps, _start = groups[-1]
            keys.append(key)
            deps.update(
                position[edge.src]
                for edge in self.depgraph.edges_into(key)
                if edge.src in position and position[edge.src] != len(groups) - 1
            )
            position[key] = len(groups) - 1
            steps.append(
                self._plan_step(decisions, env, site, fallback, bounds, sink)
            )
        return RunPlan(
            transform=self,
            env=env,
            frame=(self.name, tuple(sorted(env.items()))),
            allocations=tuple(allocations),
            problem_size=problem_size,
            inline=decisions.inline,
            tunables=dict(decisions.tunables),
            steps=tuple(steps),
            groups=tuple(
                PlanGroup(
                    f"{self.name}.{'+'.join(keys)}", tuple(sorted(deps)),
                    start, start + len(keys),
                )
                for keys, deps, start in groups
            ),
        )

    def _plan_step(
        self, decisions: FrameDecisions, env, site, fallback, bounds, sink
    ) -> PlanStep:
        segment, rule = site.segment, site.rule
        common = dict(site=site, fallback=fallback)
        if not rule.is_instance_rule:
            return PlanStep(
                **common,
                region_bounds=tuple(
                    region.box.concrete(env) for region in rule.all_regions
                ),
            )
        geometry = self.geometry_for(segment, rule, env, bounds, sink=sink)
        # The configured leaf degrades gracefully: vector falls back to
        # closure when the site is not vectorizable (or below the
        # cutoff), closure to the interpreter when the rule has no
        # kernel.  The interpreter is always legal.
        leaf = decisions.leaf
        if leaf == LEAF_VECTOR:
            plan, _reason = site.vector
            if plan is not None and geometry.step_volume >= decisions.vectorize_cutoff:
                tiles = site.tiles(decisions.tiles, geometry)
                return PlanStep(
                    **common,
                    geometry=geometry,
                    plan=plan,
                    tiles=tiles,
                    leaf_label=rule.label + ("[vec:tiled]" if tiles else "[vec]"),
                    cell_work=rule.base_work + plan.static_ops,
                )
        instances = geometry.free_products
        block = decisions.block
        return PlanStep(
            **common,
            geometry=geometry,
            kernel=None if leaf == LEAF_INTERP else site.kernel,
            blocks=tuple(
                (f"{rule.label}[{start}]", instances[start : start + block])
                for start in range(0, len(instances), block)
            ),
            demoted=leaf == LEAF_VECTOR,
        )

    def _execute(
        self,
        state: _EngineState,
        input_views: Dict[str, MatrixView],
        explicit_sizes: Optional[Mapping[str, int]] = None,
    ) -> Tuple[Dict[str, Matrix], Dict[str, int]]:
        """One frame: look up (or build) its plan, guard the recursion,
        replay.  ``input_views`` is in declared order."""
        sink = state.recorder.sink
        shapes = tuple([view.shape for view in input_views.values()])
        plan, hit = self._frame_plan(
            state.config, state.config_key, shapes, explicit_sizes, sink
        )
        if sink is not None:
            sink.count("exec.plan_hits" if hit else "exec.plan_misses")
        if plan.frame in state.call_stack:
            raise ExecutionError(
                f"{self.name}: infinite recursion — the configuration "
                f"selects a recursive rule at sizes {dict(plan.env)}"
            )
        state.call_stack.append(plan.frame)
        try:
            return plan.transform._replay(state, plan, input_views, hit), plan.env
        finally:
            state.call_stack.pop()

    def _replay(
        self, state: _EngineState, plan: RunPlan, input_views, hit: bool
    ) -> Dict[str, Matrix]:
        """Allocate, then run ``plan``'s steps, recording their tasks.
        The one execution path: a plan built a moment ago (``hit``
        false: its geometry lookups were counted while it was built) and
        one replayed for the millionth time run this same loop."""
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
            with recorder.task(label=self.name, inline=inline):
                tasks: List[int] = []
                for group in plan.groups:
                    with recorder.task(
                        deps=[tasks[index] for index in group.deps],
                        label=group.label,
                        inline=inline,
                    ) as group_task:
                        step = plan.steps[group.start]
                        if step.geometry is None:  # a whole rule: alone
                            self._apply_once(
                                state, step.rule, plan.env, views,
                                plan.tunables, step.region_bounds,
                            )
                        else:
                            steps = plan.steps[group.start : group.stop]
                            self._run_steps(state, plan, steps, views, hit)
                    tasks.append(group_task)
        finally:
            state.inline = outer_inline
        return outputs

    def scheduled_segments(
        self, env: Dict[str, int], options: Sequence[int]
    ) -> Iterator[Tuple[Site, Optional[RuleIR], Bounds]]:
        """The schedule walk: ``(site, fallback, bounds)`` for every
        non-empty choice-grid segment in dependency (schedule) order,
        with the option ``options`` decided for it (one per segment of
        ``segment_order``), the :class:`Site` of its primary rule and
        its fallback rule resolved, the primary's size guards checked
        and the segment's concrete ``[lo, hi)`` bounds computed.  Walked
        once per plan built."""
        for segment, index in zip(self.segment_order, options):
            bounds = segment.box.concrete(env)
            if any(hi <= lo for lo, hi in bounds):
                continue
            if not (0 <= index < len(segment.options)):
                key = site_key(self.name, segment.matrix, segment.index)
                raise ExecutionError(
                    f"{self.name}: configuration picks option {index} at "
                    f"{key}, but the site has {len(segment.options)} options"
                )
            option = segment.options[index]
            site = self.sites[segment.key, option.primary]
            fallback = (
                self.ir.rules[option.fallback]
                if option.fallback is not None
                else None
            )
            guard = site.rule.failed_size_guard(env)
            if guard is not None:
                raise ExecutionError(
                    f"{self.name} {site.rule.label}: size constraint "
                    f"{guard} >= 0 fails for {dict(env)}"
                )
            yield site, fallback, bounds

    def _default_selector(self, segment: Segment) -> Selector:
        """Untuned default: the first non-recursive option (guaranteed to
        terminate); falls back to option 0."""
        for index, option in enumerate(segment.options):
            if not self.ir.rules[option.primary].is_recursive:
                return Selector.static(index)
        return Selector.static(0)

    # -- instance rules --------------------------------------------------------

    def geometry_for(
        self,
        segment: Segment,
        rule: RuleIR,
        env: Dict[str, int],
        segment_bounds: Bounds,
        sink=None,
    ) -> Geometry:
        """Iteration geometry, cached per (segment, rule, size-env) —
        ``segment_bounds`` is itself a function of ``env``, so it does
        not enter the key.  Called while a plan is built; a replayed
        plan holds the geometry it found here."""
        key = geometry_key(segment.key, rule.rule_id, env)
        geometry = self._geom_cache.get(key)
        if geometry is not None:
            if sink is not None:
                sink.count("exec.geom_cache_hits")
            return geometry
        site = self.site(segment, rule)
        geometry = build_geometry(
            site.ranges(env, segment_bounds), site.order[0], *site.split
        )
        before = self._geom_cache.evictions
        self._geom_cache[key] = geometry
        if sink is not None:
            sink.count("exec.geom_cache_misses")
            evicted = self._geom_cache.evictions - before
            if evicted:
                sink.count("exec.geom_cache_evictions", evicted)
        return geometry

    def tunables_at(
        self, config: ChoiceConfig, problem_size: int
    ) -> Dict[str, int]:
        """Resolved user tunables at a problem size (once per plan)."""
        return {
            t.name: config.tunable_at(
                f"{self.name}.{t.name}",
                problem_size,
                t.default if t.default is not None else t.lo,
            )
            for t in self.ir.tunables
        }

    def _run_steps(
        self,
        state: _EngineState,
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
                self._vector_leaf(state, plan, step, step.plan, views, rows)
                if step.plan is not None
                else self._instance_leaf(state, plan, step, views, rows)
            )
        for _row in lockstep(steps, leaves):
            if rows[1]:
                rows[0] = rows[1]
                rows[1] = []

    def _instance_leaf(
        self,
        state: _EngineState,
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
            self._interp_block_runner
            if kernel is None
            else self._closure_block_runner
        )(state, plan, step, views)
        fused = (
            kernel is not None
            and not kernel.uses_call
            and step.fallback is None
        )
        recorder = state.recorder
        inline = state.inline
        blocks = step.blocks

        def leaf(chain_values: Tuple[int, ...]) -> None:
            previous, tasks = rows
            for label, instances in blocks:
                if fused:
                    block_task = recorder.record_leaf(
                        previous, label, inline,
                        apply_block(chain_values, instances),
                    )
                else:
                    with recorder.task(
                        deps=previous, label=label, inline=inline
                    ) as block_task:
                        work = apply_block(chain_values, instances)
                        if work is not None:
                            recorder.charge(work)
                tasks.append(block_task)

        return leaf

    def _where_failure(
        self,
        rule: RuleIR,
        geometry: Geometry,
        chain_values: Tuple[int, ...],
        values: Tuple[int, ...],
    ) -> ExecutionError:
        """The error for an instance whose where-clause rejects it with
        no fallback rule to catch it (same text on every leaf path)."""
        assignment = dict(zip(geometry.chain_vars, chain_values))
        assignment.update(zip(geometry.free_vars, values))
        return ExecutionError(
            f"{self.name} {rule.label}: where-clause fails "
            f"at {assignment} and no fallback exists"
        )

    def _interp_block_runner(
        self,
        state: _EngineState,
        plan: RunPlan,
        step: PlanStep,
        views: Dict[str, MatrixView],
    ) -> Callable[[Tuple[int, ...], Sequence[Tuple[int, ...]]], None]:
        """Reference path: the rule-body interpreter, one call per cell.

        One mutable instance env is reused across all instances;
        ``_apply_once`` never leaks it into anything that outlives the
        call.
        """
        rule, fallback, geometry = step.rule, step.fallback, step.geometry
        chain_vars = geometry.chain_vars
        free_vars = geometry.free_vars
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
                if rule.residual_where and not rule.residual_ok(
                    instance_env
                ):
                    if fallback is None:
                        raise self._where_failure(
                            rule, geometry, chain_values, values
                        )
                    chosen = fallback
                self._apply_once(
                    state, chosen, instance_env, views, tunables
                )

        return apply_block

    def _closure_block_runner(
        self,
        state: _EngineState,
        plan: RunPlan,
        step: PlanStep,
        views: Dict[str, MatrixView],
    ) -> Callable[
        [Tuple[int, ...], Sequence[Tuple[int, ...]]], Optional[float]
    ]:
        """Lowered path: one call per block into the site's generated
        loop, which hands each cell its where-clause rejects back here,
        in place, for the fallback rule to run on the interpreter.  The
        block's work comes back as one sum (identical task totals, since
        per-instance charges are summed within the block's task either
        way), ``None`` when it accepted no cell."""
        rule, fallback, geometry = step.rule, step.fallback, step.geometry
        kernel = step.kernel
        env, tunables = plan.env, plan.tunables
        n_chain = len(geometry.chain_vars)

        def reject(*values: int) -> None:
            if fallback is None:
                raise self._where_failure(
                    rule, geometry, values[:n_chain], values[n_chain:]
                )
            self._apply_once(
                state, fallback, {**env, **dict(zip(kernel.params, values))},
                views, tunables,
            )

        block = kernel.maker(
            env,
            tunables,
            {name: views[name].to_numpy() for name in kernel.matrices},
            lambda name, args: self._call_sibling(state, name, args),
            reject,
            geometry.var_ranges,
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
        self,
        state: _EngineState,
        plan: RunPlan,
        step: PlanStep,
        vector: VectorPlan,
        views: Dict[str, MatrixView],
        rows: List[List[int]],
    ) -> Callable[[Tuple], None]:
        """Vector path: ``leaf(item)`` is one task (behind ``rows[0]``,
        added to ``rows[1]``, as :meth:`_instance_leaf`) and one call of
        the site's step — an in-place ufunc chain the step itself runs
        in cache-sized strips — per (chain step, tile) item of
        :meth:`VectorPlan.sweep`.  Untiled (``step.tiles`` is
        ``None``) the sweep is the single full-extent tile — one task per
        chain step; with the ``(tile sizes, interchange)`` of
        :meth:`Site.tiles` the free space is cut into cache-sized blocks.
        Bit-identical results either way; a *different* (cheaper) task
        graph and work model than the per-cell paths — that difference is
        exactly what makes the leaf path worth tuning.  A step's own
        tasks form a single sequential chain, which is always a legal
        schedule of the recorded graph.  ``vector`` (``step.plan``) is
        the site's one batch-axis kernel, run here at batch 1."""
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
        self,
        state: _EngineState,
        rule: RuleIR,
        env: Dict[str, int],
        views: Dict[str, MatrixView],
        tunables: Dict[str, int],
        region_bounds: Optional[Tuple[Bounds, ...]] = None,
    ) -> None:
        """Run ``rule`` once under ``env``.  ``region_bounds`` are the
        concrete bounds of ``rule.all_regions`` when a plan already holds
        them (whole rules: a function of the sizes only); per-instance
        applications derive them from ``env`` here."""
        state.applications += 1
        plan_env = region_bounds is not None  # else a mutable instance env
        if region_bounds is None:
            region_bounds = [
                region.box.concrete(env) for region in rule.all_regions
            ]
        folds = self._storage_folds
        if folds:
            region_bounds = [
                self._slot_bounds(region.matrix, bounds, env)
                if region.matrix in folds
                else bounds
                for region, bounds in zip(rule.all_regions, region_bounds)
            ]
        bindings: Dict[str, object] = {
            region.bind_name: _region_view(
                region, bounds, views[region.matrix]
            )
            for region, bounds in zip(rule.all_regions, region_bounds)
        }

        if rule.native_body is not None:
            rule.native_body(NativeContext(
                self, state, bindings, env if plan_env else dict(env), tunables
            ))
            state.recorder.charge(rule.base_work)
            return

        scope_bindings: Dict[str, object] = {}
        scope_bindings.update(env)
        scope_bindings.update(tunables)
        scope_bindings.update(bindings)
        scope = Scope(
            scope_bindings,
            call_transform=lambda name, args: self._call_sibling(
                state, name, args
            ),
        )
        execute(rule.body, scope)
        state.recorder.charge(rule.base_work + scope.ops)

    def _slot_bounds(
        self, matrix: str, bounds: Bounds, env: Dict[str, int]
    ) -> Bounds:
        """The bounds of a cell of folded ``matrix`` in its storage: the
        plane, checked against the declared extent (with the error an
        unfolded view raises), becomes its slot ``plane % window``."""
        axis, window = self._storage_folds[matrix]
        plane = bounds[axis][0]
        dims = self.ir.matrices[matrix].dims
        if not 0 <= plane < dims[axis].eval_floor(env):
            raise IndexError(
                f"cell{tuple(lo for lo, _ in bounds)} outside view of "
                f"shape {tuple(dim.eval_floor(env) for dim in dims)}"
            )
        slot = plane % window
        return (*bounds[:axis], (slot, slot + 1), *bounds[axis + 1:])

    def _call_frame(
        self, state: _EngineState, name: str, args: Sequence[ArrayLike]
    ) -> Dict[str, Matrix]:
        """The one sibling-call path: run transform ``name`` on ``args``
        (declared order) as a frame of this run."""
        program = self.program
        callee = program.transforms.get(name) or program.transform(name)
        return callee._execute(state, callee._bind(args))[0]

    def _call_sibling(
        self, state: _EngineState, name: str, args: Sequence[ArrayLike],
        caller: str = "in an expression",
    ) -> MatrixView:
        """:meth:`_call_frame` for a caller that takes one output."""
        outputs = self._call_frame(state, name, args)
        if len(outputs) != 1:
            raise ExecutionError(
                f"call to {name!r} {caller} requires exactly one output, "
                f"it has {len(outputs)}"
            )
        return next(iter(outputs.values())).whole()


# ---------------------------------------------------------------------------
# Native rule bodies
# ---------------------------------------------------------------------------


class NativeContext:
    """The interface handed to native (Python) rule bodies.

    Provides the bound region views, size variables, tunables, work
    accounting, parallel task structure, and calls to other transforms —
    everything the embedded C++ of the original could reach through the
    runtime library.
    """

    def __init__(
        self,
        engine: CompiledTransform,
        state: _EngineState,
        bindings: Dict[str, object],
        env: Dict[str, int],
        tunables: Dict[str, int],
    ) -> None:
        self._engine = engine
        self._state = state
        self._bindings = bindings
        self._env = env
        self._tunables = tunables

    def __getitem__(self, name: str) -> MatrixView:
        if name not in self._bindings:
            raise ExecutionError(f"no binding named {name!r}")
        return self._bindings[name]  # type: ignore[return-value]

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

    @property
    def config(self) -> ChoiceConfig:
        return self._state.config

    def charge(self, work: float) -> None:
        """Charge abstract work units to the current task."""
        self._state.recorder.charge(work)

    def call(self, name: str, *inputs: ArrayLike) -> MatrixView:
        """Run another transform (or this one recursively) and return its
        single output as a view."""
        return self._engine._call_sibling(
            self._state, name, inputs, "from a native rule body"
        )

    def call_multi(self, name: str, *inputs: ArrayLike) -> Dict[str, Matrix]:
        """Run a transform with multiple outputs."""
        return self._engine._call_frame(self._state, name, inputs)

    def parallel(self, *thunks: Callable[[], object]) -> List[object]:
        """Run thunks as sibling tasks (parallel in the task graph; the
        scheduler simulator may overlap them)."""
        task, inline = self._state.recorder.task, self._state.inline
        results: List[object] = []
        for index, thunk in enumerate(thunks):
            with task(label=f"par{index}", inline=inline):
                results.append(thunk())
        return results

    def spawn(self, thunk: Callable[[], object]) -> object:
        """Run one thunk in a child task."""
        return self.parallel(thunk)[0]


# ---------------------------------------------------------------------------
# static specialization
# ---------------------------------------------------------------------------


def specialize(
    program: CompiledProgram, config: ChoiceConfig
) -> CompiledProgram:
    """Static code generation mode: bake ``config`` into the program.

    The returned program carries a frozen copy of ``config`` and its
    content key, computed here once; its transforms' ``run`` ignores
    any config passed at run time (matching the original's
    statically-compiled binaries, where the C++ compiler could optimize
    away dead choices) and keys run plans by that one key, so a warm
    call never reads the configuration at all: input shapes → cached
    :class:`RunPlan` → replay.
    """
    static = CompiledProgram.__new__(CompiledProgram)
    static.ir = program.ir
    frozen = config.copy()
    static.static = (frozen, frozen.key())
    static.transforms = {}
    for name, compiled in program.transforms.items():
        # Same IR, analyses and (shared) caches; the call graph the
        # clone recurses through — and so the plans, which name their
        # transform — are the static program's.
        clone = CompiledTransform.__new__(CompiledTransform)
        clone.__dict__.update(compiled.__dict__)
        clone.program = static
        clone._plan_cache = LRUCache(_PLAN_CACHE_LIMIT)
        static.transforms[name] = clone
    return static


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _as_view(value: ArrayLike) -> MatrixView:
    if isinstance(value, MatrixView):
        return value
    if isinstance(value, Matrix):
        return value.whole()
    return Matrix.from_array(value).whole()


def _region_view(
    region: RegionIR, bounds: Bounds, base: MatrixView
) -> MatrixView:
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
