"""Code generation: the compiled transform and its facts (paper §3.1
phase 5).

A :class:`CompiledTransform` is the executable artifact, the analogue of
the generated C++.  It holds what a transform *is*: the IR, the
choice grid and dependency graph, one :class:`Site` per (segment,
primary rule) with its lazily derived order, schedule verdict, vector
plan and closure kernel, the storage verdicts, and the size-keyed
caches (size binding, geometry, run plans).  A call is split in two:

* planning (:mod:`repro.compiler.plan`) turns the frame's sizes and what
  the :class:`ChoiceConfig` decides at its problem size — possibly a
  different rule per region size, which is how autotuned recursive
  compositions arise — into an immutable :class:`RunPlan`, cached per
  (config content, input shapes, explicit sizes);
* execution (:mod:`repro.compiler.leaves`) replays that plan and
  records the task graph a work-stealing runtime would execute.

The :class:`RunPlan` is the one handoff between them.  Dynamic mode keys
plans by the content of the config handed to ``run``; static mode
(:func:`specialize`) bakes one configuration in and no longer consults
a config at run time.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine_fast import (
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
from repro.language.errors import CompileError, ExecutionError
from repro.runtime.matrix import Matrix, MatrixView
from repro.runtime.task import TaskGraph, TaskRecorder
from repro.symbolic import Affine, solve_bounds_for

from repro.compiler.choicegrid import ChoiceGrid, ChoiceOption, Segment, build_choice_grid
from repro.compiler.applicable import analyze_applicable_regions
from repro.compiler.config import INTERCHANGE, TILE_I, TILE_J, ChoiceConfig, site_key
from repro.compiler.depgraph import ChoiceDepGraph, build_dep_graph
from repro.compiler.ir import ROLE_OUTPUT, ProgramIR, RuleIR, ScheduleIR, TransformIR, build_ir
from repro.compiler.leaves import EngineState, run_frame
from repro.compiler.plan import Bounds, FrameSizes, RunPlan, build_plan, decisions

ArrayLike = Union[Matrix, MatrixView, np.ndarray, Sequence[float]]

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
    catches the rejected cells); fallback rules only ever run on the
    interpreter and have none.

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
    """One executable transform: IR, analyses, sites and caches."""

    def __init__(self, ir: TransformIR, program: CompiledProgram) -> None:
        self.ir = ir
        self.program = program
        #: declared input names, in order: what a sibling call binds
        self._input_names: Tuple[str, ...] = tuple(mat.name for mat in ir.inputs)
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
        # size-env), a frame's FrameSizes per (input shapes, explicit
        # sizes), run plans per (config content, input shapes, explicit
        # sizes) — are LRU-bounded: a long-lived serve daemon sees
        # arbitrarily many distinct input shapes.
        self._geom_cache: LRUCache = LRUCache(_GEOM_CACHE_LIMIT)
        self._size_cache: LRUCache = LRUCache(_GEOM_CACHE_LIMIT)
        self._plan_cache: LRUCache = LRUCache(_PLAN_CACHE_LIMIT)

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
        state = EngineState(config, config_key, recorder)
        outputs, _views, env = run_frame(self, state, self.bind_inputs(inputs), sizes)
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
        names = self._input_names
        if len(args) != len(names):
            raise ExecutionError(
                f"{self.name}: expected {len(names)} inputs, "
                f"got {len(args)}"
            )
        return {name: _as_view(arg) for name, arg in zip(names, args)}

    def bind_sizes_from_shapes(
        self,
        shapes: Sequence[Tuple[int, ...]],
        explicit: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, int]:
        """Size variables from the input *shapes* (declared order) and
        explicit ``sizes=``: the ``env`` of the frame's
        :class:`FrameSizes`, a public handle for callers that only need
        the binding."""
        shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        explicit = normalize_sizes(explicit)
        return dict(self._sizes((shapes, tuple(sorted(explicit.items())))).env)

    def _sizes(self, key: Tuple) -> FrameSizes:
        """The :class:`FrameSizes` of a frame on inputs of ``key[0]``
        (shapes) with explicit sizes ``key[1]`` (sorted items), cached
        per key: the iterative affine solve, the choice grid's order
        guards and the declared shapes are pure in it, and every
        configuration a tuner tries re-plans the same handful of shapes.
        Sizes that violate an order guard raise on every call and are
        never cached."""
        sizes = self._size_cache.get(key)
        if sizes is None:
            sizes = self._size_cache[key] = self._solve_sizes(*key)
        return sizes

    def _solve_sizes(
        self, shapes: Tuple[Tuple[int, ...], ...], explicit: Tuple
    ) -> FrameSizes:
        declared = self.ir.inputs
        if len(shapes) != len(declared):
            raise ExecutionError(
                f"{self.name}: expected {len(declared)} input shapes, "
                f"got {len(shapes)}"
            )
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
        guard = self.grid.failed_order_guard(env)
        if guard is not None:
            raise ExecutionError(
                f"{self.name}: sizes {dict(env)} violate the assumed "
                f"region ordering {guard} >= 0 (input too small for "
                f"this program's choice grid)"
            )
        # The problem size steering choice selection and the sequential
        # cutoff is the total cells across every matrix of the call: the
        # whole footprint (not just outputs) shrinks under *any*
        # recursive decomposition, including splits along reduction
        # dimensions that keep the output size constant.  It counts
        # *declared* cells, so folding storage moves no selector, cutoff
        # or task graph; a folded matrix is allocated as its window.
        problem_size = sum(map(math.prod, shapes))
        allocations = []
        for mat in self.ir.outputs + self.ir.throughs:
            shape = tuple(dim.eval_floor(env) for dim in mat.dims)
            problem_size += math.prod(shape)
            if mat.name in self._storage_folds:
                axis, window = self._storage_folds[mat.name]
                shape = (*shape[:axis], min(shape[axis], window), *shape[axis + 1:])
            allocations.append(
                (mat.name, shape, mat.role == ROLE_OUTPUT, f"{self.name}.{mat.name}")
            )
        return FrameSizes(
            env, (self.name, tuple(sorted(env.items()))), tuple(allocations), problem_size
        )

    # -- the engine -------------------------------------------------------------

    def fused_variant(self) -> Optional["CompiledTransform"]:
        """The verified fused rewrite of this transform, or ``None``.

        Built on first request: producer→consumer fusion is applied
        wherever the dependence analyzer proves PB601 and the result is
        re-verified by the error-severity passes.  ``None`` means the
        transform runs unfused no matter what ``__fuse__`` says.  The
        variant is planned by this transform (:func:`decisions`), never
        by itself.
        """
        return self._fused

    @functools.cached_property
    def _fused(self) -> Optional["CompiledTransform"]:
        from repro.rewrite.fuse import build_fused_variant

        return build_fused_variant(self)

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
        through ``KernelBuilder.point_index``, the interpreter through
        :mod:`repro.compiler.leaves`).  Not a choice: what may fold always does."""
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
        and :mod:`repro.batch.stacked` replays at batch B.  Cached per
        (config *content*, shapes, normalised ``sizes``), so a mutated
        config simply misses; a plan that fails to build (see
        :func:`~repro.compiler.plan.build_plan`) is not cached."""
        config = config or ChoiceConfig()
        shapes = tuple(tuple(int(d) for d in shape) for shape in shapes)
        return self._frame_plan(config, config.key(), shapes, sizes)[0]

    def _frame_plan(
        self, config, config_key, shapes, explicit_sizes, sink=None
    ) -> Tuple[RunPlan, bool]:
        """``(plan, served from cache?)``.  One LRU holds each plan under
        two keys: the config's content and its :class:`FrameDecisions`,
        each with the shapes and sizes.  A config-key miss resolves the
        decisions and reuses a plan built for equal ones.  A fused frame
        is planned here too: the variant's size binding supplies its
        allocations (and checks its grid's order guards), this frame's
        the problem size.  Unlocked on purpose: plans are immutable and
        equal for equal keys, so two threads that miss together build
        twice and either insert wins."""
        explicit = {} if explicit_sizes is None else normalize_sizes(explicit_sizes)
        sized = (shapes, tuple(sorted(explicit.items())))
        key = (config_key, *sized)
        plan = self._plan_cache.get(key)
        if plan is not None:
            return plan, True
        sizes = self._sizes(sized)
        decided = decisions(self, config, sizes.problem_size)
        plan = self._plan_cache.get((decided, *sized))
        hit = plan is not None
        if not hit:
            variant = self.fused_variant() if decided.fuse else None
            if variant is not None:
                sizes = variant._sizes(sized)._replace(problem_size=sizes.problem_size)
            plan = self._plan_cache[decided, *sized] = build_plan(
                variant or self, decided, sizes, sink
            )
        self._plan_cache[key] = plan
        return plan, hit

    @functools.cached_property
    def _per_instance(self) -> bool:
        """Whether any site runs its rule per instance: only such a step
        reads the leaf knobs."""
        return any(site.rule.is_instance_rule for site in self.sites.values())

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
    return MatrixView._whole(np.asarray(value, dtype=np.float64), "")


