"""Run plans: everything a frame decides before it touches data (paper
§3.1 phase 5).

A frame's plan is a pure function of its transform's facts (schedule
order, sites, lockstep groups, geometry — :mod:`repro.compiler.codegen`),
its :class:`FrameSizes` and the :class:`FrameDecisions` its configuration
makes at the frame's problem size.  :func:`build_plan` computes it once
into an immutable :class:`RunPlan`, the one thing planning hands to
execution: :mod:`repro.compiler.leaves` replays it serially and
:mod:`repro.batch.stacked` at batch B.  Nothing here touches matrix
data or imports the execution side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from repro.compiler.config import (
    BLOCK_SIZE, FUSE, INTERCHANGE, LEAF_PATH, SEQ_CUTOFF, TILE_I, TILE_J, VECTORIZE_CUTOFF,
    ChoiceConfig, Selector, site_key,
)
from repro.compiler.ir import RuleIR
from repro.engine_fast import LEAF_INTERP, LEAF_VECTOR, Geometry, RuleKernel, VectorPlan
from repro.language.errors import ExecutionError

if TYPE_CHECKING:
    from repro.compiler.codegen import CompiledTransform, Site

Bounds = Tuple[Tuple[int, int], ...]


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
    resolved at the frame's problem size by :func:`decisions`.  Equal
    decisions at equal shapes and sizes build equal plans, so with them
    they are the plan cache's second key: configurations that differ
    only where this frame does not look (another size band, another
    transform) share a plan."""

    #: ``__fuse__`` is on and the transform has a ``fused_variant()``:
    #: the frame runs the variant, and the fields below are resolved
    #: against it
    fuse: bool
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


class FrameSizes(NamedTuple):
    """A frame's size facts, the leading fields of its :class:`RunPlan`:
    computed once per (input shapes, explicit sizes) by the transform's
    size binding, whatever the configuration."""

    env: Dict[str, int]
    frame: Tuple[str, Tuple[Tuple[str, int], ...]]  # recursion-guard key
    #: (name, shape, is_output, storage label) per allocated matrix;
    #: the shape is the *physical* one: a folded ``through`` matrix
    #: keeps only its window of planes
    allocations: Tuple[Tuple[str, Tuple[int, ...], bool, str], ...]
    #: cells of the call's inputs and *declared* matrices
    problem_size: int


@dataclass(frozen=True, slots=True)
class RunPlan:
    """One frame of one transform, decided.  Immutable and free of
    matrix data: scalars plus references into the transform's shared
    :class:`Geometry`/:class:`VectorPlan`/:class:`RuleIR` objects, so
    any number of threads may replay one plan at once.  Only a per-cell
    step holds anything proportional to its iteration count: the block
    slices (one reference per instance) of the instance product that
    lives on the shared geometry, built when the first such step is
    planned."""

    #: whose frame this is: the called transform, or its
    #: ``fused_variant()`` where the decisions ``fuse``
    transform: "CompiledTransform"
    env: Dict[str, int]
    frame: Tuple[str, Tuple[Tuple[str, int], ...]]
    allocations: Tuple[Tuple[str, Tuple[int, ...], bool, str], ...]
    problem_size: int
    #: this frame is below the sequential cutoff (a caller's verdict is
    #: inherited at run time on top of it)
    inline: bool
    tunables: Dict[str, int]
    steps: Tuple[PlanStep, ...]
    groups: Tuple[PlanGroup, ...]


def decisions(
    transform: "CompiledTransform", config: ChoiceConfig, problem_size: int
) -> FrameDecisions:
    """What ``config`` decides for a frame of ``problem_size``: the one
    place a plan reads its configuration.  Fusion is decided first; a
    fused frame resolves everything else against the variant, at the
    called transform's problem size.  Knobs the frame cannot obey are
    left out (``None``) — the leaf knobs where no rule runs per
    instance, the vector ones unless the leaf is vector — so configs
    that differ only there share one plan.  An untuned segment takes
    its first non-recursive option (guaranteed to terminate), else 0."""
    name = transform.name
    fuse = config.knob(name, FUSE) and transform.fused_variant() is not None
    if fuse:
        transform = transform.fused_variant()
    rules = transform.ir.rules
    leaf = vector = None
    if transform._per_instance:
        leaf = config.knob(name, LEAF_PATH, problem_size)
        vector = leaf == LEAF_VECTOR
    return FrameDecisions(
        fuse=fuse,
        options=tuple(
            (
                config.choice_for(site_key(name, segment.matrix, segment.index))
                or Selector.static(next((
                    index for index, option in enumerate(segment.options)
                    if not rules[option.primary].is_recursive
                ), 0))
            ).pick(problem_size)
            for segment in transform.segment_order
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
        tunables=tuple(transform.tunables_at(config, problem_size).items()),
    )


def build_plan(
    transform: "CompiledTransform",
    decided: FrameDecisions,
    sizes: FrameSizes,
    sink=None,
) -> RunPlan:
    """The :class:`RunPlan` of one frame: the schedule walk over every
    non-empty segment of ``transform.segment_order`` in dependency order,
    with the option ``decided`` for it, its primary rule's size guards
    checked, its geometry looked up and its leaf resolved.  Eager: a bad
    option index, a failing size guard or an unsolvable geometry on a
    late segment raises before any segment runs."""
    name, env = transform.name, sizes.env
    leaf = decided.leaf
    steps: List[PlanStep] = []
    groups: List[Tuple[List[str], set, int]] = []  # keys, deps, start
    position: Dict[str, int] = {}  # segment key -> its group
    for segment, index in zip(transform.segment_order, decided.options):
        bounds = segment.box.concrete(env)
        if any(hi <= lo for lo, hi in bounds):
            continue  # an empty segment has no step and no dependency edge
        if not (0 <= index < len(segment.options)):
            raise ExecutionError(
                f"{name}: configuration picks option {index} at "
                f"{site_key(name, segment.matrix, segment.index)}, but the "
                f"site has {len(segment.options)} options"
            )
        option = segment.options[index]
        site = transform.sites[segment.key, option.primary]
        rule = site.rule
        guard = rule.failed_size_guard(env)
        if guard is not None:
            raise ExecutionError(
                f"{name} {rule.label}: size constraint {guard} >= 0 fails "
                f"for {dict(env)}"
            )
        fallback = (
            None if option.fallback is None else transform.ir.rules[option.fallback]
        )
        key = segment.key
        if not steps or steps[-1].site.segment.key not in transform._lockstep.get(key, ()):
            groups.append(([], set(), len(steps)))
        keys, deps, _start = groups[-1]
        keys.append(key)
        deps.update(
            position[edge.src]
            for edge in transform.depgraph.edges_into(key)
            if edge.src in position and position[edge.src] != len(groups) - 1
        )
        position[key] = len(groups) - 1
        if not rule.is_instance_rule:
            steps.append(PlanStep(site, fallback, region_bounds=tuple(
                region.box.concrete(env) for region in rule.all_regions
            )))
            continue
        geometry = transform.geometry_for(segment, rule, env, bounds, sink=sink)
        # The configured leaf degrades gracefully: vector falls back to
        # closure when the site is not vectorizable (or below the
        # cutoff), closure to the interpreter when the rule has no
        # kernel.  The interpreter is always legal.
        vector = site.vector[0] if leaf == LEAF_VECTOR else None
        if vector is not None and geometry.step_volume >= decided.vectorize_cutoff:
            tiles = site.tiles(decided.tiles, geometry)
            steps.append(PlanStep(
                site, fallback, geometry=geometry, plan=vector, tiles=tiles,
                leaf_label=rule.label + ("[vec:tiled]" if tiles else "[vec]"),
                cell_work=rule.base_work + vector.static_ops,
            ))
            continue
        instances, block = geometry.free_products, decided.block
        steps.append(PlanStep(
            site, fallback, geometry=geometry,
            kernel=None if leaf == LEAF_INTERP else site.kernel,
            blocks=tuple(
                (f"{rule.label}[{start}]", instances[start : start + block])
                for start in range(0, len(instances), block)
            ),
            demoted=leaf == LEAF_VECTOR,
        ))
    return RunPlan(
        transform, *sizes,
        inline=decided.inline,
        tunables=dict(decided.tunables),
        steps=tuple(steps),
        groups=tuple(
            PlanGroup(f"{name}.{'+'.join(keys)}", tuple(sorted(deps)), start, start + len(keys))
            for keys, deps, start in groups
        ),
    )
