"""Choice grid construction (paper §3.1, phase 3).

The choice grid divides every non-input matrix into rectilinear segments
within which a uniform set of rules is applicable.  Segment boundaries
come from sorting the symbolic bounds of all rules' applicable regions
(the inference-system sort the paper delegates to Maxima).

Rule priorities are applied per segment: only rules of minimal priority
survive.  Rules carrying residual ``where`` predicates are *restricted*:
they cannot stand alone, so each is packaged into a meta-rule pairing it
with an unrestricted fallback that covers the cells the predicate
rejects (the paper's meta-rule construction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.language.errors import CompileError
from repro.symbolic import Box, Interval
from repro.symbolic.expr import Affine, SymbolicCompareError, sort_bounds

from repro.compiler.ir import ROLE_INPUT, TransformIR


@dataclass(frozen=True)
class ChoiceOption:
    """One selectable way to compute a segment.

    ``primary`` is a rule id; ``fallback`` (when set) handles instances
    where the primary's residual where-predicate fails — i.e. this option
    is a meta-rule.
    """

    primary: int
    fallback: Optional[int] = None

    def describe(self, transform: TransformIR) -> str:
        primary = transform.rules[self.primary].label
        if self.fallback is None:
            return primary
        return f"{primary}|{transform.rules[self.fallback].label}"


@dataclass
class Segment:
    """A rectilinear region of a matrix with its uniform choice set."""

    matrix: str
    index: int
    box: Box
    options: Tuple[ChoiceOption, ...]

    @property
    def key(self) -> str:
        """Stable identifier used in configuration files."""
        return f"{self.matrix}.{self.index}"


@dataclass
class ChoiceGrid:
    """Choice grids of every computed (non-input) matrix.

    ``order_guards`` holds affine expressions that must be >= 0 at run
    time: they record boundary orderings that could not be proven
    symbolically and were assumed from a large probe size (e.g. ``n - 1
    >= 1`` when a rule's applicable region starts at 1 and another ends
    at ``n - 1``).  The engine rejects inputs violating them instead of
    silently mis-partitioning the matrix.
    """

    segments: Dict[str, List[Segment]]
    order_guards: List[Affine]

    def failed_order_guard(self, env) -> Optional[Affine]:
        """The first ordering guard violated at sizes ``env`` (the engine
        rejects such inputs), or None."""
        return next(
            (g for g in self.order_guards if g.eval_floor(env) < 0), None
        )

    def all_segments(self) -> List[Segment]:
        return [seg for segs in self.segments.values() for seg in segs]

    def segment(self, matrix: str, index: int) -> Segment:
        return self.segments[matrix][index]


def build_choice_grid(transform: TransformIR) -> ChoiceGrid:
    """Build the choice grid (applicable regions must be computed).

    Two passes: the first orders every boundary (collecting runtime
    guards for orderings that needed the probe-size heuristic); the
    guards are then folded into the transform's size assumptions — they
    are checked at run time, so the rest of compilation may rely on
    them — and the second pass builds segments and their option sets
    under the strengthened assumptions.
    """
    computed = [
        m for m in transform.matrices.values() if m.role != ROLE_INPUT
    ]
    guards: List[Affine] = []
    for matrix in computed:
        _collect_cut_guards(transform, matrix.name, guards)
    for guard in guards:
        variables = guard.variables()
        if len(variables) != 1:
            continue
        var = variables[0]
        if guard.coefficient_sign(var) > 0:
            # c*var + r >= 0 with c > 0: var >= ceil(-r/c).
            transform.assumptions = transform.assumptions.with_at_least(
                var, guard.solved_for(var).eval_ceil({})
            )
    grids: Dict[str, List[Segment]] = {}
    for matrix in computed:
        grids[matrix.name] = _grid_for_matrix(transform, matrix.name, [])
    return ChoiceGrid(grids, guards)


def _collect_cut_guards(
    transform: TransformIR, matrix_name: str, guards: List[Affine]
) -> None:
    """Pass 1: order the boundaries of one matrix, recording guards."""
    matrix = transform.matrices[matrix_name]
    assumptions = transform.assumptions
    relevant = [
        rule for rule in transform.rules if matrix_name in rule.applicable
    ]
    for dim in range(matrix.ndim):
        cuts = [Affine.const(0), matrix.dims[dim]]
        for rule in relevant:
            interval = rule.applicable[matrix_name].intervals[dim]
            cuts.extend(_clamped(interval, matrix.dims[dim], assumptions))
        _ordered_cuts(
            cuts, assumptions, guards, f"{transform.name}.{matrix_name}[{dim}]"
        )


#: probe value per size variable for heuristic boundary ordering
_PROBE = 1009


def _ordered_cuts(
    cuts: List[Affine],
    assumptions,
    guards: List[Affine],
    context: str,
) -> Tuple[Affine, ...]:
    """Sort boundary cuts, falling back to a probe-size ordering.

    When the exact symbolic sort fails, cuts are ordered by their value
    at a large probe size; every consecutive pair that is not provably
    ordered is recorded as a runtime guard (``next - prev >= 0``)."""
    try:
        return sort_bounds(cuts, assumptions)
    except SymbolicCompareError:
        pass
    unique: List[Affine] = []
    for cut in cuts:
        if not any(cut == seen for seen in unique):
            unique.append(cut)
    env = {
        var: _PROBE
        for cut in unique
        for var in cut.variables()
    }
    unique.sort(key=lambda cut: cut.evaluate(env))
    for prev, nxt in zip(unique, unique[1:]):
        if not prev.always_le(nxt, assumptions):
            guards.append(nxt - prev)
    return tuple(unique)


def _grid_for_matrix(
    transform: TransformIR, matrix_name: str, guards: List[Affine]
) -> List[Segment]:
    matrix = transform.matrices[matrix_name]
    assumptions = transform.assumptions
    relevant = [
        rule for rule in transform.rules if matrix_name in rule.applicable
    ]
    if not relevant:
        raise CompileError(
            f"{transform.name}: no rule computes matrix {matrix_name!r}",
            line=matrix.line or transform.line,
            column=matrix.column or transform.column,
            code="PB301",
            hint=(
                f"add a rule with a to({matrix_name}...) binding, or drop "
                f"the matrix from the transform header"
            ),
        )

    # Boundary expressions per dimension: matrix edges plus every rule's
    # applicable-region bounds, clamped into [0, size].
    per_dim_cuts: List[Tuple[Affine, ...]] = []
    for dim in range(matrix.ndim):
        cuts = [Affine.const(0), matrix.dims[dim]]
        for rule in relevant:
            interval = rule.applicable[matrix_name].intervals[dim]
            cuts.extend(_clamped(interval, matrix.dims[dim], assumptions))
        per_dim_cuts.append(
            _ordered_cuts(
                cuts,
                assumptions,
                guards,
                f"{transform.name}.{matrix_name}[{dim}]",
            )
        )

    segments: List[Segment] = []
    dim_intervals = [
        [Interval(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        for cuts in per_dim_cuts
    ]
    if matrix.ndim == 0:
        cells = [Box([])]
    else:
        cells = [Box(combo) for combo in itertools.product(*dim_intervals)]

    for box in cells:
        options = _options_for_segment(transform, matrix_name, box, relevant)
        if not options:
            if box.is_empty(assumptions) is True:
                continue  # provably empty sliver, drop it
            raise CompileError(
                f"{transform.name}: no rule covers region {box} of "
                f"matrix {matrix_name!r}",
                line=matrix.line or transform.line,
                column=matrix.column or transform.column,
                code="PB301",
                hint=(
                    "extend an existing rule's applicable region or add a "
                    "(possibly secondary) rule covering the gap"
                ),
            )
        segments.append(
            Segment(
                matrix=matrix_name,
                index=len(segments),
                box=box,
                options=options,
            )
        )
    return segments


def _clamped(interval: Interval, size: Affine, assumptions) -> List[Affine]:
    """Applicable bounds clipped to the matrix extent [0, size]."""
    bounds = []
    for expr in (interval.lo, interval.hi):
        if expr.always_le(0, assumptions):
            expr = Affine.const(0)
        elif size.always_le(expr, assumptions):
            expr = size
        bounds.append(expr)
    return bounds


def _options_for_segment(
    transform: TransformIR,
    matrix_name: str,
    box: Box,
    relevant,
) -> Tuple[ChoiceOption, ...]:
    assumptions = transform.assumptions
    applicable = []
    for rule in relevant:
        rule_box = rule.applicable[matrix_name]
        if rule.is_instance_rule:
            # Instance rules apply per cell: any segment inside the
            # applicable region may choose them.
            if rule_box.contains(box, assumptions):
                applicable.append(rule)
        else:
            # Whole-region rules write their entire to-region in one
            # application, so they are valid only for the segment that
            # exactly matches it (otherwise they would write outside
            # the segment being computed).
            if rule_box.contains(box, assumptions) and box.contains(
                rule_box, assumptions
            ):
                applicable.append(rule)
    if not applicable:
        return ()
    min_priority = min(rule.priority for rule in applicable)
    top = [rule for rule in applicable if rule.priority == min_priority]
    lower = [rule for rule in applicable if rule.priority > min_priority]

    options: List[ChoiceOption] = []
    for rule in top:
        if not rule.residual_where:
            options.append(ChoiceOption(primary=rule.rule_id))
    # Meta-rules: a restricted top-priority rule needs an unrestricted
    # fallback (same or lower priority) for the cells its predicate rejects.
    unrestricted_fallbacks = [
        rule for rule in top + lower if not rule.residual_where
    ]
    for rule in top:
        if rule.residual_where:
            for fallback in unrestricted_fallbacks:
                if fallback.rule_id != rule.rule_id:
                    options.append(
                        ChoiceOption(
                            primary=rule.rule_id, fallback=fallback.rule_id
                        )
                    )
    return tuple(options)
