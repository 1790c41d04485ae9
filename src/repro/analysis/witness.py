"""Witness enumeration shared by the verifier passes.

The error-severity checks (bounds, races, coverage) are *witness-based*:
instead of proving properties over all sizes symbolically — where any
over-approximation would flag correct programs — they enumerate the
small size environments admitted by the transform's assumptions and
runtime guards, replay the engine's exact geometry (segment boxes,
instance ranges, residual-predicate fallbacks, region views) at each,
and report only violations that come with a concrete (sizes, instance)
witness.  Soundness follows by construction: every error names an input
size at which the runtime itself would fault or double-write; a
transform whose executions are well-behaved at the probed sizes is
never flagged.  The symbolic layer still does the admitting: assumption
ranges, choice-grid order guards, and per-rule size guards decide which
environments count, so guarded programs are not blamed for sizes they
already reject.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.language.interp import Scope, evaluate

SizeEnv = Dict[str, int]
Cell = Tuple[int, ...]


@dataclass(frozen=True)
class WitnessBudget:
    """How much concrete probing each pass may do per transform.

    ``max_size`` is the number of values probed per size variable above
    its assumed minimum; caps keep the sweep polynomial on multi-variable
    transforms.  Anything skipped for budget reasons is skipped silently
    only in the sense of "not checked" — budgets never produce findings.
    """

    max_size: int = 5
    max_envs: int = 48
    max_instances: int = 2048
    max_cells: int = 4096

    def per_var_span(self, num_vars: int) -> int:
        if num_vars <= 1:
            return self.max_size
        # Keep the env grid near max_envs: span^vars <= ~max_envs.
        span = int(self.max_envs ** (1.0 / num_vars))
        return max(1, min(self.max_size, span))


#: Default budget used by `repro check` and the pipeline hook.
DEFAULT_BUDGET = WitnessBudget()


def size_envs(compiled, budget: WitnessBudget = DEFAULT_BUDGET) -> List[SizeEnv]:
    """Admitted size environments, smallest total size first.

    Starts each variable at its assumed minimum (transform assumptions
    already include the choice grid's folded order guards) and filters
    out environments the engine would reject at run time via the grid's
    remaining order guards.
    """
    ir = compiled.ir
    variables = list(ir.size_vars)
    if not variables:
        return [{}]
    span = budget.per_var_span(len(variables))
    ranges: List[List[int]] = []
    for var in variables:
        lo, hi = ir.assumptions.range_of(var)
        start = 0 if lo is None else max(0, lo)
        stop = start + span
        if hi is not None:
            stop = min(stop, hi)
        ranges.append(list(range(start, stop + 1)))
    combos = sorted(
        itertools.product(*ranges), key=lambda combo: (sum(combo), combo)
    )
    envs: List[SizeEnv] = []
    for combo in combos:
        env = dict(zip(variables, combo))
        if not order_guards_hold(compiled, env):
            continue
        envs.append(env)
        if len(envs) >= budget.max_envs:
            break
    return envs


def order_guards_hold(compiled, env: SizeEnv) -> bool:
    """Would the engine accept these sizes? (mirrors the plan builder)."""
    return all(
        guard.eval_floor(env) >= 0 for guard in compiled.grid.order_guards
    )


def size_guards_hold(rule, env: SizeEnv) -> bool:
    """Would the schedule walk accept this rule at these sizes?"""
    return all(guard.eval_floor(env) >= 0 for guard in rule.size_guards)


def matrix_shape(compiled, matrix_name: str, env: SizeEnv) -> Tuple[int, ...]:
    """Concrete extents, exactly as the engine allocates them."""
    mat = compiled.ir.matrices[matrix_name]
    return tuple(dim.eval_floor(env) for dim in mat.dims)


def residual_ok(rule, env: Dict[str, int]) -> bool:
    """The engine's residual-where predicate (see `_residual_ok`)."""
    scope = Scope(dict(env))
    return all(
        float(evaluate(cond, scope)) != 0 for cond in rule.residual_where
    )


def instance_assignments(
    compiled,
    segment,
    rule,
    env: SizeEnv,
    budget: WitnessBudget = DEFAULT_BUDGET,
) -> Optional[List[Dict[str, int]]]:
    """Every instance assignment the engine would run for ``rule`` in
    ``segment`` at sizes ``env``; ``None`` when the space exceeds the
    budget or cannot be solved (skip, never report).

    Whole-region rules apply once: the result is ``[{}]``.
    """
    if not rule.is_instance_rule:
        return [{}]
    seg_bounds = segment.box.concrete(env)
    if any(hi <= lo for lo, hi in seg_bounds):
        return []
    try:
        ranges = compiled.site(segment, rule).ranges(env, seg_bounds)
    except Exception:
        # Coupled output coordinates / undecidable clips: the engine would
        # fail the same way at run time; not a bounds/coverage finding.
        return None
    volume = 1
    for var in rule.rule_vars:
        lo, hi = ranges[var]
        volume *= max(0, hi - lo)
        if volume > budget.max_instances:
            return None
    assignments = []
    for values in itertools.product(
        *(range(*ranges[var]) for var in rule.rule_vars)
    ):
        assignments.append(dict(zip(rule.rule_vars, values)))
    return assignments


def region_cells(
    bounds: Sequence[Tuple[int, int]],
    budget: WitnessBudget = DEFAULT_BUDGET,
) -> Optional[List[Cell]]:
    """All cells of a concrete box; ``None`` when over budget."""
    volume = 1
    for lo, hi in bounds:
        volume *= max(0, hi - lo)
        if volume > budget.max_cells:
            return None
    return list(itertools.product(*(range(lo, hi) for lo, hi in bounds)))


def describe_env(env: SizeEnv, assignment: Optional[Dict[str, int]] = None) -> str:
    """Human-readable witness: ``n=4, i=2``."""
    parts = [f"{var}={value}" for var, value in sorted(env.items())]
    if assignment:
        parts.extend(f"{var}={value}" for var, value in sorted(assignment.items()))
    return ", ".join(parts) if parts else "(no sizes)"


def describe_bounds(name: str, bounds: Sequence[Tuple[int, int]]) -> str:
    """Human-readable concrete box: ``A[2:4, 0:1]``."""
    if not bounds:
        return f"{name}[scalar]"
    inner = ", ".join(f"{lo}:{hi}" for lo, hi in bounds)
    return f"{name}[{inner}]"


def iter_segment_options(compiled) -> Iterator[Tuple[object, object]]:
    """(segment, option) pairs across all grids of a compiled transform."""
    for segment in compiled.grid.all_segments():
        for option in segment.options:
            yield segment, option
