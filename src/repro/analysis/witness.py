"""Witness enumeration shared by the verifier passes.

The witness-carrying checks (PB101, PB201-203, PB301, PB401, PB602,
PB605, PB607) do not prove properties over all sizes symbolically —
where any over-approximation would flag correct programs.  They read one
:class:`Replay` of the engine's exact geometry (segment boxes, instance
ranges, residual-predicate fallbacks, region views) at the small size
environments the transform's assumptions and runtime guards admit, and
report only violations that come with a concrete (sizes, instance)
witness.  Soundness follows by construction: every error names an input
size at which the runtime itself would fault or double-write; a
transform whose executions are well-behaved at the probed sizes is
never flagged, and guarded programs are not blamed for sizes they
already reject.  One rule, :meth:`Replay.admits`, decides which sizes
those are — for the enumerated environments and for the pinned one a
PB602/PB605/PB607 witness is replayed at
(:func:`repro.analysis.depend.validate_witness`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

SizeEnv = Dict[str, int]
Cell = Tuple[int, ...]
Bounds = Tuple[Tuple[int, int], ...]


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


class Application(NamedTuple):
    """One rule application the engine would run: ``rule`` — an option's
    primary, or its fallback where the residual where-clause rejects the
    instance — at ``assignment`` of its instance variables; ``env`` is
    the sizes plus that assignment."""

    rule: object
    env: SizeEnv
    assignment: Dict[str, int]

    def same_as(self, other: "Application") -> bool:
        return (
            self.rule.rule_id == other.rule.rule_id
            and self.assignment == other.assignment
        )


def _memoised(key):
    """A :class:`Replay` method answered once per ``key(*args)`` for the
    object's lifetime (``None`` — over budget — is an answer too)."""

    def wrap(method):
        @wraps(method)
        def cached(self, *args):
            memo_key = (method.__name__, *key(*args))
            try:
                return self._memo[memo_key]
            except KeyError:
                answer = self._memo[memo_key] = method(self, *args)
                return answer

        return cached

    return wrap


class Replay:
    """The engine's geometry of one compiled transform at every admitted
    size — the application model every witness pass reads.

    Admitted ``envs`` (smallest total size first; a method's ``e`` is an
    index into them), each segment's concrete box, instance spaces,
    applications and expanded cell boxes are derived once and memoised
    on the object (answers are shared: read them, never mutate them).  A
    ``Replay`` lives for one driver call: it is never stored on the
    compiled transform or in a module-level table.  Anything over
    ``budget`` is ``None`` — "not checked", never a finding.  ``envs``
    pins the sizes instead of enumerating them (validation replays a
    witness at its own sizes); those the engine refuses are dropped."""

    def __init__(
        self,
        compiled,
        budget: WitnessBudget = DEFAULT_BUDGET,
        envs: Optional[List[SizeEnv]] = None,
    ) -> None:
        self.compiled = compiled
        self.budget = budget
        self._memo: Dict[Tuple, object] = {}
        if envs is not None:
            self.envs = [env for env in envs if self.admits(env)]

    @cached_property
    def envs(self) -> List[SizeEnv]:
        """Admitted sizes: each variable starts at its assumed minimum
        (transform assumptions already include the choice grid's folded
        order guards); environments the engine would reject at run time
        via the grid's remaining order guards are filtered out."""
        ir, budget = self.compiled.ir, self.budget
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
            if not self.admits(env):
                continue
            envs.append(env)
            if len(envs) >= budget.max_envs:
                break
        return envs

    def admits(self, env: SizeEnv) -> bool:
        """Would the engine run at ``env``: every size variable, and
        nothing else, bound to an integer in its assumed range that
        passes the grid's order guards?"""
        ir = self.compiled.ir
        if set(env) != set(ir.size_vars):
            return False
        for var, value in env.items():
            lo, hi = ir.assumptions.range_of(var)
            if not isinstance(value, int) or value < max(0, lo or 0):
                return False
            if hi is not None and value > hi:
                return False
        return self.compiled.grid.failed_order_guard(env) is None

    def options(self) -> Iterator[Tuple[object, object]]:
        """(segment, option) pairs across all grids of the transform."""
        for segment in self.compiled.grid.all_segments():
            for option in segment.options:
                yield segment, option

    @_memoised(lambda segment, e: (segment.key, e))
    def box(self, segment, e: int) -> Bounds:
        """The segment's concrete box."""
        return segment.box.concrete(self.envs[e])

    @_memoised(lambda matrix, e: (matrix, e))
    def shape(self, matrix: str, e: int) -> Tuple[int, ...]:
        """Concrete extents, exactly as the engine allocates them."""
        env = self.envs[e]
        mat = self.compiled.ir.matrices[matrix]
        return tuple(dim.eval_floor(env) for dim in mat.dims)

    @_memoised(lambda segment, rule, e: (segment.key, rule.rule_id, e))
    def instances(self, segment, rule, e: int) -> Optional[List[Dict[str, int]]]:
        """Every instance assignment the engine would run for ``rule``
        in ``segment``; ``None`` when the space exceeds the budget or
        cannot be solved (skip, never report).  Whole-region rules apply
        once: ``[{}]``."""
        if not rule.is_instance_rule:
            return [{}]
        seg_bounds = self.box(segment, e)
        if any(hi <= lo for lo, hi in seg_bounds):
            return []
        try:
            ranges = self.compiled.site(segment, rule).ranges(
                self.envs[e], seg_bounds
            )
        except Exception:
            # Coupled output coordinates / undecidable clips: the engine
            # would fail the same way at run time; not a finding.
            return None
        volume = 1
        for var in rule.rule_vars:
            lo, hi = ranges[var]
            volume *= max(0, hi - lo)
            if volume > self.budget.max_instances:
                return None
        return [
            dict(zip(rule.rule_vars, values))
            for values in itertools.product(
                *(range(*ranges[var]) for var in rule.rule_vars)
            )
        ]

    @_memoised(
        lambda segment, option, e: (
            segment.key, option.primary, option.fallback, e
        )
    )
    def applications(self, segment, option, e: int) -> Optional[List[Application]]:
        """The applications the engine would run for this option (size
        guards, residual-where fallbacks), or ``None`` when the instance
        space exceeds the budget."""
        rules, env = self.compiled.ir.rules, self.envs[e]
        rule = rules[option.primary]
        fallback = rules[option.fallback] if option.fallback is not None else None
        if rule.failed_size_guard(env) is not None:
            return []
        assignments = self.instances(segment, rule, e)
        if assignments is None:
            return None
        apps = []
        for assignment in assignments:
            instance_env = {**env, **assignment}
            chosen = rule
            if rule.residual_where and not rule.residual_ok(instance_env):
                if fallback is None or fallback.failed_size_guard(env) is not None:
                    continue
                chosen = fallback
            apps.append(Application(chosen, instance_env, assignment))
        return apps

    @_memoised(lambda bounds: (bounds,))
    def cells(self, bounds: Bounds) -> Optional[List[Cell]]:
        """All cells of a concrete box; ``None`` when over budget."""
        volume = 1
        for lo, hi in bounds:
            volume *= max(0, hi - lo)
            if volume > self.budget.max_cells:
                return None
        return list(itertools.product(*(range(lo, hi) for lo, hi in bounds)))

    def touched(
        self, apps: Iterable[Application], matrix: str, side: str
    ) -> Iterator[Tuple[Cell, Application]]:
        """``(cell, application)`` for every cell of ``matrix`` the
        applications touch through their ``side`` (``"to_regions"`` or
        ``"from_regions"``), in application order; regions over the cell
        budget contribute nothing."""
        for app in apps:
            for region in getattr(app.rule, side):
                if region.matrix == matrix:
                    for cell in self.cells(region.box.concrete(app.env)) or ():
                        yield cell, app

    def flows(
        self, apps: List[Application], matrix: str
    ) -> Iterator[Tuple[Cell, Application, Application]]:
        """``(cell, writer, reader)`` for every cell of ``matrix`` one of
        the applications reads and one writes — reads in application
        order, each against its cell's writers in application order."""
        writers: Dict[Cell, List[Application]] = {}
        for cell, app in self.touched(apps, matrix, "to_regions"):
            writers.setdefault(cell, []).append(app)
        for cell, reader in self.touched(apps, matrix, "from_regions"):
            for writer in writers.get(cell, ()):
                yield cell, writer, reader


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
