"""Hygiene lints (pass family 4: PB401–PB405).

Warnings about suspicious-but-executable programs: where-clauses that
can never hold, declared tunables and input matrices nothing reads,
rules the choice grid can never select, and rules that are applicable
somewhere but lose the priority filter in every segment.  All are
warnings — the program runs, but part of its text is inert — except
that `repro check --strict` promotes them to a failing exit code.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.witness import Replay, describe_env
from repro.compiler.ir import ROLE_INPUT


def check_lints(replay: Replay, path: str = "") -> List[Diagnostic]:
    compiled = replay.compiled
    found = Findings(compiled.ir, path)
    _unsatisfiable_wheres(replay, found)
    _unused_tunables(compiled, found)
    _unused_matrices(compiled, found)
    _dead_and_shadowed_rules(compiled, found)
    return found.diagnostics


def _rule_used_names(rule) -> Set[str]:
    """Every identifier a rule's text references: region boxes, where
    clauses, and body expressions."""
    names: Set[str] = set()
    for region in rule.to_regions + rule.from_regions:
        for interval in region.box.intervals:
            names.update(interval.lo.variables())
            names.update(interval.hi.variables())
    for cond in rule.where:
        names.update(cond.free_names())
    for stmt in rule.body:
        names.update(stmt.target.free_names())
        names.update(stmt.value.free_names())
    return names


def _unsatisfiable_wheres(replay, found: Findings) -> None:
    """PB401: a residual where-predicate that is false at every instance
    of every admitted size (the rule's body can never run as primary),
    once per rule (a meta-rule option can recur across segments).

    Only reported when the instance space was enumerated exhaustively at
    at least one admitted size — a budget-truncated sweep stays silent.
    """
    ir, envs = replay.compiled.ir, replay.envs
    for segment, option in replay.options():
        rule = ir.rules[option.primary]
        if not rule.residual_where:
            continue
        probed = 0
        for e, env in enumerate(envs):
            apps = replay.applications(segment, option, e)
            if apps is None or any(app.rule is rule for app in apps):
                probed = 0  # fires, or incomplete evidence: stay silent
                break
            if rule.failed_size_guard(env) is None:
                probed += len(replay.instances(segment, rule, e))
        if probed == 0:
            continue
        at = (0, 0)
        if rule.residual_where[0] in rule.where:
            at = rule.where_position(rule.where.index(rule.residual_where[0])) or at
        found.add(
            "PB401",
            rule,
            f"where-clause is false at every admitted instance "
            f"({probed} probed); the rule never fires as primary",
            "loosen the predicate or delete the rule",
            witness=describe_env(envs[-1]) if envs else "",
            key=(rule.label,),
            at=at,
        )


def _unused_tunables(compiled, found: Findings) -> None:
    """PB402: declared tunable no rule text references.

    Skipped when any rule has a native (Python) body — native bodies may
    read tunables through the execution context, invisibly to this pass.
    """
    ir = compiled.ir
    if any(rule.native_body is not None for rule in ir.rules):
        return
    used: Set[str] = set()
    for rule in ir.rules:
        used.update(_rule_used_names(rule))
    for tunable in ir.tunables:
        if tunable.name not in used:
            found.add(
                "PB402",
                tunable,
                f"tunable {tunable.name!r} is never used by any rule",
                "delete the tunable or reference it in a rule",
            )


def _unused_matrices(compiled, found: Findings) -> None:
    """PB403: an input matrix never bound by any rule region and never
    named in any rule expression (outputs are covered by PB301)."""
    ir = compiled.ir
    referenced: Set[str] = set()
    for rule in ir.rules:
        for region in rule.to_regions + rule.from_regions:
            referenced.add(region.matrix)
        referenced.update(_rule_used_names(rule))
    for matrix in ir.matrices.values():
        if matrix.role == ROLE_INPUT and matrix.name not in referenced:
            found.add(
                "PB403",
                matrix,
                f"input matrix {matrix.name!r} is never read",
                "drop the matrix from the from(...) header",
            )


def _dead_and_shadowed_rules(compiled, found: Findings) -> None:
    """PB404 (rule in no segment's option set) and PB405 (rule applicable
    in one or more segments but priority-filtered in all of them).

    PB405 requires shadowing in *every* applicable segment: a secondary
    rule that wins boundary segments while an interior rule wins the
    bulk — the paper's priority idiom — is not flagged.
    """
    ir = compiled.ir
    assumptions = ir.assumptions
    selected: Set[int] = set()
    for segment in compiled.grid.all_segments():
        for option in segment.options:
            selected.add(option.primary)
            if option.fallback is not None:
                selected.add(option.fallback)

    applicable_in: Dict[int, int] = {}
    shadowed_in: Dict[int, int] = {}
    for segment in compiled.grid.all_segments():
        candidates = []
        for rule in ir.rules:
            box = rule.applicable.get(segment.matrix)
            if box is None:
                continue
            if rule.is_instance_rule:
                fits = box.contains(segment.box, assumptions)
            else:
                fits = box.contains(segment.box, assumptions) and (
                    segment.box.contains(box, assumptions)
                )
            if fits:
                candidates.append(rule)
        if not candidates:
            continue
        min_priority = min(rule.priority for rule in candidates)
        for rule in candidates:
            applicable_in[rule.rule_id] = applicable_in.get(rule.rule_id, 0) + 1
            if rule.priority > min_priority:
                shadowed_in[rule.rule_id] = shadowed_in.get(rule.rule_id, 0) + 1

    for rule in ir.rules:
        if rule.rule_id in selected:
            continue
        segments_seen = applicable_in.get(rule.rule_id, 0)
        if segments_seen and shadowed_in.get(rule.rule_id, 0) == segments_seen:
            found.add(
                "PB405",
                rule,
                f"rule is shadowed by higher-priority rules in all "
                f"{segments_seen} segment(s) where it applies",
                "lower the rule's priority value or remove it; it "
                "can never be chosen",
            )
        else:
            found.add(
                "PB404",
                rule,
                "rule is never selectable in any segment",
                "its applicable region matches no segment (or it "
                "needs an unrestricted fallback); adjust regions "
                "or priorities",
            )
